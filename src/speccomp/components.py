"""Eigenprojections and spectral components via polynomial products.

The eigenprojection at 0 is the product over the nonzero eigenvalues of
``(I - (A/lam_i)^u)^(u_i)``. The order-j component at ``lam_k`` comes from
the same product built for the shifted matrix ``A - lam_k I`` — with inner
power ``u_k`` and the remaining eigenvalues shifted — times the trailing
``(1/j!) (A - lam_k I)^j`` factor. Factors commute exactly (they are
polynomials in A) but floating point does not, so they are always
multiplied in ascending position order; outputs are reproducible
bit-for-bit per build.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConditioningError, PreconditionError
from .linalg import DEFAULT_TOLERANCES, ToleranceConfig, _finite, _mat_pow, as_matrix, frob, identity, mat_pow
from .spectrum import Spectrum

__all__ = [
    "ComponentSet",
    "eigenprojection_zero",
    "component",
    "all_components",
    "eigenprojection_residuals",
]

@dataclass(frozen=True)
class ComponentSet:
    """The family of component matrices of one source matrix.

    ``parts`` maps ``(k, j)`` to the order-j component at the k-th
    eigenvalue, with k 1-based in spectrum order and 0 <= j < index_k.
    The j = 0 entries are the eigenprojections.
    """

    source: np.ndarray
    spectrum: Spectrum
    parts: dict = field(repr=False)

    def part(self, k: int, j: int) -> np.ndarray:
        if (k, j) not in self.parts:
            raise PreconditionError(f"no component at position k={k}, order j={j}")
        return self.parts[(k, j)]

    def projector(self, k: int) -> np.ndarray:
        """The eigenprojection at the k-th eigenvalue (the order-0 component)."""
        return self.part(k, 0)

    def keys(self):
        return sorted(self.parts)

    def residuals(self) -> dict:
        """Worst-case residuals of the defining algebraic identities.

        Each residual is a Frobenius norm scaled by max(1, the norms of the
        matrices entering the identity), so a value near machine precision
        means the identity holds to working accuracy regardless of scale:

        - ``idempotency``:            Z_k0 @ Z_k0 = Z_k0
        - ``commutation``:            A @ Z_kj = Z_kj @ A
        - ``resolution_of_identity``: sum_k Z_k0 = I
        - ``orthogonality``:          Z_k0 @ Z_l0 = 0 for k != l
        - ``annihilation``:           (A - lam_k I)^index_k @ Z_k0 = 0
        - ``ladder``:                 (A - lam_k I) @ Z_kj = (j+1) Z_k,j+1
        - ``reconstruction``:         A = sum_k (lam_k Z_k0 + Z_k1)
        """
        a = self.source
        sp = self.spectrum
        n = sp.source_dim
        eye = identity(n)
        proj = {k: self.parts[(k, 0)] for k in range(1, sp.s + 1)}
        norms = {k: frob(z) for k, z in proj.items()}

        total = sum(proj.values())
        resolution = frob(total - eye) / max(1.0, max(norms.values()))
        orth = _worst(
            frob(zk @ zl) / max(1.0, norms[k] * norms[l])
            for k, zk in proj.items()
            for l, zl in proj.items()
            if k != l
        )
        annihilation = []
        ladder = []
        recon_sum = np.zeros((n, n), dtype=complex)
        for k in range(1, sp.s + 1):
            lam = sp.eigenvalues[k - 1]
            nu = sp.indices[k - 1]
            shifted = a - lam * eye
            annihilation.append(_annihilation(mat_pow(shifted, nu), proj[k]))
            for j in range(nu - 1):
                zj, zj1 = self.parts[(k, j)], self.parts[(k, j + 1)]
                ladder.append(
                    frob(shifted @ zj - (j + 1) * zj1) / max(1.0, frob(shifted) * frob(zj))
                )
            recon_sum += lam * proj[k]
            if nu > 1:
                recon_sum += self.parts[(k, 1)]
        reconstruction = frob(a - recon_sum) / max(1.0, frob(a))

        return {
            "idempotency": _worst(_idempotency(z) for z in proj.values()),
            "commutation": _worst(_commutation(a, z) for z in self.parts.values()),
            "resolution_of_identity": resolution,
            "orthogonality": orth,
            "annihilation": _worst(annihilation),
            "ladder": _worst(ladder),
            "reconstruction": reconstruction,
        }


def _worst(values) -> float:
    """Largest of the residuals ``values`` (0.0 when empty); NaN if any is NaN."""
    return float(np.max(list(values), initial=0.0))


def _idempotency(z: np.ndarray) -> float:
    """Residual of Z @ Z = Z."""
    return frob(z @ z - z) / max(1.0, frob(z) ** 2)


def _commutation(a: np.ndarray, z: np.ndarray) -> float:
    """Residual of A @ Z = Z @ A."""
    return _bilinear(a, z, lambda x, y: x @ y - y @ x)


def _annihilation(killer: np.ndarray, z: np.ndarray) -> float:
    """Residual of killer @ Z = 0."""
    return _bilinear(killer, z, lambda x, y: x @ y)


# Entries of x @ y - y @ x are at most 2 frob(x) frob(y) in magnitude.
_FINITE_PRODUCT = np.finfo(float).max / 4


def _bilinear(x: np.ndarray, y: np.ndarray, form) -> float:
    """``frob(form(x, y)) / max(1, frob(x) * frob(y))`` for a bilinear ``form``.

    Past the norm product at which ``form`` could overflow, the ratio, which
    is scale-free once that product exceeds 1, is taken on ``x`` and ``y``
    divided by their norms.
    """
    fx, fy = frob(x), frob(y)
    if fx * fy > _FINITE_PRODUCT:
        return frob(form(x / fx, y / fy))
    return frob(form(x, y)) / max(1.0, fx * fy)


def _guard(m: np.ndarray, cfg: ToleranceConfig, what: str) -> np.ndarray:
    limit = 1e12 / cfg.verify_tol
    norm = frob(m)
    if not np.isfinite(norm) or norm > limit:
        raise ConditioningError(
            f"{what} has Frobenius norm {norm:.3e}, beyond the conditioning guard "
            f"{limit:.3e}; the eigenvalue ratios are too extreme for these exponents — "
            "try the 'minimal' exponent policy or supply a better-conditioned spectrum"
        )
    return m


def _check_pair(a: np.ndarray, sp: Spectrum) -> None:
    if sp.source_dim != a.shape[0]:
        raise PreconditionError(
            f"spectrum describes a {sp.source_dim}x{sp.source_dim} matrix, "
            f"got {a.shape[0]}x{a.shape[0]}"
        )


def _prefix(shifted: np.ndarray, sp: Spectrum, lam: complex, inner: int, cfg: ToleranceConfig) -> np.ndarray:
    """The projector-at-zero product of ``shifted = A - lam I``.

    Product of ``(I - (shifted / (lam_i - lam))^inner)^(u_i)`` over the
    eigenvalues ``lam_i != lam``, in ascending position order; I when there
    are none. Each factor is powered in stages, never expanded as a
    polynomial. Each factor and each running product is guarded once; an
    overflowing quotient is a conditioning failure.
    """
    eye = identity(shifted.shape[0])
    z = None
    with np.errstate(over="ignore", invalid="ignore"):
        for lam_i, outer in zip(sp.eigenvalues, sp.exponents):
            if lam_i == lam:
                continue
            quotient = _finite(shifted / (lam_i - lam), "eigenvalue quotient")
            factor = _guard(_mat_pow(eye - _mat_pow(quotient, inner), outer), cfg, "product factor")
            z = factor if z is None else _guard(z @ factor, cfg, "running product")
    return eye if z is None else z


def eigenprojection_zero(a, sp: Spectrum, cfg: ToleranceConfig | None = None) -> np.ndarray:
    """Eigenprojection of ``a`` at eigenvalue 0.

    Product of ``(I - (A/lam_i)^u)^(u_i)`` over the nonzero eigenvalues, in
    position order. The empty product (every eigenvalue zero, i.e. a
    nilpotent matrix) is exactly I; for a nonsingular matrix every factor
    annihilates its own eigenspace and the result is numerically zero.
    """
    a = as_matrix(a)
    cfg = cfg or DEFAULT_TOLERANCES
    _check_pair(a, sp)
    return _prefix(a, sp, 0j, sp.u, cfg)


def _order_check(sp: Spectrum, k: int, j: int) -> None:
    sp._check_position(k)
    nu = sp.indices[k - 1]
    if not 0 <= j <= nu - 1:
        raise PreconditionError(f"order j={j} out of range 0..{nu - 1} at position {k}")


def _orders(a: np.ndarray, sp: Spectrum, k: int, top: int, cfg: ToleranceConfig) -> list:
    """``[Z_k0, ..., Z_k,top]``: one product prefix times ``(1/j!) (A - lam_k I)^j``.

    The prefix is shared across j and the power is a running product, which
    keeps all components of one eigenvalue mutually consistent. A power or
    component that overflows is a conditioning failure.
    """
    _order_check(sp, k, top)
    lam = sp.eigenvalues[k - 1]
    shifted = a - lam * identity(a.shape[0])
    prefix = _prefix(shifted, sp, lam, sp.exponents[k - 1], cfg)
    out = [prefix]
    tail = shifted
    factorial = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, top + 1):
            if j > 1:
                tail = _finite(tail @ shifted, f"power {j} of the shifted matrix")
                factorial *= j
            out.append(_finite(prefix @ tail / factorial, f"order-{j} component"))
    return out


def component(a, sp: Spectrum, k: int, j: int, cfg: ToleranceConfig | None = None) -> np.ndarray:
    """The order-j component of ``a`` at its k-th eigenvalue (k is 1-based).

    For j = 0 this is the eigenprojection at that eigenvalue: idempotent,
    commuting with ``a``. Higher orders carry the nilpotent structure,
    scaled by 1/j!. Bit-identical to the same part of :func:`all_components`.
    """
    a = as_matrix(a)
    cfg = cfg or DEFAULT_TOLERANCES
    _check_pair(a, sp)
    return _orders(a, sp, k, j, cfg)[j]


def all_components(a, sp: Spectrum, cfg: ToleranceConfig | None = None) -> ComponentSet:
    """Every component of ``a``: positions k = 1..s, orders j = 0..index_k - 1."""
    a = as_matrix(a)
    cfg = cfg or DEFAULT_TOLERANCES
    _check_pair(a, sp)
    parts = {}
    for k in range(1, sp.s + 1):
        for j, z in enumerate(_orders(a, sp, k, sp.indices[k - 1] - 1, cfg)):
            parts[(k, j)] = z
    return ComponentSet(source=a, spectrum=sp, parts=parts)


def eigenprojection_residuals(a, sp: Spectrum, z: np.ndarray) -> dict:
    """Residuals of the identities the eigenprojection at 0 must satisfy.

    Same normalization convention as :meth:`ComponentSet.residuals`:
    idempotency Z^2 = Z, commutation AZ = ZA, and annihilation
    A^(ind A) @ Z = 0 (which for a nonsingular matrix degenerates to
    Z itself being zero).
    """
    a = as_matrix(a)
    return {
        "idempotency": _idempotency(z),
        "commutation": _commutation(a, z),
        "annihilation": _annihilation(mat_pow(a, sp.ind_a), z),
    }
