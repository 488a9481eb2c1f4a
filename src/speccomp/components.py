"""Eigenprojections and spectral components via polynomial products.

The eigenprojection at 0 is the product over the nonzero eigenvalues of
``(I - (A/lam_i)^u)^(u_i)``, and exactly 0 when ``u = ind A = 0``. The
projector at ``lam_k`` is the same product built for the shifted matrix
``A - lam_k I``, with inner power ``u_k`` and the remaining eigenvalues
shifted. The paper's order-j component ``(1/j!) (A - lam_k I)^j Z_k0`` is
climbed to one product per order, ``Z_kj = Z_k,j-1 (A - lam_k I) / j``.
Where ``u_k = 1`` each factor is ``(A - lam_i I)^(u_i)``, which does not
depend on k, over a scalar, so all those projectors share one sweep of
prefix and suffix products (:func:`_lagrange`); for a real matrix the
factor at a real eigenvalue is real, and the projector at ``conj(lam)`` is
the conjugate of the one at ``lam``. Factors commute exactly (they are
polynomials in A) but floating point does not, so every product keeps one
fixed order; outputs are reproducible bit-for-bit per build.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConditioningError, PreconditionError
from .linalg import (DEFAULT_TOLERANCES, ToleranceConfig, _carry, _finite, _full_rank, _pair, _power, _ratio,
                     _residual, _split, as_matrix, frob, identity)
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
        means the identity holds to working accuracy regardless of scale. Each
        operand is carried once and each product read by ``linalg._residual``:

        - ``idempotency``:            Z_k0 @ Z_k0 = Z_k0
        - ``commutation``:            A @ Z_kj = Z_kj @ A
        - ``resolution_of_identity``: sum_k Z_k0 = I
        - ``orthogonality``:          Z_k0 @ (S - Z_k0) = 0, with S = sum_l Z_l0
        - ``annihilation``:           (A - lam_k I)^index_k @ Z_k0 = 0
        - ``ladder``:                 (A - lam_k I) @ Z_kj = (j+1) Z_k,j+1
        - ``reconstruction``:         A = sum_k (lam_k Z_k0 + Z_k1)
        """
        a, sp = self.source, self.spectrum
        eye = identity(sp.source_dim)
        proj = {k: self.parts[(k, 0)] for k in range(1, sp.s + 1)}
        fa, norms = frob(a), {key: frob(z) for key, z in self.parts.items()}
        (x, ea, fx), carried = _carry(a, fa), {key: _carry(z, norms[key]) for key, z in self.parts.items()}

        total = sum(proj.values())
        idempotency, orthogonality, annihilation, ladder = [], [], [], []
        recon_sum = np.zeros_like(eye)
        for k in proj:
            (z, e, f), (w, g, fw) = carried[(k, 0)], _carry(total - proj[k])
            idempotency.append(_residual(z @ z, 2 * e, f ** 2, z, e))
            orthogonality.append(_residual(z @ w, e + g, f * fw))
            lam, nu = sp.eigenvalues[k - 1], sp.indices[k - 1]
            shifted = y, es, fs = _carry(a - lam * eye)
            annihilation.append(_annihilation(shifted, nu, carried[(k, 0)]))
            for j in range(nu - 1):
                (zj, ej, fj), (zj1, ej1, _) = carried[(k, j)], carried[(k, j + 1)]
                ladder.append(_residual(y @ zj, es + ej, fs * fj, (j + 1) * zj1, ej1))
            recon_sum += lam * proj[k]
            if nu > 1:
                recon_sum += self.parts[(k, 1)]
        reconstruction = _ratio(frob(a - recon_sum), fa)

        return {
            "idempotency": _worst(idempotency),
            "commutation": _worst(_residual(x @ z - z @ x, ea + e, fx * f) for z, e, f in carried.values()),
            "resolution_of_identity": _ratio(frob(total - eye), max(norms[(k, 0)] for k in proj)),
            "orthogonality": _worst(orthogonality),
            "annihilation": _worst(annihilation),
            "ladder": _worst(ladder),
            "reconstruction": reconstruction,
        }


def _worst(values) -> float:
    """Largest of the residuals ``values`` (0.0 when empty); NaN if any is NaN."""
    return float(np.max(list(values), initial=0.0))


def _annihilation(shifted: tuple, nu: int, z: tuple) -> float:
    """Residual of ``shifted ** nu @ Z = 0`` for carried operands (:func:`_carry`),
    read on the carried power (:func:`_power`) at any scale."""
    (x, e, f), (y, g, fy) = shifted, z
    if nu != 1:
        p, s = _power(x, nu)
        x, h, f = _carry(p)
        e = nu * e + s + h
    return _residual(x @ y, e + g, f * fy)


def _guard(norm: float, cfg: ToleranceConfig, what: str) -> None:
    limit = 1e12 / cfg.verify_tol
    if not np.isfinite(norm) or norm > limit:
        raise ConditioningError(
            f"{what} has Frobenius norm {norm:.3e}, beyond the conditioning guard "
            f"{limit:.3e}; the eigenvalue ratios are too extreme for these exponents — "
            "try the 'minimal' exponent policy or supply a better-conditioned spectrum"
        )


def _check_pair(a: np.ndarray, sp: Spectrum) -> np.ndarray:
    if sp.source_dim != a.shape[0]:
        raise PreconditionError(
            f"spectrum describes a {sp.source_dim}x{sp.source_dim} matrix, "
            f"got {a.shape[0]}x{a.shape[0]}"
        )
    return a


def _times(x, y):
    """Product of two scaled matrices ``(m, e)``, each standing for ``m * 2**e``;
    None stands for I. The result is split again, so no product overflows."""
    if x is None or y is None:
        return y if x is None else x
    m, e = _split(x[0] @ y[0])
    return m, e + x[1] + y[1]


def _shift(x: np.ndarray, lam) -> np.ndarray:
    """``x - lam I``, as a new array of the dtype of ``x``."""
    shift = x.copy()
    shift.flat[:: x.shape[0] + 1] -= lam
    return shift


def _lagrange_factor(x: np.ndarray, lam, outer: int):
    """``(X - lam I)^outer`` as a scaled matrix, and the log2 of its Frobenius
    norm. The power is carried beside a power of two (:func:`_power`), so it
    neither overflows nor loses a direction that a later factor keeps."""
    power, e = _power(_shift(x, lam), outer)
    norm = frob(power)
    power, f = _split(power, norm)
    return (power, e + f), np.log2(norm) + e


def _lagrange_scalars(sp: Spectrum, rows):
    """``(d, e, w)`` over the 0-based positions ``rows``: ``d[r] * 2**e[r]`` is
    ``prod_{i != k} (lam_k - lam_i)^(u_i)`` for ``k = rows[r]``, and ``w[r, i]``
    is ``log2 |lam_k - lam_i|^(u_i)``, infinite at i = k. Each difference is
    split into a power of two and a unit-size rest first, so neither overflows.
    """
    lam = np.asarray(sp.eigenvalues)
    u = np.asarray(sp.exponents)
    off = np.arange(sp.s) != np.asarray(rows)[:, None]
    diff = np.where(off, lam[rows, None] - lam, 1.0)
    e = np.frexp(np.maximum(np.abs(diff.real), np.abs(diff.imag)))[1]
    rest = np.ldexp(diff.real, -e) + 1j * np.ldexp(diff.imag, -e)
    w = np.where(off, u * (np.log2(np.abs(rest)) + e), np.inf)
    return np.prod(np.where(off, rest ** u, 1.0), axis=1), np.where(off, e * u, 0).sum(axis=1), w


def _lagrange(a: np.ndarray, sp: Spectrum, positions, cfg: ToleranceConfig) -> dict:
    """``{k: Z_k0}`` for 1-based positions k whose exponent is 1.

    There ``Z_k0 = c_k * prod_{i != k} G_i`` with ``G_i = (A - lam_i I)^(u_i)``
    and the scalar ``c_k = prod_{i != k} (lam_k - lam_i)^(-u_i)``: the paper's
    factor ``I - (A - lam_k I)/(lam_i - lam_k)`` is ``G_i / (lam_k - lam_i)``.
    For a real A, the factor at a real eigenvalue is the real ``G_i``, the
    projector at a real eigenvalue keeps only its real part (its imaginary
    part is exactly 0), and a position at ``conj(lam)``, with ``lam`` at an
    earlier position of exponent 1, is the projector at ``lam`` conjugated.
    One right-to-left pass stores the suffix of the factors after each k;
    one left-to-right pass runs the prefix of those before it and multiplies
    it onto the stored suffix, which it then drops. Every matrix is carried
    beside a power of two and rescaled, exactly, when its size leaves
    ``2**+-_SCALE_RANGE``. Once per computed k, the largest factor norm
    ``||G_i|| / |lam_k - lam_i|^(u_i)``, read from the factors' norms and
    :func:`_lagrange_scalars`, is guarded, and so is the finished product of
    two or more factors. A single position runs the same passes over its own
    (or its partner's) prefix and suffix only, so its result has the same bits.
    """
    n = a.shape[0]
    real = None if a.imag.any() else np.ascontiguousarray(a.real)
    partner = {}
    if real is not None:
        at = {v: i for i, v in enumerate(sp.eigenvalues, 1) if sp.exponents[i - 1] == 1}
        for k in positions:
            j = at.get(sp.eigenvalues[k - 1].conjugate(), k)
            if j < k:
                partner[k] = j
    wanted = sorted({partner.get(k, k) - 1 for k in positions})
    first, last = wanted[0], wanted[-1]
    row = {k: r for r, k in enumerate(wanted)}
    d, d_exp, w = _lagrange_scalars(sp, wanted)
    log_norm = np.full(sp.s, -np.inf)

    def factor(i):
        lam = sp.eigenvalues[i]
        x, lam = (real, lam.real) if real is not None and not lam.imag else (a, lam)
        m, log_norm[i] = _lagrange_factor(x, lam, sp.exponents[i])
        return m

    out = {}
    with np.errstate(over="ignore", divide="ignore"):
        suffixes = {}
        tail = None
        for i in range(sp.s - 1, first - 1, -1):
            if i in row:
                suffixes[i] = tail
            if i > first:
                tail = _times(factor(i), tail)
        head = None
        for i in range(last + 1):
            if i in row:
                r, product = row[i], _times(head, suffixes.pop(i))
                if product is None:
                    out[i + 1] = identity(n)
                else:
                    _guard(float(np.exp2(np.max(log_norm - w[r]))), cfg, "product factor")
                    m, e = product
                    q = m.real / d[r].real if real is not None and not sp.eigenvalues[i].imag else m / d[r]
                    z = np.ldexp(q.view(float), e - int(d_exp[r])).view(q.dtype)
                    z += 0.0  # a zero entry divided by a negative d reads -0.0
                    if sp.s > 2:
                        _guard(frob(z), cfg, "product of factors")
                    out[i + 1] = z.astype(complex, copy=False)
            if i < last:
                head = _times(head, factor(i))
    for k, j in partner.items():
        out[k] = out[j].conj() + 0.0  # a zero imaginary part conjugates to -0.0
    return {k: out[k] for k in positions}


def eigenprojection_zero(a, sp: Spectrum, cfg: ToleranceConfig | None = None) -> np.ndarray:
    """Eigenprojection of ``a`` at eigenvalue 0: the order-0 component there.

    Product of ``(I - (A/lam_i)^u)^(u_i)`` over the nonzero eigenvalues, in
    position order. The empty product (every eigenvalue zero, i.e. a
    nilpotent matrix) is exactly I. For a nonsingular matrix ``u = ind A = 0``
    makes every factor 0, so the result is exactly zero, with no product.
    A spectrum without 0 is taken for a matrix of full numerical rank: one
    whose smallest singular value is above the smaller of
    ``rank_rel_threshold`` and ``eig_cluster_radius`` times the largest (the
    rule of :func:`~speccomp.linalg.solve`, unless the clustering resolves
    smaller eigenvalues). A matrix without it raises
    :class:`ConditioningError`: its zero eigenvalue was lost, as a defective 0
    whose computed values scatter past the clustering radius is.
    """
    return _projector_zero(_check_pair(as_matrix(a), sp), sp, cfg or DEFAULT_TOLERANCES)


def _projector_zero(a: np.ndarray, sp: Spectrum, cfg: ToleranceConfig) -> np.ndarray:
    """Core of :func:`eigenprojection_zero` on a validated pair."""
    if sp.zero_position is None:
        _full_rank(a, min(cfg.rank_rel_threshold, cfg.eig_cluster_radius), lambda sv: ConditioningError(
            f"the spectrum has no zero eigenvalue, but the matrix is numerically singular: "
            f"smallest singular value {sv[-1]:.3e} (largest {sv[0]:.3e}); its zero eigenvalue "
            "likely scattered past the clustering radius — raise the radius or supply the "
            "spectrum explicitly"))
        return np.zeros_like(a)
    return _component(a, sp, sp.zero_position + 1, 0, cfg)


def _orders(a: np.ndarray, sp: Spectrum, k: int, top: int, cfg: ToleranceConfig) -> list:
    """``[Z_k0, ..., Z_k,top]`` for a position whose exponent ``u_k`` is 2 or more.

    ``Z_k0`` is the product of ``(I - ((A - lam_k I) / (lam_i - lam_k))^(u_k))^(u_i)``
    over the eigenvalues ``lam_i != lam_k``, in ascending position order; I
    when there are none. Each factor is powered by repeated squaring, never
    expanded as a polynomial. Each factor and the finished product of two or
    more is guarded once; an overflowing quotient is a conditioning failure.
    The higher orders climb the ladder ``Z_kj = Z_k,j-1 (A - lam_k I) / j``,
    one product each, and an order that overflows is a conditioning failure.
    """
    lam = sp.eigenvalues[k - 1]
    shifted = a if lam == 0 else a - lam * identity(a.shape[0])  # a - 0 I is a, bit for bit
    inner = sp.exponents[k - 1]
    others = [(lam_i, outer) for lam_i, outer in zip(sp.eigenvalues, sp.exponents) if lam_i != lam]
    z = eye = identity(a.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for count, (lam_i, outer) in enumerate(others):
            quotient = _finite(shifted / (lam_i - lam), "eigenvalue quotient")
            factor = np.linalg.matrix_power(eye - np.linalg.matrix_power(quotient, inner), outer)
            _guard(frob(factor), cfg, "product factor")
            z = factor if count == 0 else z @ factor
        if len(others) > 1:
            _guard(frob(z), cfg, "product of factors")
        out = [z]
        for j in range(1, top + 1):
            out.append(_finite(out[-1] @ shifted / j, f"order-{j} component"))
    return out


def component(a, sp: Spectrum, k: int, j: int, cfg: ToleranceConfig | None = None) -> np.ndarray:
    """The order-j component of ``a`` at its k-th eigenvalue (k is 1-based).

    For j = 0 this is the eigenprojection at that eigenvalue: idempotent,
    commuting with ``a``. Higher orders carry the nilpotent structure,
    scaled by 1/j!. Bit-identical to the same part of :func:`all_components`.
    """
    return _component(_check_pair(as_matrix(a), sp), sp, k, j, cfg or DEFAULT_TOLERANCES)


def _component(a: np.ndarray, sp: Spectrum, k: int, j: int, cfg: ToleranceConfig) -> np.ndarray:
    """Core of :func:`component` on a validated pair."""
    sp._check_position(k)
    if not 0 <= j <= sp.indices[k - 1] - 1:
        raise PreconditionError(f"order j={j} out of range 0..{sp.indices[k - 1] - 1} at position {k}")
    if sp.exponents[k - 1] == 1:
        return _lagrange(a, sp, [k], cfg)[k]
    return _orders(a, sp, k, j, cfg)[j]


def all_components(a, sp: Spectrum, cfg: ToleranceConfig | None = None) -> ComponentSet:
    """Every component of ``a``: positions k = 1..s, orders j = 0..index_k - 1.

    The projectors of all exponent-1 positions come from one shared
    Lagrange sweep (:func:`_lagrange`); every other position runs its own
    product. A spectrum without 0 is refused for a numerically singular
    matrix, as :func:`eigenprojection_zero` refuses it.
    """
    a, cfg = _check_pair(as_matrix(a), sp), cfg or DEFAULT_TOLERANCES
    if sp.zero_position is None:
        _projector_zero(a, sp, cfg)
    ones = [k for k in range(1, sp.s + 1) if sp.exponents[k - 1] == 1]
    simple = _lagrange(a, sp, ones, cfg) if ones else {}
    parts = {}
    for k in range(1, sp.s + 1):
        orders = [simple[k]] if k in simple else _orders(a, sp, k, sp.indices[k - 1] - 1, cfg)
        for j, z in enumerate(orders):
            parts[(k, j)] = z
    return ComponentSet(source=a, spectrum=sp, parts=parts)


def eigenprojection_residuals(a, sp: Spectrum, z: np.ndarray) -> dict:
    """Residuals of the identities the eigenprojection at 0 must satisfy.

    Same normalization convention as :meth:`ComponentSet.residuals`:
    idempotency Z^2 = Z, commutation AZ = ZA, and annihilation
    A^(ind A) @ Z = 0 (which for a nonsingular matrix degenerates to
    Z itself being zero).
    """
    a, z = _pair(a, z)
    (x, e, fx), (y, g, fy) = ca, cz = _carry(_check_pair(a, sp)), _carry(z)
    return {
        "idempotency": _residual(y @ y, 2 * g, fy ** 2, y, g),
        "commutation": _residual(x @ y - y @ x, e + g, fx * fy),
        "annihilation": _annihilation(ca, sp.ind_a, cz),
    }
