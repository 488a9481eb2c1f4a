"""Dense complex matrix primitives shared by the whole package.

Higher-level code works on plain ``numpy.ndarray`` values of dtype
``complex128``; the component kernel keeps a real matrix real inside, so the
scaled products (:func:`_split`, :func:`_power`) take either dtype. This
module centralizes input validation (squareness, finiteness), the tolerance
policy, and the factorization-backed primitives (numerical rank, linear
solve) everything else consumes. Both primitives judge singularity by the
smallest singular value against the largest, which a solve bounds first.
Every residual with a product is read by :func:`_residual` on operands each
carried once (:func:`_carry`), so an operand past ``2**+-64`` is read here alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConditioningError, PreconditionError, SingularMatrixError

__all__ = ["ToleranceConfig", "DEFAULT_TOLERANCES", "as_matrix", "frob"]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used throughout the package.

    ``eig_cluster_radius`` is relative: clustering scales it by
    ``max(1, largest |eigenvalue|)`` before use, so the default behaves the
    same for small and large matrices, and counts computed values chained
    within twice it as one eigenvalue. ``rank_rel_threshold`` is relative to
    the largest singular value; a solve needs the smallest singular value
    above it. ``verify_tol`` bounds the residuals accepted by self-checks
    and by the CLI's verification step.
    """

    eig_cluster_radius: float = 1e-8
    rank_rel_threshold: float = 1e-10
    verify_tol: float = 1e-8

    def __post_init__(self):
        for name in ("eig_cluster_radius", "rank_rel_threshold", "verify_tol"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value <= 0.0:
                raise PreconditionError(
                    f"{name} must be a strictly positive finite number, got {value!r}"
                )
            object.__setattr__(self, name, value)


DEFAULT_TOLERANCES = ToleranceConfig()


def as_matrix(a) -> np.ndarray:
    """Validate ``a`` as a nonempty square matrix and return it as complex128.

    Raises :class:`PreconditionError` for input that is not a square array
    of numbers (a ragged list, say) or has non-finite entries. Always
    returns a fresh C-ordered array, so callers may treat results as
    immutable values and view them as pairs of floats.
    """
    try:
        m = np.array(a, dtype=complex, order="C")
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"expected a nonempty square matrix of numbers: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise PreconditionError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise PreconditionError("matrix entries must all be finite")
    return m


def _pair(x, y):
    """:func:`as_matrix` of both operands, refused unless they have one size."""
    x, y = as_matrix(x), as_matrix(y)
    if x.shape != y.shape:
        raise PreconditionError(f"dimension mismatch: {x.shape[0]}x{x.shape[0]} and {y.shape[0]}x{y.shape[0]} operands")
    return x, y


def identity(n: int) -> np.ndarray:
    """The n-by-n complex identity."""
    return np.eye(n, dtype=complex)


def frob(a) -> float:
    """Frobenius norm.

    On the common path this is numpy's own ``norm`` arithmetic (the dot of
    the real parts with themselves plus that of the imaginary parts), read
    through ``vdot``, which keeps no floating-point error state. The sum of
    squares overflows once entries pass about 1e154 and loses digits to
    underflow once they fall below about 1e-154; only then is the norm taken
    again of ``a`` scaled by its largest entry magnitude, whatever the
    caller's ``errstate``. A norm of 0 costs one more pass, which tells an
    exact zero matrix from one whose squares all underflow.
    """
    a = np.asarray(a)
    if a.dtype.kind not in "fc":
        a = a.astype(float)
    x = a.ravel(order="K")
    if x.dtype.kind == "c":
        norm = math.sqrt(float(np.vdot(x.real, x.real)) + float(np.vdot(x.imag, x.imag)))
    else:
        norm = math.sqrt(float(np.vdot(x, x)))
    if not 1e-150 <= norm < math.inf and x.any():
        with np.errstate(over="ignore", under="ignore"):
            magnitudes = np.abs(a)
            scale = float(np.max(magnitudes))
            if np.isfinite(scale):
                return scale * float(np.linalg.norm(magnitudes / scale))
    return norm


def _finite(m: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ConditioningError(f"{what} overflowed to non-finite entries")
    return m


# A carried matrix is rescaled once its size leaves 2**+-64: products of two
# stay far inside the floating-point range, and most matrices are never touched.
_SCALE_RANGE = 64


def _split(m: np.ndarray, norm: float | None = None):
    """``(m * 2**-e, e)``, with e the binary exponent of ``norm``, by default
    the largest real or imaginary part of ``m``, real or complex; ``(m, 0)``
    while e is within ``_SCALE_RANGE`` of 0. Exact: only exponents change."""
    if norm is None:
        norm = np.abs(m.view(float)).max()
    e = math.frexp(norm)[1]
    if abs(e) <= _SCALE_RANGE:
        return m, 0
    return np.ldexp(m.view(float), -e).view(m.dtype), e


def _power(m: np.ndarray, e: int):
    """``(p, s)`` with ``p * 2**s == m**e`` for a real or complex ``m``;
    ``m**1`` is ``m`` itself. Each later power is ``m``, at parts just below
    ``2**896``, times the one before, split again: no product overflows, and
    each spans the floating-point range. A rescale that underflows would lose
    a direction: a conditioning failure."""
    if e < 2:
        return (m if e else np.eye(m.shape[0], dtype=m.dtype)), 0
    top = np.abs(m.view(float)).max()
    lift = 896 - math.frexp(top)[1]
    big = np.ldexp(m.view(float), lift).view(m.dtype)
    try:
        with np.errstate(under="raise"):
            p, s = _split(m, top)
            for _ in range(e - 1):
                with np.errstate(under="ignore"):
                    p = big @ p
                p, f = _split(p)
                s += f - lift
    except FloatingPointError:
        raise ConditioningError(f"power {e} of the shifted matrix leaves the floating-point range") from None
    return p, s


def _ratio(num: float, den: float, e: int = 0) -> float:
    """``num * 2**e / max(1, den * 2**e)``, formed without overflow: the one
    floor of every scaled residual. At ``e = 0`` an infinite ``den`` reads ``num``;
    a floored value past the floating-point range reads ``inf``."""
    if den and math.frexp(den)[1] + e > 0:
        return num / den
    try:
        return math.ldexp(num, e)
    except OverflowError:
        return math.inf


def _carry(m: np.ndarray, norm: float | None = None):
    """``(x, e, f)`` with ``m = x * 2**e`` split (:func:`_split`) by its Frobenius
    norm ``norm`` (read here when None), or by its largest part where that norm
    overflows, and ``f`` the norm of ``x``: how a residual set carries an operand."""
    norm = frob(m) if norm is None else norm
    x, e = _split(m, norm if norm < math.inf else None)
    return x, e, math.ldexp(norm, -e) if norm < math.inf else frob(x)


def _residual(p: np.ndarray, e: int, den: float, r: np.ndarray | None = None, h: int = 0) -> float:
    """``frob(P - R) / max(1, den * 2**e)`` for ``P = p * 2**e``, ``R = r * 2**h``
    (0 when None) and ``den`` the norm product of p's carried operands. The
    term of smaller scale is shifted down to the other's, so no step
    overflows; where every exponent is 0 nothing is rescaled."""
    if r is None:
        return _ratio(frob(p), den, e)
    # P - R = 2**(h + hi) (p 2**lo - r 2**-hi), with lo + hi = e - h
    lo, hi = min(e - h, 0), max(e - h, 0)
    if lo or hi:
        with np.errstate(under="ignore"):
            p = np.ldexp(p.view(float), lo).view(p.dtype)
            r = np.ldexp(r.view(float), -hi).view(r.dtype)
    return _ratio(frob(p - r), math.ldexp(den, lo), h + hi)


def rank_numeric(a, cfg: ToleranceConfig | None = None) -> int:
    """Numerical rank: singular values above ``rank_rel_threshold`` times the largest.

    The threshold is relative, so the rank is scale-free; an exactly zero
    matrix has rank 0, but a matrix of tiny nonzero noise does not.
    """
    return _rank(as_matrix(a), (cfg or DEFAULT_TOLERANCES).rank_rel_threshold)


def _rank(m: np.ndarray, tau: float) -> int:
    """Core of :func:`rank_numeric`; a real array, or one with no imaginary part, gets a real SVD."""
    sv = np.linalg.svd(m if m.imag.any() else m.real, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tau * sv[0]))


def _full_rank(a: np.ndarray, tau: float, refuse) -> np.ndarray:
    """``inv(a)`` (NaN at an exact zero pivot) if ``s_min > tau s_max``, else raises ``refuse(sv)``.
    ``1 / (||inv||_F ||a||_F) <= s_min / s_max`` (Golub & Van Loan, *Matrix Computations*, 2.3): where
    it exceeds ``2 tau``, a margin rounding cannot cross, the inverse decides; the SVD decides the rest."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inv = np.full_like(a, np.nan)
    sq = [float(np.vdot(m, m).real) for m in (a, inv)]  # squared norms, used in range only
    if not (all(1e-300 < q < 1e300 for q in sq) and 4.0 * tau * tau * sq[0] * sq[1] < 1.0):
        sv = np.linalg.svd(a, compute_uv=False)
        if not sv[-1] > tau * sv[0]:
            raise refuse(sv)
    return inv


def solve(a, b, cfg: ToleranceConfig | None = None) -> np.ndarray:
    """Solve ``a @ x = b`` by LU with partial pivoting plus one refinement step.

    Raises :class:`SingularMatrixError`, carrying the smallest singular
    value, unless it is above ``rank_rel_threshold`` times the largest: the
    rule of :func:`rank_numeric`, so ``a`` is solved exactly when it has
    full numerical rank, read first from the LU inverse (:func:`_full_rank`).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] != b.shape[0]:
        raise PreconditionError(
            f"dimension mismatch: {a.shape[0]}x{a.shape[0]} system, {b.shape[0]}x{b.shape[0]} right-hand side"
        )
    return _solve(a, b, cfg or DEFAULT_TOLERANCES)


def _solve(a: np.ndarray, b: np.ndarray | None, cfg: ToleranceConfig, what: str = "matrix") -> np.ndarray:
    """Core of :func:`solve`; ``b = None`` is I, solved first by the certificate's inverse (the same LU).
    A refusal names the system as ``what``."""
    inv = _full_rank(a, cfg.rank_rel_threshold, lambda sv: SingularMatrixError(
        f"{what} is numerically singular: smallest singular value {sv[-1]:.3e} (largest {sv[0]:.3e})",
        pivot=float(sv[-1])))
    x, b = (inv, identity(a.shape[0])) if b is None else (np.linalg.solve(a, b), b)
    x = x + np.linalg.solve(a, b - a @ x)
    return _finite(x, "linear solve")
