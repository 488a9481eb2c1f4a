"""Dense complex matrix primitives shared by the whole package.

Higher-level code works on plain ``numpy.ndarray`` values of dtype
``complex128``; the component kernel keeps a real matrix real inside, so the
scaled products (:func:`_split`, :func:`_power`) take either dtype. This
module centralizes input validation (squareness, finiteness), the tolerance
policy, and the factorization-backed primitives (numerical rank, linear
solve) everything else consumes. Both primitives judge singularity by the
smallest singular value against the largest, which a solve bounds first.
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

    Raises :class:`PreconditionError` for non-square input or non-finite
    entries. Always returns a fresh C-ordered array, so callers may treat
    results as immutable values and view them as pairs of floats.
    """
    m = np.array(a, dtype=complex, order="C")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise PreconditionError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise PreconditionError("matrix entries must all be finite")
    return m


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
    floor of every scaled residual. At ``e = 0`` an infinite ``den`` reads ``num``."""
    if den and math.frexp(den)[1] + e > 0:
        return num / den
    return math.ldexp(num, e)


def _bilinear(x: np.ndarray, y: np.ndarray, form, e: int, fx: float, fy: float) -> float:
    """``frob(form(X, y)) / max(1, frob(X) * frob(y))`` for a bilinear ``form``
    and ``X = x * 2**e``, taken on ``x`` and ``y`` split by their norms ``fx``
    and ``fy``, so no step overflows; scale-free once the norm product passes 1."""
    (x, f), (y, g) = _split(x, fx), _split(y, fy)
    return _ratio(frob(form(x, y)), math.ldexp(fx, -f) * math.ldexp(fy, -g), e + f + g)


def _difference_ratio(xy: np.ndarray, r: np.ndarray, den: float, h: int, e: int) -> float:
    """``frob(xy 2**h - r) 2**e / max(1, den 2**(h + e))`` for a product ``xy``
    and reference term ``r`` of split operands ``2**h`` apart: the part of
    smaller scale is shifted down to the other's, so no step overflows."""
    # xy 2**h - r = 2**hi (xy 2**lo - r 2**-hi)
    lo, hi = min(h, 0), max(h, 0)
    if lo or hi:
        with np.errstate(under="ignore"):
            xy = np.ldexp(xy.view(float), lo).view(xy.dtype)
            r = np.ldexp(r.view(float), -hi).view(r.dtype)
    return _ratio(frob(xy - r), math.ldexp(den, lo), e + hi)


def _inner_inverse(x: np.ndarray, y: np.ndarray | None = None, fx=None, fy=None) -> float:
    """``frob(X Y X - X) / max(1, frob(X)**2 frob(Y))``, with Y = I of norm 1
    when None (the idempotency of X). Like :func:`_bilinear`, it reads X and Y
    split by their norms (``fx`` and ``fy`` when given), and the difference
    through :func:`_difference_ratio`; in range, no operand is rescaled."""
    fx = frob(x) if fx is None else fx
    x, f = _split(x, fx)
    fx = math.ldexp(fx, -f)
    if y is None:
        xyx, fy, g = x @ x, 1.0, 0
    else:
        fy = frob(y) if fy is None else fy
        y, g = _split(y, fy)
        xyx, fy = x @ y @ x, math.ldexp(fy, -g)
    # X Y X - X = 2**f (x y x 2**(f + g) - x)
    return _difference_ratio(xyx, x, fx ** 2 * fy, f + g, f)


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


def _solve(a: np.ndarray, b: np.ndarray | None, cfg: ToleranceConfig) -> np.ndarray:
    """Core of :func:`solve`; ``b = None`` is I, solved first by the certificate's inverse (the same LU)."""
    inv = _full_rank(a, cfg.rank_rel_threshold, lambda sv: SingularMatrixError(
        f"matrix is numerically singular: smallest singular value {sv[-1]:.3e} (largest {sv[0]:.3e})",
        pivot=float(sv[-1])))
    x, b = (inv, identity(a.shape[0])) if b is None else (np.linalg.solve(a, b), b)
    x = x + np.linalg.solve(a, b - a @ x)
    return _finite(x, "linear solve")
