"""Consumers of the component calculus: matrix functions, the Drazin
inverse, and limiting matrices of row-stochastic chains."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .components import ComponentSet, _check_pair, _component, _projector_zero
from .exceptions import PreconditionError
from .linalg import (DEFAULT_TOLERANCES, ToleranceConfig, _carry, _pair, _power, _residual, _solve, as_matrix, frob,
                     identity)
from .spectrum import Spectrum, analyze, effective_cluster_radius, replace_eigenvalue

__all__ = [
    "ScalarFunctionJet",
    "matrix_function",
    "drazin_inverse",
    "cesaro_limit",
    "drazin_residuals",
    "cesaro_residuals",
]


@dataclass(frozen=True)
class ScalarFunctionJet:
    """A scalar function bundled with its derivatives.

    ``evaluator(lam, j)`` returns the j-th derivative at ``lam``;
    ``max_order`` is the highest order the evaluator supports.
    """

    evaluator: Callable
    max_order: int

    def __call__(self, lam: complex, j: int) -> complex:
        if j > self.max_order:
            raise PreconditionError(
                f"derivative order {j} requested, evaluator supports up to {self.max_order}"
            )
        return complex(self.evaluator(lam, j))


def matrix_function(cs: ComponentSet, f: ScalarFunctionJet) -> np.ndarray:
    """Evaluate f on a matrix through its components.

    The defining property of the component family: f(A) is the finite
    double sum of ``f^(j)(lam_k) * Z_kj`` over all positions and orders.
    """
    needed = max(cs.spectrum.indices) - 1
    if f.max_order < needed:
        raise PreconditionError(
            f"spectrum needs derivatives up to order {needed}, evaluator stops at {f.max_order}"
        )
    n = cs.spectrum.source_dim
    out = np.zeros((n, n), dtype=complex)
    for (k, j) in cs.keys():
        out += f(cs.spectrum.eigenvalues[k - 1], j) * cs.parts[(k, j)]
    return out


def drazin_inverse(a, sp: Spectrum, cfg: ToleranceConfig | None = None) -> np.ndarray:
    """Drazin inverse via the eigenprojection at zero.

    With Z that projection, ``A + cZ`` is nonsingular for every ``c != 0``
    (A is invertible off the generalized nullspace and acts as
    ``c``-times-identity plus nilpotent on it), and ``(A + cZ)^-1 (I - Z)``
    satisfies the Drazin axioms. ``c = frob(A) / sqrt(n)``, the root mean
    square singular value of A (1 for A = 0), puts both parts of the system
    at A's own scale, so the solve does not refuse it for mixing scales. A
    singular solve here means Z was wrong for this matrix. Without a zero
    eigenvalue Z is 0 and this is the plain inverse, which the solve refuses
    for a matrix that is numerically singular after all; its LU inverse is refined once.
    """
    a, cfg = _check_pair(as_matrix(a), sp), cfg or DEFAULT_TOLERANCES
    if sp.zero_position is None:
        return _solve(a, None, cfg)
    z = _projector_zero(a, sp, cfg)
    c = frob(a) / math.sqrt(a.shape[0]) or 1.0
    return _solve(a + c * z, identity(a.shape[0]) - z, cfg)


def _require_chain(p: np.ndarray, tol: float) -> None:
    """Raise :class:`PreconditionError` unless the validated ``p`` is row-stochastic
    within ``tol``: row sums 1, entries (near-)real and nonnegative."""
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range is refused
        deviation = np.max(np.abs(p.sum(axis=1) - 1.0))
    if not deviation <= tol:
        raise PreconditionError(f"matrix is not row-stochastic: row sums deviate from 1 by {deviation:.3e}")
    if np.max(np.abs(p.imag)) > tol or np.min(p.real) < -tol:
        raise PreconditionError("matrix is not row-stochastic: entries must be (near-)real and nonnegative")


def cesaro_limit(p, cfg: ToleranceConfig | None = None, spectrum: Spectrum | None = None) -> np.ndarray:
    """Limiting matrix of a row-stochastic chain.

    Returns the order-0 component of P at eigenvalue 1 — the long-run
    average of the powers of P, which exists even for periodic chains. The
    eigenvalue cluster nearest 1 (within 10x the effective clustering
    radius) is snapped to exactly 1 before the component engine runs,
    mirroring the zero-snap rule. ``spectrum`` is P's spectrum when the
    caller has it already, as ``analyze(p, cfg)`` returns it; without it,
    that call is made here.
    """
    p, cfg = as_matrix(p), cfg or DEFAULT_TOLERANCES
    _require_chain(p, cfg.verify_tol)
    sp = analyze(p, cfg, exponents="minimal") if spectrum is None else spectrum
    k = sp.position_of(1.0, 10.0 * effective_cluster_radius(sp.eigenvalues, cfg))
    if sp.eigenvalues[k - 1] != 1.0:
        sp = replace_eigenvalue(sp, k, 1.0)
        k = sp.position_of(1.0)
    _check_pair(p, sp)
    return _component(p, sp, k, 0, cfg)


def drazin_residuals(a, a_d, ind_a: int) -> dict:
    """Residuals of the three Drazin axioms, scaled like the component checks.

    The axioms: ``A^D A A^D = A^D``, ``A A^D = A^D A``, and
    ``A^(k+1) A^D = A^k`` with k = ``ind_a``, a nonnegative integer: the
    index of eigenvalue 0. Each is read on A, its carried power and ``A^D``
    carried once, at any scale.
    """
    a, a_d = _pair(a, a_d)
    if not (isinstance(ind_a, numbers.Integral) and ind_a >= 0):
        raise PreconditionError(f"ind_a must be a nonnegative integer, got {ind_a!r}")
    (x, e, fx), (d, g, fd), k = _carry(a), _carry(a_d), int(ind_a)
    p, s = _power(x, k)
    q = p @ x
    return {
        "inner_inverse": _residual(d @ x @ d, 2 * g + e, fd ** 2 * fx, d, g),
        "commutation": _residual(x @ d - d @ x, e + g, fx * fd),
        "power_identity": _residual(q @ d, s + (k + 1) * e + g, frob(q) * fd, p, s + k * e),
    }


def cesaro_residuals(p, limit) -> dict:
    """Residuals of the identities a limiting matrix must satisfy.

    Idempotency, two-sided commutation/absorption against P, row sums of 1,
    and entry nonnegativity (reported as the worst negative excursion). A real
    chain and limit (every imaginary part 0) are read in real arithmetic.
    """
    p, limit = _pair(p, limit)
    if not (p.imag.any() or limit.imag.any()):
        p, limit = np.ascontiguousarray(p.real), np.ascontiguousarray(limit.real)
    (x, f, fx), (y, g, fy) = _carry(p), _carry(limit)
    return {
        "idempotency": _residual(y @ y, 2 * g, fy ** 2, y, g),
        "commutation": _residual(x @ y - y @ x, f + g, fx * fy),
        "absorption": _residual(x @ y, f + g, fx * fy, y, g),
        "row_sums": float(np.max(np.abs(limit.sum(axis=1) - 1.0))),
        "negativity": float(max(0.0, -np.min(limit.real))),
    }
