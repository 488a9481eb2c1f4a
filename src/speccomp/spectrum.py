"""Spectral structure of a matrix: distinct eigenvalues, multiplicities,
indices, and the exponents that drive the component product formulas.

Eigenvalues are kept in a deterministic order (descending magnitude, ties
by ascending argument) so that positions are stable across runs. Clusters
whose centroid lies within the clustering radius of zero snap to exactly 0:
the projector formulas branch on zero-versus-nonzero, so that distinction
must be crisp.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ClusteringError, ConvergenceError, PreconditionError
from .linalg import DEFAULT_TOLERANCES, ToleranceConfig, as_matrix, frob, identity, rank_numeric

__all__ = ["Spectrum", "analyze", "spectrum_from_data"]


def canonical_order(values) -> np.ndarray:
    """Sorting permutation: descending magnitude, ties by ascending argument."""
    values = np.asarray(values, dtype=complex)
    return np.lexsort((np.angle(values), -np.abs(values)))


def effective_cluster_radius(values, cfg: ToleranceConfig | None = None) -> float:
    """Clustering radius scaled by the magnitude of the spectrum.

    The configured radius is relative; the effective one is
    ``eig_cluster_radius * max(1, max |value|)``.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    values = np.asarray(values, dtype=complex)
    scale = max(1.0, float(np.abs(values).max())) if values.size else 1.0
    return cfg.eig_cluster_radius * scale


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues plus the integer data the component formulas need.

    Fields are parallel tuples over positions 1..s (1-based in the public
    API, matching the usual mathematical numbering):

    - ``eigenvalues``: pairwise distinct, canonically ordered
    - ``multiplicities``: algebraic multiplicities, summing to ``source_dim``
    - ``indices``: size of the largest Jordan block per eigenvalue
    - ``exponents``: per-eigenvalue powers, each at least the index
    - ``u``: inner power used by the projector-at-zero product, >= ind_a

    Construction converts the fields to tuples of ``complex`` and ``int``
    and checks them, so every Spectrum (copies included) meets the product
    formulas' hypotheses; :class:`PreconditionError` otherwise.
    """

    eigenvalues: tuple
    multiplicities: tuple
    indices: tuple
    exponents: tuple
    u: int

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", tuple(map(complex, self.eigenvalues)))
        for name in ("multiplicities", "indices", "exponents"):
            object.__setattr__(self, name, tuple(map(int, getattr(self, name))))
        object.__setattr__(self, "u", int(self.u))
        s = self.s
        if s == 0:
            raise PreconditionError("spectrum must contain at least one eigenvalue")
        if any(len(field) != s for field in (self.multiplicities, self.indices, self.exponents)):
            raise PreconditionError("spectrum fields must all have one entry per eigenvalue")
        if len(set(self.eigenvalues)) != s:
            raise PreconditionError("spectrum eigenvalues must be pairwise distinct")
        for i, (m, nu, ue) in enumerate(zip(self.multiplicities, self.indices, self.exponents)):
            if not 1 <= nu <= m:
                raise PreconditionError(f"index {nu} out of range 1..{m} at position {i + 1}")
            if ue < nu:
                raise PreconditionError(f"exponent {ue} smaller than index {nu} at position {i + 1}")
        if self.u < max(self.ind_a, 1):
            raise PreconditionError(
                f"inner power u = {self.u} must be at least max(ind_a, 1) = {max(self.ind_a, 1)}"
            )

    @property
    def s(self) -> int:
        """Number of distinct eigenvalues."""
        return len(self.eigenvalues)

    @property
    def source_dim(self) -> int:
        """Dimension of the matrix described: the sum of the multiplicities."""
        return sum(self.multiplicities)

    @property
    def zero_position(self) -> int | None:
        """0-based position of the exact-zero eigenvalue, or None."""
        for i, v in enumerate(self.eigenvalues):
            if v == 0:
                return i
        return None

    @property
    def ind_a(self) -> int:
        """Index of eigenvalue 0 (0 when the matrix is nonsingular)."""
        pos = self.zero_position
        return 0 if pos is None else self.indices[pos]

    def position_of(self, value, tol: float = 0.0) -> int:
        """1-based position of the eigenvalue nearest ``value``.

        Raises :class:`PreconditionError` when the nearest one is farther
        than ``tol`` away, or ``value`` is NaN.
        """
        dist = np.abs(np.asarray(self.eigenvalues, dtype=complex) - complex(value))
        pos = int(dist.argmin())
        if not dist[pos] <= tol:
            raise PreconditionError(f"{value!r} is not an eigenvalue of this spectrum")
        return pos + 1

    def _check_position(self, k: int) -> None:
        """Raise :class:`PreconditionError` unless ``1 <= k <= s``."""
        if not 1 <= k <= self.s:
            raise PreconditionError(f"position k={k} out of range 1..{self.s}")

    def with_exponents(self, exponents) -> "Spectrum":
        """Same eigenvalues, multiplicities and indices, new exponent choice.

        ``exponents`` is ``"minimal"`` (exponent = index, u = max(ind_a, 1)),
        ``"worst_case"`` (exponent = multiplicity, u = dimension), or an
        explicit sequence aligned with the eigenvalue order.
        """
        if exponents == "minimal":
            return replace(self, exponents=self.indices, u=max(self.ind_a, 1))
        if exponents == "worst_case":
            return replace(self, exponents=self.multiplicities, u=self.source_dim)
        if isinstance(exponents, str):
            raise PreconditionError(
                f"unknown exponent policy {exponents!r}; use 'minimal', 'worst_case', "
                "or an explicit integer sequence"
            )
        ulist = tuple(int(v) for v in exponents)
        if len(ulist) != self.s:
            raise PreconditionError(f"expected {self.s} explicit exponents, got {len(ulist)}")
        pos = self.zero_position
        u = 1 if pos is None else ulist[pos]
        return replace(self, exponents=ulist, u=u)

    def shifted(self, k: int) -> "Spectrum":
        """Spectrum of ``A - lambda_k I`` given this spectrum of ``A``.

        Eigenvalues shift by ``-lambda_k`` (position k becomes exactly 0),
        multiplicities, indices and exponents are unchanged, and the inner
        power ``u`` becomes the k-th exponent: the shifted matrix has index
        equal to the k-th index, which that exponent dominates.
        """
        self._check_position(k)
        lam = self.eigenvalues[k - 1]
        values = [v - lam for v in self.eigenvalues]
        values[k - 1] = 0j
        return self._resorted(values, u=self.exponents[k - 1])

    def _resorted(self, values, **changes) -> "Spectrum":
        """Copy with the eigenvalues replaced by ``values`` (aligned with the
        current positions) and every per-position field re-sorted canonically."""
        order = canonical_order(values)
        return replace(
            self,
            eigenvalues=[values[i] for i in order],
            multiplicities=[self.multiplicities[i] for i in order],
            indices=[self.indices[i] for i in order],
            exponents=[self.exponents[i] for i in order],
            **changes,
        )


def _require_separated(values: np.ndarray, radius: float, message: str) -> None:
    """Raise :class:`ClusteringError` if two of ``values`` lie within twice ``radius``.

    The first such pair ``i < j`` in row-major order fills the two ``{}``
    fields of ``message``.
    """
    close = np.triu(np.abs(values[:, None] - values) <= 2.0 * radius, 1)
    if close.any():
        i, j = divmod(int(close.argmax()), len(values))
        raise ClusteringError(message.format(values[i], values[j]))


def eigenvalues_raw(a) -> np.ndarray:
    """All n eigenvalues of ``a``, counted with algebraic multiplicity.

    Computed by LAPACK's Hessenberg reduction followed by shifted QR
    iteration (``numpy.linalg.eigvals``). For a normal matrix with well
    separated eigenvalues each value is accurate to roughly machine
    precision times the Frobenius norm; clusters of a defective eigenvalue
    scatter like eps**(1/index), which is why clustering radii are
    configurable.
    """
    a = as_matrix(a)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigenvalue iteration did not converge within the LAPACK cap of "
            f"roughly 30 sweeps per eigenvalue for this {a.shape[0]}x{a.shape[0]} "
            f"matrix of Frobenius norm {frob(a):.3e}"
        ) from exc


def cluster_spectrum(values, cfg: ToleranceConfig | None = None):
    """Greedy agglomerative clustering of approximate eigenvalues.

    Values are swept in canonical order; each joins the first existing
    cluster whose multiplicity-weighted centroid lies within the effective
    radius, else starts a new cluster. Centroids within the radius of zero
    snap to exactly 0. Returns ``(distinct_values, multiplicities)`` in
    canonical order.

    Raises :class:`ClusteringError` when two final centroids end up closer
    than twice the radius — the clustering is then ambiguous and a
    different radius (or a user-supplied spectrum) is needed.
    """
    vals = np.asarray(values, dtype=complex).ravel()
    if vals.size == 0:
        raise PreconditionError("cannot cluster an empty list of eigenvalues")
    cfg = cfg or DEFAULT_TOLERANCES
    radius = effective_cluster_radius(vals, cfg)

    centroids: list[complex] = []
    counts: list[int] = []
    for v in vals[canonical_order(vals)]:
        for idx, c in enumerate(centroids):
            if abs(v - c) <= radius:
                counts[idx] += 1
                centroids[idx] = c + (v - c) / counts[idx]
                break
        else:
            centroids.append(complex(v))
            counts.append(1)

    cents = np.array(centroids, dtype=complex)
    counts = np.array(counts, dtype=int)
    zero = np.flatnonzero(np.abs(cents) <= radius)
    if zero.size:
        # every cluster that snaps to 0 is part of the one eigenvalue 0
        cents[zero[0]] = 0.0
        counts[zero[0]] = counts[zero].sum()
        cents, counts = np.delete(cents, zero[1:]), np.delete(counts, zero[1:])
    _require_separated(
        cents,
        radius,
        "ambiguous clustering: centroids {} and {} are closer than twice the clustering "
        "radius; adjust the radius or supply the spectrum explicitly",
    )
    order = canonical_order(cents)
    return cents[order], counts[order]


def eigen_index(a, lam, cfg: ToleranceConfig | None = None) -> int:
    """Smallest k with rank((A - lam I)^k) == rank((A - lam I)^(k+1)).

    Returns 0 iff ``lam`` is not an eigenvalue; never exceeds n (the rank
    sequence plateaus by then). The shifted matrix is renormalized before
    each powering step — rank is scale-invariant — so high powers cannot
    over- or underflow.
    """
    a = as_matrix(a)
    cfg = cfg or DEFAULT_TOLERANCES
    n = a.shape[0]
    b = a - complex(lam) * identity(n)
    norm = frob(b)
    if norm <= cfg.rank_rel_threshold * max(1.0, frob(a)):
        return 1  # a is lam * I up to noise
    b = b / norm
    prev_rank = n
    power = b
    for k in range(n + 1):
        if k:
            power = power @ b
        norm = frob(power)
        if norm <= cfg.rank_rel_threshold:
            # product of unit-norm factors collapsed to the noise floor:
            # the power is the numerically zero map
            r = 0
        else:
            power = power / norm
            r = rank_numeric(power, cfg)
        if r == prev_rank:
            return k
        prev_rank = r
    return n


def analyze(a, cfg: ToleranceConfig | None = None, exponents="minimal") -> Spectrum:
    """Full spectral structure of ``a``.

    ``exponents`` selects how the product-formula powers are chosen:

    - ``"minimal"``: exponent = index, u = max(ind A, 1). Smallest valid
      powers, at the cost of one rank-plateau search per repeated
      eigenvalue. A simple eigenvalue (multiplicity 1) has index 1, since
      ``1 <= index <= multiplicity``, and gets it without a search; whether
      its cluster really is an eigenvalue is left to the residuals of the
      caller's result.
    - ``"worst_case"``: exponent = multiplicity, u = n. Always valid and
      needs no rank computations (indices are recorded as their
      multiplicity upper bounds), trading larger products for robustness.
    - an explicit sequence of s integers aligned with the canonical
      eigenvalue order, validated against the computed indices.
    """
    a = as_matrix(a)
    cfg = cfg or DEFAULT_TOLERANCES
    values, mults = cluster_spectrum(eigenvalues_raw(a), cfg)
    if exponents == "worst_case":
        indices = [int(m) for m in mults]
    else:
        indices = []
        for v, m in zip(values, mults):
            # 1 <= index <= multiplicity: a simple eigenvalue needs no search
            nu = 1 if m == 1 else eigen_index(a, v, cfg)
            if nu < 1:
                raise ClusteringError(
                    f"clustered value {v} is not an eigenvalue at the current rank "
                    "threshold; the clustering radius is likely too large"
                )
            if nu > m:
                raise ClusteringError(
                    f"index {nu} of eigenvalue {v} exceeds its clustered multiplicity "
                    f"{m}; the clustering radius is likely too small"
                )
            indices.append(nu)
    return _assemble(values, mults, indices, cfg, exponents)


def spectrum_from_data(
    eigenvalues,
    multiplicities,
    indices,
    n: int | None = None,
    cfg: ToleranceConfig | None = None,
    exponents="minimal",
) -> Spectrum:
    """Build a validated Spectrum from externally known data.

    This bypasses the eigenvalue solver entirely — for exactly-known or
    ill-conditioned spectra. Values within the effective clustering radius
    of zero are snapped to exactly 0; everything is re-sorted canonically.
    When ``n`` is given, the multiplicities must sum to it.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    values = np.asarray(eigenvalues, dtype=complex).ravel()
    mults = [int(m) for m in np.asarray(multiplicities).ravel()]
    inds = [int(v) for v in np.asarray(indices).ravel()]
    if not (len(values) == len(mults) == len(inds)):
        raise PreconditionError("eigenvalues, multiplicities and indices must have equal length")
    if n is not None and sum(mults) != n:
        raise PreconditionError(f"multiplicities sum to {sum(mults)}, expected {n}")
    values = np.where(np.abs(values) <= effective_cluster_radius(values, cfg), 0j, values)
    return _assemble(values, mults, inds, cfg, exponents)


def _assemble(values, mults, indices, cfg, exponents) -> Spectrum:
    """Spectrum of the aligned ``values``, ``mults`` and ``indices``, sorted
    canonically, under the exponent policy ``exponents``.

    Values closer than twice the clustering radius raise
    :class:`ClusteringError` before the Spectrum checks the rest, so exact
    duplicates get the separation message too.
    """
    order = canonical_order(values)
    values = np.asarray(values, dtype=complex)[order]
    _require_separated(
        values,
        effective_cluster_radius(values, cfg),
        "eigenvalues {} and {} are closer than twice the clustering radius; lower the "
        "radius or supply the spectrum explicitly",
    )
    indices = [indices[i] for i in order]
    # the largest index is a valid inner power until the policy sets the powers
    sp = Spectrum(values, [mults[i] for i in order], indices, indices, max(indices, default=1))
    return sp.with_exponents(exponents)


def replace_eigenvalue(sp: Spectrum, k: int, value) -> Spectrum:
    """Copy of ``sp`` with the k-th eigenvalue relabeled as ``value``.

    Used to snap a centroid known to be exact (0 or, for stochastic
    matrices, 1) onto that exact value; the cluster's multiplicity, index
    and exponent are kept. The result is re-sorted canonically; a value
    already in the spectrum raises :class:`PreconditionError`.
    """
    sp._check_position(k)
    values = list(sp.eigenvalues)
    values[k - 1] = complex(value)
    return sp._resorted(values)
