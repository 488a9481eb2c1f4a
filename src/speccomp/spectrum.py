"""Spectral structure of a matrix: distinct eigenvalues, multiplicities,
indices, and the exponents that drive the component product formulas.

Computed values chained within twice the clustering radius are one
eigenvalue; a centroid within the radius of zero snaps to exactly 0, since
the projector formulas branch on zero-versus-nonzero. Eigenvalues are kept
in a deterministic order (descending magnitude, ties by ascending argument)
so that positions are stable across runs.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ClusteringError, ConditioningError, ConvergenceError, PreconditionError
from .linalg import DEFAULT_TOLERANCES, ToleranceConfig, _rank, as_matrix, frob

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


def _exponents(policy, indices, multiplicities):
    """Exponents under ``policy``, the one place it is resolved: ``indices``
    for ``"minimal"``, ``multiplicities`` for ``"worst_case"``, an explicit
    sequence as it is (the Spectrum checks it)."""
    if not isinstance(policy, str):
        return policy
    if policy == "minimal":
        return indices
    if policy == "worst_case":
        return multiplicities
    raise PreconditionError(f"unknown exponent policy {policy!r}; use 'minimal', 'worst_case', "
                             "or an explicit integer sequence")


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues plus the integer data the component formulas need.

    Fields are parallel tuples over positions 1..s (1-based in the public
    API, matching the usual mathematical numbering):

    - ``eigenvalues``: pairwise distinct, canonically ordered
    - ``multiplicities``: algebraic multiplicities, summing to ``source_dim``
    - ``indices``: size of the largest Jordan block per eigenvalue
    - ``exponents``: per-eigenvalue powers, each at least the index

    Construction converts the fields to tuples of ``complex`` and ``int``
    and checks them, so every Spectrum (copies included) meets the product
    formulas' hypotheses; :class:`PreconditionError` otherwise, including
    for a non-finite eigenvalue or a non-integral count.
    """

    eigenvalues: tuple
    multiplicities: tuple
    indices: tuple
    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", tuple(map(complex, self.eigenvalues)))
        for name in ("multiplicities", "indices", "exponents"):
            counts = tuple(getattr(self, name))
            for i, v in enumerate(counts):
                try:
                    whole = int(v) == v
                except (ValueError, OverflowError):  # NaN or infinity
                    whole = False
                if not whole:
                    raise PreconditionError(f"{name} must be integers, got {v} at position {i + 1}")
            object.__setattr__(self, name, tuple(map(int, counts)))
        s = self.s
        if s == 0:
            raise PreconditionError("spectrum must contain at least one eigenvalue")
        if not all(map(cmath.isfinite, self.eigenvalues)):
            raise PreconditionError("spectrum eigenvalues must be finite")
        if any(len(field) != s for field in (self.multiplicities, self.indices, self.exponents)):
            raise PreconditionError("spectrum fields must all have one entry per eigenvalue")
        if len(set(self.eigenvalues)) != s:
            raise PreconditionError("spectrum eigenvalues must be pairwise distinct")
        for i, (m, nu, ue) in enumerate(zip(self.multiplicities, self.indices, self.exponents)):
            if not 1 <= nu <= m:
                raise PreconditionError(f"index {nu} out of range 1..{m} at position {i + 1}")
            if ue < nu:
                raise PreconditionError(f"exponent {ue} smaller than index {nu} at position {i + 1}")

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

    @property
    def u(self) -> int:
        """Inner power of the projector-at-zero product: the exponent at 0, or
        ``ind A = 0`` without one, which makes that projector exactly 0."""
        pos = self.zero_position
        return 0 if pos is None else self.exponents[pos]

    def position_of(self, value, tol: float = 0.0) -> int:
        """1-based position of the eigenvalue nearest ``value``.

        Raises :class:`PreconditionError`, naming the nearest eigenvalue,
        when it is farther than ``tol`` away, or ``value`` is NaN.
        """
        dist = np.abs(np.asarray(self.eigenvalues, dtype=complex) - complex(value))
        pos = int(dist.argmin())
        if not dist[pos] <= tol:
            raise PreconditionError(f"{value!r} is not an eigenvalue of this spectrum (nearest is "
                                    f"{self.eigenvalues[pos]}, {dist[pos]:.3e} away, beyond {tol:.3e})")
        return pos + 1

    def _check_position(self, k: int) -> None:
        """Raise :class:`PreconditionError` unless ``1 <= k <= s``."""
        if not 1 <= k <= self.s:
            raise PreconditionError(f"position k={k} out of range 1..{self.s}")

    def with_exponents(self, exponents) -> "Spectrum":
        """Same eigenvalues, multiplicities and indices, new exponent choice.

        ``exponents`` is ``"minimal"`` (exponent = index), ``"worst_case"``
        (exponent = multiplicity), or an explicit sequence aligned with the
        eigenvalue order, resolved by :func:`_exponents`; the copy is the one
        Spectrum built.
        """
        return replace(self, exponents=_exponents(exponents, self.indices, self.multiplicities))

    def shifted(self, k: int) -> "Spectrum":
        """Spectrum of ``A - lambda_k I`` given this spectrum of ``A``.

        Eigenvalues shift by ``-lambda_k`` (position k becomes exactly 0),
        multiplicities, indices and exponents are unchanged, so the inner
        power ``u`` is the k-th exponent.
        """
        self._check_position(k)
        lam = self.eigenvalues[k - 1]
        values = [v - lam for v in self.eigenvalues]
        values[k - 1] = 0j
        return self._resorted(values)

    def _resorted(self, values) -> "Spectrum":
        """Copy with the eigenvalues replaced by ``values`` (aligned with the
        current positions) and every per-position field re-sorted canonically."""
        order = canonical_order(values)
        fields = (values, self.multiplicities, self.indices, self.exponents)
        return Spectrum(*([field[i] for i in order] for field in fields))


def _require_separated(values: np.ndarray, radius: float, message: str) -> None:
    """Raise :class:`ClusteringError` if two of ``values`` lie within twice ``radius``.

    The first such pair ``i < j`` in row-major order fills the two ``{}``
    fields of ``message``.
    """
    with np.errstate(over="ignore"):  # an overflowed distance is inf: not close
        close = np.abs(values[:, None] - values) <= 2.0 * radius
    close.flat[:: len(values) + 1] = False  # symmetric: the first pair left is above the diagonal
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

    A matrix whose imaginary parts are all zero is solved in real arithmetic
    (LAPACK ``dgeev`` on its real part), so its real eigenvalues come out
    exactly real and its complex ones in exactly conjugate pairs. ``a`` is
    taken as :func:`~speccomp.linalg.as_matrix` returns it, not checked again;
    eigenvalues past the float range raise :class:`ConditioningError`.
    """
    try:
        values = np.linalg.eigvals(a if a.imag.any() else a.real).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigenvalue iteration did not converge within the LAPACK cap of "
            f"roughly 30 sweeps per eigenvalue for this {a.shape[0]}x{a.shape[0]} "
            f"matrix of Frobenius norm {frob(a):.3e}"
        ) from exc
    if not np.isfinite(values).all():
        big = max(np.abs(a.real).max(), np.abs(a.imag).max())
        raise ConditioningError(f"eigenvalues of this {a.shape[0]}x{a.shape[0]} matrix overflow the float range; "
                                f"its largest real or imaginary part is {big:.3e}")
    return values


def _means(ids: np.ndarray, x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of the real ``x`` per label of ``ids``. A label whose sum leaves the
    float range takes its mean again of ``x * 2**-k``, ``2**k`` past the largest
    count, scaled back: exact in the scaling, and sums in range keep their bits."""
    sums = np.bincount(ids, x)
    means = sums / counts
    if not np.isfinite(sums).all():
        k = int(counts.max()).bit_length()
        means = np.where(np.isfinite(sums), means, np.ldexp(np.bincount(ids, np.ldexp(x, -k)) / counts, k))
    return means


def cluster_spectrum(values, cfg: ToleranceConfig | None = None):
    """Single-linkage clustering of approximate eigenvalues.

    Values joined by a chain of steps within twice the effective radius form
    one eigenvalue, the plain mean of its members, whatever the input order.
    Centroids within the radius of zero snap to exactly 0. Returns
    ``(distinct_values, multiplicities)`` in canonical order.

    Raises :class:`ClusteringError` when two final centroids still lie closer
    than twice the radius (a ring of values around a centre value, say) —
    the clustering is then ambiguous and a different radius (or a
    user-supplied spectrum) is needed.
    """
    vals = np.asarray(values, dtype=complex).ravel()
    if vals.size == 0:
        raise PreconditionError("cannot cluster an empty list of eigenvalues")
    cfg = cfg or DEFAULT_TOLERANCES
    radius = effective_cluster_radius(vals, cfg)

    # min-label propagation: each value ends labelled by the smallest index
    # of its linked component
    with np.errstate(over="ignore"):  # an overflowed distance is inf: no link
        close = np.abs(vals[:, None] - vals) <= 2.0 * radius
    ids = labels = np.arange(vals.size)
    if np.count_nonzero(close) > vals.size:  # some value has a neighbour
        while (labels != (linked := np.where(close, labels, labels[:, None]).min(axis=1))).any():
            labels = linked
        ids = np.cumsum(labels == np.arange(vals.size))[labels] - 1
    counts = np.bincount(ids)
    # each part divided on its own: numpy's complex division by a count
    # multiplies by its reciprocal, which is not the rounded mean
    cents = _means(ids, vals.real, counts) + 1j * _means(ids, vals.imag, counts)
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
    over- or underflow. A real ``a`` and ``lam`` keep the powers real. ``a``
    is taken as :func:`~speccomp.linalg.as_matrix` returns it, not checked again;
    a shift ``A - lam I`` past the float range raises :class:`ConditioningError`.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    n = a.shape[0]
    lam = complex(lam)
    if not a.imag.any() and not lam.imag:
        a, lam = a.real, lam.real
    with np.errstate(over="ignore"):  # a shift past the float range is refused below
        b = a - lam * np.eye(n, dtype=a.dtype)
    if not np.isfinite(b).all():
        raise ConditioningError(f"A - lam I at lam = {lam} overflows the float range for this {n}x{n} matrix; "
                                "its index cannot be searched")
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
            r = _rank(power, cfg.rank_rel_threshold)
        if r == prev_rank:
            return k
        prev_rank = r
    return n


def _semisimple_at_one(a: np.ndarray, values: np.ndarray, k: int, m: int) -> bool:
    """Whether cluster ``k`` of ``values``, of multiplicity ``m``, has index 1 by
    theorem: ``a`` is a row-stochastic chain (real, no negative entry, every row
    sum within ``4 n eps`` of 1), the cluster is the one nearest 1, and ``m`` is
    the number of closed classes of the digraph of ``a > 0``. Eigenvalue 1 of a
    chain is semisimple, with one copy per closed class (Agaev & Chebotarev, "On
    the spectra of nonsymmetric Laplacian matrices", LAA 399, 2005)."""
    n = a.shape[0]
    if a.imag.any():
        return False
    p = a.real
    with np.errstate(over="ignore"):  # a row sum past the float range is no chain's
        off = np.abs(p.sum(axis=1) - 1.0).max()
    if not (off <= 4 * n * np.finfo(float).eps and p.min() >= 0.0 and np.abs(values - 1.0).argmin() == k):
        return False
    # reachability: the closure of (P > 0) | I by repeated squaring
    reach = ((p > 0.0) | np.eye(n, dtype=bool)).astype(float)
    while not np.array_equal(closure := np.sign(reach @ reach), reach):
        reach = closure
    reach = reach > 0.0
    # a state is recurrent when each state it reaches reaches it back; its row
    # is then its closed class, counted once at the class's first state
    recurrent = ~(reach & ~reach.T).any(axis=1)
    return np.count_nonzero(recurrent & (reach.argmax(axis=1) == np.arange(n))) == m


def analyze(a, cfg: ToleranceConfig | None = None, exponents="minimal") -> Spectrum:
    """Full spectral structure of ``a``.

    ``exponents`` selects how the product-formula powers are chosen:

    - ``"minimal"``: exponent = index. Smallest valid powers, at the cost
      of one rank-plateau search per repeated eigenvalue. A simple
      eigenvalue (multiplicity 1) has index 1, since
      ``1 <= index <= multiplicity``, and gets it without a search; whether
      its cluster really is an eigenvalue is left to the residuals of the
      caller's result. Nor is eigenvalue 1 of a row-stochastic chain searched
      when its cluster counts one copy per closed class of the chain's
      digraph: it is semisimple by theorem. Any other count is searched.
    - ``"worst_case"``: exponent = multiplicity. Always valid and needs no
      rank computations (indices are recorded as their multiplicity upper
      bounds), trading larger products for robustness.
    - an explicit sequence of s integers aligned with the canonical
      eigenvalue order, validated against the computed indices.

    One Spectrum is built, from :func:`cluster_spectrum`'s centroids as they
    are: canonically ordered, and separated at a radius no smaller than their
    own, each being the mean of its members.
    """
    a = as_matrix(a)
    cfg = cfg or DEFAULT_TOLERANCES
    values, mults = cluster_spectrum(eigenvalues_raw(a), cfg)
    if isinstance(exponents, str) and exponents == "worst_case":
        indices = mults
    else:
        indices = []
        for k, (v, m) in enumerate(zip(values, mults)):
            # 1 <= index <= multiplicity: a simple eigenvalue needs no search,
            # nor eigenvalue 1 of a chain with one copy per closed class
            nu = 1 if m == 1 or _semisimple_at_one(a, values, k, m) else eigen_index(a, v, cfg)
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
    return Spectrum(values.tolist(), mults.tolist(), indices, _exponents(exponents, indices, mults))


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
    of zero are snapped to exactly 0; everything is re-sorted canonically,
    and an explicit ``exponents`` sequence is aligned with that order.
    When ``n`` is given, the multiplicities must sum to it.

    Values closer than twice the clustering radius raise
    :class:`ClusteringError` before the one Spectrum built checks the rest,
    so exact duplicates get the separation message too.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    values = np.asarray(eigenvalues, dtype=complex).ravel()
    mults = np.asarray(multiplicities).ravel().tolist()
    inds = np.asarray(indices).ravel().tolist()
    if not (len(values) == len(mults) == len(inds)):
        raise PreconditionError("eigenvalues, multiplicities and indices must have equal length")
    if n is not None and sum(mults) != n:
        raise PreconditionError(f"multiplicities sum to {sum(mults)}, expected {n}")
    if not np.isfinite(values).all():
        raise PreconditionError("spectrum eigenvalues must be finite")
    radius = effective_cluster_radius(values, cfg)
    values = np.where(np.abs(values) <= radius, 0j, values)
    order = canonical_order(values)
    values = values[order]
    _require_separated(
        values,
        radius,  # the snap spared the largest value, or zeroed all and any radius refuses them
        "eigenvalues {} and {} are closer than twice the clustering radius; lower the "
        "radius or supply the spectrum explicitly",
    )
    mults, inds = [mults[i] for i in order], [inds[i] for i in order]
    return Spectrum(values.tolist(), mults, inds, _exponents(exponents, inds, mults))


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
