"""Independent ground truth for component computations.

Two routes that share no code with the product-formula engine:

- :func:`build_case` constructs a matrix with *known* block structure
  (block-diagonal nilpotent ladders conjugated by a random integer matrix)
  together with its exact component set, read directly off the
  construction.
- :func:`components_by_nullspace` computes projectors the textbook way,
  from orthonormal bases of the generalized eigenspaces.

Disagreement between either route and the product formulas flags a bug in
one of them. :func:`lagrange_projector` is the classical interpolation
product for diagonalizable matrices, the case the product formulas reduce
to; it shares only the engine's input check and conditioning guard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import ComponentSet, _check_pair, _guard
from .documents import document_payload
from .exceptions import ConditioningError, PreconditionError, SingularMatrixError
from .linalg import DEFAULT_TOLERANCES, ToleranceConfig, as_matrix, frob, identity, solve
from .spectrum import Spectrum, canonical_order, spectrum_from_data

__all__ = [
    "JordanSpec",
    "build_case",
    "case_document",
    "components_by_nullspace",
    "lagrange_projector",
]


@dataclass(frozen=True)
class JordanSpec:
    """Constructive test case: per-eigenvalue block sizes plus a seed.

    ``blocks`` lists ``(eigenvalue, sizes)`` entries with pairwise distinct
    eigenvalues and positive sizes, checked on construction; ``seed`` drives
    the random integer similarity transform.
    """

    blocks: tuple
    seed: int = 0

    def __post_init__(self):
        normalized = tuple(
            (complex(value), tuple(int(s) for s in sizes)) for value, sizes in self.blocks
        )
        object.__setattr__(self, "blocks", normalized)
        if not self.blocks or self.dim < 1:
            raise PreconditionError("a case needs at least one block of size >= 1")
        values = [value for value, _ in self.blocks]
        if len(set(values)) != len(values):
            raise PreconditionError("eigenvalues of distinct entries must be pairwise distinct")
        for value, sizes in self.blocks:
            if not sizes or any(s < 1 for s in sizes):
                raise PreconditionError(f"block sizes for eigenvalue {value} must be positive")

    @property
    def dim(self) -> int:
        return sum(sum(sizes) for _, sizes in self.blocks)


def integer_similarity(n: int, seed: int, max_tries: int = 100) -> np.ndarray:
    """Random integer matrix with entries in [-3, 3] and |det| >= 1.

    The determinant of an integer matrix is an integer, so |det| >= 1 just
    means nonsingular — and an integer similarity keeps the conjugated
    ground truth accurate to near machine precision without exact
    arithmetic. Deterministic per (n, seed).
    """
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        s = rng.integers(-3, 4, size=(n, n)).astype(complex)
        if abs(round(np.linalg.det(s).real)) >= 1:
            return s
    raise ConditioningError(
        f"no nonsingular integer similarity found in {max_tries} draws (n={n}, seed={seed})"
    )


def build_case(spec: JordanSpec, cfg: ToleranceConfig | None = None):
    """Construct ``(a, truth, sp)`` with exactly known component structure.

    The block-diagonal form J has, for each eigenvalue, one nilpotent
    ladder per requested size. With S the integer similarity,
    ``a = S @ J @ S^-1`` and the true order-j component at eigenvalue k is
    ``S @ E_kj @ S^-1``, where E_k0 is the identity restricted to that
    eigenvalue's positions and ``E_kj = (1/j!) (J - lam_k I)^j @ E_k0``
    (an explicit superdiagonal pattern). The spectrum is read directly off
    the construction: multiplicity = total size, index = largest block.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    n = spec.dim

    values = np.array([value for value, _ in spec.blocks], dtype=complex)
    order = canonical_order(values)
    entries = [spec.blocks[i] for i in order]

    jmat = np.zeros((n, n), dtype=complex)
    positions = []
    offset = 0
    for value, sizes in entries:
        start = offset
        for size in sizes:
            for i in range(size):
                jmat[offset + i, offset + i] = value
            for i in range(size - 1):
                jmat[offset + i, offset + i + 1] = 1.0
            offset += size
        positions.append(range(start, offset))

    s_mat = integer_similarity(n, spec.seed)
    s_inv = solve(s_mat, identity(n), cfg)
    a = s_mat @ jmat @ s_inv

    sp = spectrum_from_data(
        [value for value, _ in entries],
        [sum(sizes) for _, sizes in entries],
        [max(sizes) for _, sizes in entries],
        n=n,
        cfg=cfg,
        exponents="minimal",
    )

    parts = {}
    for k, (value, sizes) in enumerate(entries, start=1):
        selector = np.zeros((n, n), dtype=complex)
        for i in positions[k - 1]:
            selector[i, i] = 1.0
        nilpotent = jmat - value * identity(n)
        pattern = selector
        for j in range(max(sizes)):
            if j > 0:
                pattern = nilpotent @ pattern / j
            parts[(k, j)] = s_mat @ pattern @ s_inv
    return a, ComponentSet(source=a, spectrum=sp, parts=parts), sp


def case_document(spec: JordanSpec, cfg: ToleranceConfig | None = None) -> dict:
    """A constructed case as a CLI-ready matrix document.

    The document carries the built matrix plus its exactly known spectrum
    block, so ``--use-given-spectrum`` runs bypass the eigenvalue solver —
    the intended route for defective test cases whose numerical eigenvalues
    scatter beyond any reasonable clustering radius.
    """
    a, _, sp = build_case(spec, cfg)
    records = [
        {"value": v, "multiplicity": m, "index": nu}
        for v, m, nu in zip(sp.eigenvalues, sp.multiplicities, sp.indices)
    ]
    return document_payload(a, records)


def _generalized_nullspace(a: np.ndarray, lam: complex, nu: int, cfg: ToleranceConfig) -> np.ndarray:
    """Orthonormal columns spanning the nullspace of ``(a - lam I)^nu``.

    The shifted matrix is normalized to unit Frobenius norm before powering
    (the nullspace is scale-invariant), so a power whose largest singular
    value sits at the noise floor is recognized as the numerically zero map
    — the whole space is then the nullspace, as happens for nilpotent
    matrices built in floating point.
    """
    n = a.shape[0]
    shifted = a - lam * identity(n)
    norm = float(np.linalg.norm(shifted, "fro"))
    if norm <= cfg.rank_rel_threshold * max(1.0, float(np.linalg.norm(a, "fro"))):
        # a is lam * I up to the noise of its own construction
        return identity(n)
    _, sv, vh = np.linalg.svd(np.linalg.matrix_power(shifted / norm, nu))
    if sv[0] <= cfg.rank_rel_threshold:
        rank = 0
    else:
        rank = int(np.count_nonzero(sv > cfg.rank_rel_threshold * sv[0]))
    return vh[rank:].conj().T


def components_by_nullspace(a, sp: Spectrum, cfg: ToleranceConfig | None = None) -> ComponentSet:
    """Components from generalized-eigenspace bases (textbook definition).

    For each eigenvalue, an orthonormal basis of the nullspace of
    ``(A - lam_k I)^index_k`` is computed by SVD; stacking all bases gives a
    square change-of-basis V, and the projector at position k is
    ``V @ D_k @ V^-1`` with D_k selecting that eigenvalue's columns. Higher
    orders follow as ``(1/j!) (A - lam_k I)^j @ Z_k0``.
    """
    a = as_matrix(a)
    cfg = cfg or DEFAULT_TOLERANCES
    _check_pair(a, sp)
    n = a.shape[0]
    eye = identity(n)

    bases = []
    for k in range(1, sp.s + 1):
        bases.append(_generalized_nullspace(a, sp.eigenvalues[k - 1], sp.indices[k - 1], cfg))
    widths = [b.shape[1] for b in bases]
    if sum(widths) != n:
        raise PreconditionError(
            f"generalized eigenspace dimensions {widths} sum to {sum(widths)}, not {n}: "
            "the spectrum's indices or clustering are inconsistent with this matrix"
        )
    stacked = np.hstack(bases)
    try:
        stacked_inv = solve(stacked, eye, cfg)
    except SingularMatrixError as exc:
        raise PreconditionError(
            "stacked generalized-eigenspace basis is singular: the spectrum's "
            "indices or clustering are inconsistent with this matrix"
        ) from exc

    parts = {}
    offset = 0
    for k in range(1, sp.s + 1):
        selector = np.zeros((n, n), dtype=complex)
        for i in range(offset, offset + widths[k - 1]):
            selector[i, i] = 1.0
        offset += widths[k - 1]
        z0 = stacked @ selector @ stacked_inv
        shifted = a - sp.eigenvalues[k - 1] * eye
        parts[(k, 0)] = z0
        acc = z0
        for j in range(1, sp.indices[k - 1]):
            acc = shifted @ acc / j
            parts[(k, j)] = acc
    return ComponentSet(source=a, spectrum=sp, parts=parts)


def lagrange_projector(a, sp: Spectrum, k: int, cfg: ToleranceConfig | None = None) -> np.ndarray:
    """Classical Lagrange-product projector, for diagonalizable matrices only.

    Requires every index to equal 1, and evaluates
    ``prod_{i != k} (A - lam_i I) / (lam_k - lam_i)`` — the textbook
    interpolation form that the general component product reduces to in
    this case. Agrees with ``component(a, sp, k, 0)`` to working accuracy.
    """
    a = as_matrix(a)
    cfg = cfg or DEFAULT_TOLERANCES
    _check_pair(a, sp)
    sp._check_position(k)
    bad = [i + 1 for i, nu in enumerate(sp.indices) if nu != 1]
    if bad:
        raise PreconditionError(
            f"Lagrange projector needs every index equal to 1; positions {bad} violate that"
        )
    lam_k = sp.eigenvalues[k - 1]
    eye = identity(a.shape[0])
    z = eye
    for pos in range(sp.s):
        if pos == k - 1:
            continue
        lam_i = sp.eigenvalues[pos]
        z = z @ ((a - lam_i * eye) / (lam_k - lam_i))
        _guard(frob(z), cfg, "running product")
    return z
