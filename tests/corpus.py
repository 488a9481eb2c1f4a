"""Seeded corpora of constructed spectral cases, shared across test modules.

Eigenvalues are drawn from the nonzero Gaussian integers with |Re|,|Im| <= 3,
so distinct values are automatically separated by at least 1. Block sizes
stay <= 3 and total dimensions <= 8. Similarity seeds are pre-screened so
cond(S) stays moderate: the tolerances the tests assert (1e-8, 1e-6) measure
the formulas, not an unlucky similarity transform.
"""

import numpy as np

from speccomp import JordanSpec
from speccomp.oracle import integer_similarity

POOL = [complex(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]

COND_CAP = 25.0
MAX_DIM = 8
MAX_BLOCK = 3


def conditioned_seed(rng, n):
    """A seed whose integer similarity transform has cond <= COND_CAP."""
    while True:
        seed = int(rng.integers(0, 2**31))
        if np.linalg.cond(integer_similarity(n, seed)) <= COND_CAP:
            return seed


def _sizes(rng, total):
    sizes = []
    while total > 0:
        s = int(rng.integers(1, min(total, MAX_BLOCK) + 1))
        sizes.append(s)
        total -= s
    return sizes


def random_spec(rng, include_zero=False, nilpotent=False):
    """One random JordanSpec within the corpus constraints."""
    if nilpotent:
        blocks = [(0j, _sizes(rng, int(rng.integers(1, MAX_DIM + 1))))]
    else:
        s = int(rng.integers(1, 4))
        values = [0j] if include_zero else []
        for idx in rng.permutation(len(POOL)):
            if len(values) >= s:
                break
            values.append(POOL[idx])
        blocks = []
        remaining = MAX_DIM
        for i, v in enumerate(values):
            left = len(values) - i - 1
            cap = min(remaining - left, 4)
            total = int(rng.integers(1, cap + 1))
            remaining -= total
            blocks.append((v, _sizes(rng, total)))
    n = sum(sum(sizes) for _, sizes in blocks)
    return JordanSpec(blocks, seed=conditioned_seed(rng, n))


def corpus(count=200, master_seed=8675309):
    """The main seeded corpus: a mix of nonsingular, singular and nilpotent cases."""
    rng = np.random.default_rng(master_seed)
    specs = []
    for _ in range(count):
        nilpotent = rng.random() < 0.08
        include_zero = (not nilpotent) and rng.random() < 0.45
        specs.append(random_spec(rng, include_zero=include_zero, nilpotent=nilpotent))
    return specs


def rel_frob(x, t):
    """Relative Frobenius distance; absolute when the target is zero."""
    denom = np.linalg.norm(t, "fro")
    diff = float(np.linalg.norm(np.asarray(x) - np.asarray(t), "fro"))
    return diff / denom if denom > 0 else diff


def random_diagonalizable(rng, n_max=6, min_sep=0.5):
    """A random diagonalizable matrix with well separated distinct eigenvalues.

    Half the draws use a unitary similarity (normal matrices), half a
    moderately conditioned integer one.
    """
    n = int(rng.integers(2, n_max + 1))
    while True:
        lam = rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n)
        gaps = [abs(lam[i] - lam[j]) for i in range(n) for j in range(i + 1, n)]
        if min(gaps) >= min_sep:
            break
    if rng.random() < 0.5:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        v, _ = np.linalg.qr(g)
    else:
        v = integer_similarity(n, conditioned_seed(rng, n))
    return v @ np.diag(lam) @ np.linalg.inv(v)


def _stochastic(rows):
    return rows / rows.sum(axis=1, keepdims=True)


def random_stochastic(rng, n=5):
    """Row-stochastic matrix with strictly positive entries."""
    return _stochastic(rng.random((n, n)) + 0.05).astype(complex)


def periodic_chain(rng, n, period):
    """Classes C_0..C_{d-1} of n // d states each; C_i moves only to C_{i+1 mod d}."""
    m = n // period
    p = np.zeros((n, n))
    for i in range(period):
        j = (i + 1) % period
        p[i * m:(i + 1) * m, j * m:(j + 1) * m] = _stochastic(rng.random((m, m)) + 0.05)
    return p.astype(complex)


def reducible_chain(rng, closed, transient):
    """Positive closed classes of the given sizes plus ``transient`` >= 1
    states that leak into all of them."""
    n = sum(closed) + transient
    p = np.zeros((n, n))
    start = 0
    for size in closed:
        p[start:start + size, start:start + size] = _stochastic(rng.random((size, size)) + 0.05)
        start += size
    rows = rng.random((transient, n)) + 0.05
    rows[:, start:] *= 2.0 / transient
    p[start:] = _stochastic(rows)
    return p.astype(complex)


def cesaro_average(p, m):
    """Independent averaging oracle: (1/m) * sum of the first m powers of p."""
    p = np.asarray(p, dtype=complex)
    acc = np.zeros_like(p)
    power = np.eye(p.shape[0], dtype=complex)
    for _ in range(m):
        acc += power
        power = power @ p
    return acc / m


def lost_zero_matrix():
    """``S J S^-1``: J a 2x2 Jordan block at 0 beside 2 and -1+1j, S a complex
    Gaussian from ``default_rng(3)`` (condition number 20)."""
    rng = np.random.default_rng(3)
    s = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    j = np.diag([0, 0, 2, -1 + 1j])
    j[0, 1] = 1
    return s @ j @ np.linalg.inv(s)
