"""Seeded document generators for the three benchmark workloads.

Each workload is a fixed template of documents ("a round"); the seed only
changes the matrices, never the commands, flags or sizes, so timings are
comparable across seeds. A run repeats the round ``rounds(workload,
seconds)`` times with fresh matrices. The program under test receives only
the written documents; the truth each document is checked against stays in
this process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from speccomp.documents import document_payload
from speccomp.oracle import JordanSpec, build_case, integer_similarity

WHY = {
    "desk": "n<=8 constructed Jordan, diagonalizable and chain cases: CLI time is interpreter start, "
            "import and document handling, so import and per-call overhead show here",
    "dense": "s=n distinct eigenvalues at n=16..64 (generic Gaussian, normal on a circle): the "
             "s(s-1)-factor product kernel, residuals and rendering dominate",
    "chains": "row-stochastic chains n=16..64 through cesaro: the numeric spectrum path (eigvals plus "
              "one rank search per eigenvalue) dominates and the kernel runs one product chain",
}

# Seconds one round takes, CLI runs and API calls, at the baseline commit (2
# cores, BLAS on one thread). A run holds as many whole rounds as fit in
# --seconds (at least one), so two commits run the same documents whatever
# their speed.
ROUND_SECONDS = {"desk": 9.0, "chains": 8.0, "dense": 65.0}

# Seconds of timed in-process calls each document gets over a run (see
# run.ApiSampler); a document that takes longer is called once.
API_BUDGET_S = {"desk": 0.8, "chains": 0.3, "dense": 0.6}

# Gaussian integers with |Re|, |Im| <= 3: distinct values are at least 1 apart.
POOL = [complex(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
COND_CAP = 25.0


@dataclass
class Doc:
    """One CLI invocation: ``speccomp <command> --input <path> <flags>``.

    ``truth`` holds what the check needs: ``eigenvalues``, ``multiplicities``,
    ``indices`` and ``parts`` ({(k, j): matrix}) when the answer is known
    exactly, or only ``matrix`` when an oracle computes it.
    """

    id: str
    command: str
    path: Path
    flags: list
    matrix: np.ndarray
    truth: dict = field(repr=False)

    @property
    def argv(self) -> list:
        return [self.command, "--input", str(self.path), *self.flags]

    @property
    def given(self) -> bool:
        return "--use-given-spectrum" in self.flags

    @property
    def policy(self) -> str:
        return "worst_case" if "worst-case" in self.flags else "minimal"

    @property
    def csv(self) -> bool:
        return "csv" in self.flags


def rounds(workload: str, seconds: float) -> int:
    return max(1, int(seconds // ROUND_SECONDS[workload]))


def build(workload: str, seed: int, seconds: float, workdir: Path) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    make = {"desk": _desk_round, "dense": _dense_round, "chains": _chains_round}[workload]
    docs = []
    for r in range(rounds(workload, seconds)):
        rng = np.random.default_rng([seed, r])
        for i, (command, flags, matrix, truth, records) in enumerate(make(rng)):
            doc_id = f"{workload}-r{r}-{i}-{command}"
            path = workdir / f"{doc_id}.json"
            path.write_text(json.dumps(document_payload(matrix, records)), encoding="utf-8")
            docs.append(Doc(doc_id, command, path, list(flags), matrix, truth))
    return docs


def recipe(workload: str, seconds: float) -> str:
    lines = {
        "desk": "per round: 6 build_case cases n=8 with --use-given-spectrum (components minimal "
                "json, components worst-case csv, projector and drazin with a zero eigenvalue, "
                "nilpotent projector worst-case csv, spectrum; block shapes in DESK_TEMPLATE), "
                "3 diagonalizable build_case cases n=6 on the numeric path (components, drazin, "
                "spectrum), positive chains n=6 and n=5 (cesaro json, csv); eigenvalues drawn "
                "from the Gaussian integers with |Re|,|Im| <= 3, integer similarity with cond <= 25",
        "dense": "per round: n in 16,32,48,64 x {generic complex Gaussian, normal with eigenvalues "
                 "on the unit circle} x {spectrum, projector, drazin, components}, numeric path",
        "chains": "per round: cesaro on positive n=16, 3-periodic n=33, reducible n=48 (3 closed "
                  "classes + 8 transient), positive n=40, positive n=64, 4-periodic n=64, "
                  "reducible n=64 (2 closed classes + 16 transient)",
    }[workload]
    return f"{lines}; {rounds(workload, seconds)} round(s), seed -> numpy default_rng([seed, round])"


# --- desk -----------------------------------------------------------------

def _conditioned_seed(rng, n: int) -> int:
    while True:
        seed = int(rng.integers(0, 2**31))
        if np.linalg.cond(integer_similarity(n, seed)) <= COND_CAP:
            return seed


def _case(rng, shape: list, zero: bool):
    """A build_case matrix whose Jordan blocks have the given sizes.

    ``shape`` lists the block sizes of each distinct eigenvalue; the first is
    0 when ``zero``, the others are drawn from POOL.
    """
    values = ([0j] if zero else []) + [POOL[i] for i in rng.permutation(len(POOL))]
    blocks = list(zip(values, shape))
    n = sum(sum(sizes) for sizes in shape)
    a, truth, sp = build_case(JordanSpec(blocks, seed=_conditioned_seed(rng, n)))
    records = [
        {"value": v, "multiplicity": m, "index": nu}
        for v, m, nu in zip(sp.eigenvalues, sp.multiplicities, sp.indices)
    ]
    known = {
        "eigenvalues": list(sp.eigenvalues),
        "multiplicities": list(sp.multiplicities),
        "indices": list(sp.indices),
        "parts": dict(truth.parts),
    }
    return a, known, records


# (command, flags, Jordan block sizes per eigenvalue, first eigenvalue is 0).
# The shapes are fixed so that work and output size do not depend on the seed.
GIVEN = ["--use-given-spectrum"]
DESK_TEMPLATE = [
    ("components", GIVEN, [[3, 1], [2], [1, 1]], False),
    ("components", GIVEN + ["--exponents", "worst-case", "--format", "csv"], [[2, 2], [3, 1]], False),
    ("projector", GIVEN, [[2, 1], [3], [1, 1]], True),
    ("drazin", GIVEN + ["--exponents", "worst-case"], [[3], [2, 1], [2]], True),
    ("projector", GIVEN + ["--exponents", "worst-case", "--format", "csv"], [[3, 3, 2]], True),
    ("spectrum", GIVEN, [[1, 1], [3, 2], [1]], True),
    ("components", [], [[1]] * 6, False),
    ("drazin", [], [[1]] * 6, False),
    ("spectrum", [], [[1]] * 6, False),
]


def _desk_round(rng):
    for command, flags, shape, zero in DESK_TEMPLATE:
        a, known, records = _case(rng, shape, zero)
        yield command, flags, a, known, records
    for n, flags in ((6, []), (5, ["--format", "csv"])):
        p = _positive_chain(rng, n)
        yield "cesaro", flags, p, {"matrix": p}, None


# --- dense ----------------------------------------------------------------

def _generic(rng, n: int):
    a = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
    return a, {"matrix": a}


def _normal_on_circle(rng, n: int):
    lam = np.exp(2j * np.pi * (np.arange(n) + rng.random()) / n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    a = (q * lam) @ q.conj().T
    parts = {(k + 1, 0): np.outer(q[:, k], q[:, k].conj()) for k in range(n)}
    known = {"eigenvalues": list(lam), "multiplicities": [1] * n, "indices": [1] * n, "parts": parts}
    return a, known


def _dense_round(rng):
    for n in (16, 32, 48, 64):
        for family in (_generic, _normal_on_circle):
            a, known = family(rng, n)
            for command in ("spectrum", "projector", "drazin", "components"):
                yield command, [], a, known, None


# --- chains ---------------------------------------------------------------

def _stochastic(block):
    return block / block.sum(axis=1, keepdims=True)


def _positive_chain(rng, n: int):
    return _stochastic(rng.random((n, n)) + 0.05).astype(complex)


def _periodic_chain(rng, n: int, period: int):
    """Classes C_0..C_{d-1} of equal size; C_i moves only to C_{i+1 mod d}."""
    m = n // period
    p = np.zeros((n, n))
    for i in range(period):
        j = (i + 1) % period
        p[i * m:(i + 1) * m, j * m:(j + 1) * m] = _stochastic(rng.random((m, m)) + 0.05)
    return p.astype(complex)


def _reducible_chain(rng, closed: list, transient: int):
    """Positive closed classes plus transient states that leak into all of them."""
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


def _chains_round(rng):
    chains = [
        _positive_chain(rng, 16),
        _periodic_chain(rng, 33, 3),
        _reducible_chain(rng, [16, 12, 12], 8),
        _positive_chain(rng, 40),
        _positive_chain(rng, 64),
        _periodic_chain(rng, 64, 4),
        _reducible_chain(rng, [24, 24], 16),
    ]
    for p in chains:
        yield "cesaro", [], p, {"matrix": p}, None
