"""Paired in-process A/B of the library calls of two source trees on the benchmark documents.

Run from the repository root::

    python3 tools/ab_api.py PARENT_SRC CHANGE_SRC [--workloads desk,dense,chains] [--seeds 7-9] [--rounds 21]

Each ``*_SRC`` is a ``src`` directory holding a ``speccomp`` package; each is
imported in this one process under its own name, so ``src src`` compares a
tree with itself. The documents are built once per workload and seed by
``bench/workloads.build`` at the benchmark's ``run_seconds``. Every round
calls, for each document and for both trees in turn (the order alternates),
what ``bench/run.py``'s ``api_call`` times: ``as_matrix``, the spectrum, and
the subcommand's ``API_CALLS`` entry. Both trees meet the same machine speed,
so a ratio holds where a 1.5x swing between runs hides it.

Per document it prints each tree's median whole call and its split into the
spectrum, the command and the residuals (read by timing the residual entry
points), and the ratio change / parent; per workload and seed, the ratio of
the median documents (as ``api_p50_s`` reads it) and the median per-document
ratio. The exit status is 1 if any document's exit code, error message or
residual ``repr`` differs between the trees, else 0. No timing is asserted.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from same_bytes import BLAS_ENV, ROOT, seeds  # the sibling tool: a script's own directory leads sys.path

STAGES = ("whole", "spectrum", "command", "residuals")
# the CLI's exit code for each error bench/run.py's api_call catches
CODES = (("InputFormatError", 1), ("PreconditionError", 2), ("ConditioningError", 3))


def load_tree(src: Path, name: str):
    """The ``speccomp`` package under ``src``, imported as ``name``, with its
    ``documents`` module loaded and its residual entry points timed."""
    spec = importlib.util.spec_from_file_location(
        name, src / "speccomp" / "__init__.py", submodule_search_locations=[str(src / "speccomp")])
    sc = importlib.util.module_from_spec(spec)
    sys.modules[name] = sc
    spec.loader.exec_module(sc)
    importlib.import_module(f"{name}.documents")
    sc.ab_residual_s = [0.0]

    def timed(fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sc.ab_residual_s[0] += time.perf_counter() - start
        return wrapper

    for fn in ("eigenprojection_residuals", "drazin_residuals", "cesaro_residuals"):
        setattr(sc, fn, timed(getattr(sc, fn)))
    sc.ComponentSet.residuals = timed(sc.ComponentSet.residuals)
    return sc


def call(run, sc, doc, parsed) -> tuple:
    """({stage: seconds}, outcome) of one document's API call, as ``run.api_call``
    makes it; the outcome is the exit code and the residual repr or error text."""
    cfg = sc.DEFAULT_TOLERANCES
    matrix, records = parsed
    sc.ab_residual_s[0] = 0.0
    start = time.perf_counter()
    mid = None
    try:
        m = sc.as_matrix(matrix)
        sp = run._spectrum(sc, m, records, doc, cfg)
        mid = time.perf_counter()
        residuals = run.API_CALLS[doc.command](sc, m, sp, cfg)
        end = time.perf_counter()
        code = 4 if max(residuals.values(), default=0.0) > cfg.verify_tol else 0
        outcome = (code, repr(residuals))
    except tuple(getattr(sc, name) for name, _ in CODES) as exc:
        end = time.perf_counter()
        code = next(c for name, c in CODES if isinstance(exc, getattr(sc, name)))
        outcome = (code, f"{type(exc).__name__}: {exc}")
    mid = end if mid is None else mid
    res = sc.ab_residual_s[0]
    return {"whole": end - start, "spectrum": mid - start, "command": end - mid - res,
            "residuals": res}, outcome


def _us(x: float) -> str:
    return f"{x * 1e6:.1f}"


def compare(run, trees, docs, rounds: int, label: str) -> tuple:
    """Time every document on both trees for ``rounds`` rounds; print the
    per-document and summary lines; return (per-tree median wholes, differing ids)."""
    parsed = [[sc.documents.load_document(doc.path) for doc in docs] for sc in trees]
    times = [[{s: [] for s in STAGES} for _ in docs] for _ in trees]
    outcomes = [[set() for _ in docs] for _ in trees]
    for r in range(rounds):
        gc.collect()
        gc.disable()
        try:
            for i, doc in enumerate(docs):
                for t in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                    split, outcome = call(run, trees[t], doc, parsed[t][i])
                    outcomes[t][i].add(outcome)
                    for stage, seconds in split.items():
                        times[t][i][stage].append(seconds)
        finally:
            gc.enable()
    medians = [[{s: statistics.median(v) for s, v in per.items()} for per in tree] for tree in times]
    differ = []
    for i, doc in enumerate(docs):
        old, new = medians[0][i], medians[1][i]
        same = outcomes[0][i] == outcomes[1][i] and len(outcomes[0][i]) == 1
        if not same:
            differ.append(f"{doc.id} ({label})")
        codes = "/".join(str(sorted(o)[0][0]) for o in (outcomes[0][i], outcomes[1][i]))
        stages = "; ".join(f"{s} {_us(old[s])} -> {_us(new[s])}" for s in STAGES[1:])
        print(f"{doc.id} {label}: whole {_us(old['whole'])} -> {_us(new['whole'])} us "
              f"({new['whole'] / old['whole']:.3f}x); {stages}; exit {codes}"
              f"{'' if same else '; OUTCOME DIFFERS'}", flush=True)
    wholes = [[m["whole"] for m in tree] for tree in medians]
    p50 = [statistics.median(w) for w in wholes]
    ratios = [b / a for a, b in zip(*wholes)]
    stage_p50 = "; ".join(f"{s} {_us(statistics.median(m[s] for m in medians[0]))} -> "
                          f"{_us(statistics.median(m[s] for m in medians[1]))}" for s in STAGES[1:])
    print(f"{label}: api p50 {_us(p50[0])} -> {_us(p50[1])} us ({p50[1] / p50[0]:.3f}x); median "
          f"per-document ratio {statistics.median(ratios):.3f}x; stage medians (us) {stage_p50}; "
          f"{len(docs)} documents, {rounds} rounds", flush=True)
    return wholes, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workloads", default="desk,dense,chains")
    parser.add_argument("--seeds", type=seeds, default="7-9", help="e.g. 7-9, 3,5,8 or 7-9,11")
    parser.add_argument("--rounds", type=int, default=21, help="timed calls per document and tree")
    args = parser.parse_args(argv)
    srcs = [args.parent_src.resolve(), args.change_src.resolve()]
    for src in srcs:
        if not (src / "speccomp" / "__init__.py").is_file():
            parser.error(f"{src} holds no speccomp package")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import run
    import workloads

    trees = [load_tree(src, name) for src, name in zip(srcs, ("ab_parent", "ab_change"))]
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    compared, differ = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workloads.split(","):
            pooled = [[], []]
            for seed in args.seeds:
                docs = workloads.build(workload, seed, seconds, Path(tmp) / f"{workload}-{seed}")
                for sc in trees:  # lazy set-up of each tree, untimed
                    for doc in docs:
                        call(run, sc, doc, sc.documents.load_document(doc.path))
                wholes, bad = compare(run, trees, docs, args.rounds, f"{workload} seed {seed}")
                compared += len(docs)
                differ += bad
                for t in (0, 1):
                    pooled[t] += wholes[t]
            p50 = [statistics.median(w) for w in pooled]
            print(f"{workload}, all seeds: api p50 {_us(p50[0])} -> {_us(p50[1])} us "
                  f"({p50[1] / p50[0]:.3f}x) over {len(pooled[0])} documents", flush=True)
    print(f"ab_api: {compared - len(differ)} of {compared} documents with the same exit code, "
          f"error text and residuals; {len(differ)} differ{': ' if differ else ''}{', '.join(differ)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
