"""speccomp benchmark: CLI and API time per document on one workload.

Usage, from the repository root::

    python3 bench/run.py --workload desk|dense|chains --seed N --seconds S --trace 0|1

The load is a closed loop with one client and one document at a time.
``--trace 0`` times every document as a fresh ``python -m speccomp``
process (the CLI pass) and, between those, the library calls the same
subcommand makes, in this process and after a warm-up (the API samples,
spread over the whole pass); it prints the end-to-end metrics.
``--trace 1`` runs the CLI pass, then calls ``speccomp.cli.main`` on every
document in this process, once untraced and once with the per-layer
wrappers of ``spans.py`` installed; it prints the per-layer metrics. Every exit-0
output is checked against independent truth (``checks.py``) outside the
timed region; failures are counted, never fatal. The last stdout line is
one JSON object; a run record with the environment goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

# BLAS threads for the children and for this process (set before numpy loads).
# One thread keeps runs steady on a shared 2-core machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 5
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "cli_p50_s": "s", "cli_tail_s": "s", "docs_per_s": "1/s", "api_p50_s": "s",
    "api_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_mb": "MB",
}

# Per-layer metric -> (end-to-end metric it should move, workload where it moves
# most / least).
LAYER_MAP = {
    "import.": ("setup_s, cli_p50_s", "desk, chains / dense"),
    "cli.": ("cli_p50_s, output_mb, peak_rss_mb", "dense (components) / desk"),
    "documents.": ("cli_p50_s", "dense / chains"),
    "spectrum.": ("api_p50_s", "chains / desk"),
    "components.": ("api_p50_s, cli_p50_s", "dense / desk"),
    "applications.": ("api_p50_s", "chains (cesaro), dense (drazin) / desk"),
    "linalg.": ("api_p50_s", "dense (validation, powering), chains (rank) / desk"),
    "trace.": ("-", "all"),
}

PROBE = r"""
import ctypes, json, sys
import numpy, scipy, speccomp
blas = []
with open("/proc/self/maps") as maps:
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
for lib in libs:
    handle = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(handle, sym):
            blas.append({"library": lib.rsplit("/", 1)[-1], "threads": getattr(handle, sym)()})
            break
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


def tail(samples) -> tuple:
    """(value, percentile, count): the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples there is no such percentile and the maximum
    is reported as p100.
    """
    xs = sorted(samples)
    if len(xs) < 11:
        return xs[-1], 100.0, len(xs)
    rank = len(xs) - 10
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs)


def child_env(src: Path) -> dict:
    """The children's environment: absolute PYTHONPATH, fixed BLAS threads."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(src.resolve())
    return env


def run_child(argv, env, cwd, stdout, stderr) -> tuple:
    """(wall seconds, exit code, peak RSS in MB) of one child process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def cli_pass(docs, env, work, tick) -> tuple:
    """Run every document as ``python -m speccomp``; (records, set-up samples).

    ``SETUP_REPEATS`` fresh ``import speccomp`` interpreters are spread evenly
    through the pass, and ``tick(done)`` runs after each document, so every
    metric of a run is timed over the same stretch of machine load.
    """
    setup_at = Counter(k * len(docs) // SETUP_REPEATS for k in range(SETUP_REPEATS))
    records, setup = [], []
    for i, doc in enumerate(docs):
        for _ in range(setup_at[i]):
            setup.append(run_child([sys.executable, "-c", "import speccomp"], env, work,
                                   subprocess.DEVNULL, subprocess.DEVNULL)[0])
        out, err = work / f"{doc.id}.out", work / f"{doc.id}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            wall, code, rss = run_child([sys.executable, "-m", "speccomp", *doc.argv],
                                        env, work, fo, fe)
        records.append({"id": doc.id, "wall": wall, "exit": code, "rss_mb": rss,
                        "bytes": out.stat().st_size})
        tick(i + 1)
    return records, setup


def check_outputs(docs, records, work, workload, checks) -> None:
    """Add ``deviation``, ``wrong`` and ``crashed`` to each CLI record."""
    for doc, rec in zip(docs, records):
        rec["crashed"] = "Traceback" in (work / f"{doc.id}.err").read_text(errors="replace")
        rec["deviation"] = None
        rec["wrong"] = False
        if rec["exit"] != 0:
            continue
        try:
            dev = checks.check(doc, (work / f"{doc.id}.out").read_text(encoding="utf-8"))
        except (ValueError, KeyError, TypeError) as exc:
            print(f"unreadable output of {doc.id}: {exc!r}", file=sys.stderr)
            dev = float("inf")
        rec["deviation"] = dev
        rec["wrong"] = not dev <= checks.tolerance(workload, doc)


def _spectrum(sc, m, records, doc, cfg):
    if doc.given:
        return sc.spectrum_from_data(
            [r["value"] for r in records], [r["multiplicity"] for r in records],
            [r["index"] for r in records], n=m.shape[0], cfg=cfg, exponents=doc.policy)
    return sc.analyze(m, cfg, exponents=doc.policy)


def _projector(sc, m, sp, cfg):
    return sc.eigenprojection_residuals(m, sp, sc.eigenprojection_zero(m, sp, cfg))


def _components(sc, m, sp, cfg):
    return sc.all_components(m, sp, cfg).residuals()


def _drazin(sc, m, sp, cfg):
    return sc.drazin_residuals(m, sc.drazin_inverse(m, sp, cfg), sp.ind_a)


def _cesaro(sc, m, sp, cfg):
    return sc.cesaro_residuals(m, sc.cesaro_limit(m, cfg))


# The library calls each subcommand makes after its spectrum, as in speccomp.cli.
API_CALLS = {"spectrum": lambda sc, m, sp, cfg: {}, "projector": _projector,
             "components": _components, "drazin": _drazin, "cesaro": _cesaro}


def api_call(sc, doc) -> tuple:
    """(seconds, outcome as the CLI's exit code) of one document in this process.

    Parsing the document is outside the timed region; there is no render.
    """
    cfg = sc.DEFAULT_TOLERANCES
    matrix, records = sc.documents.load_document(doc.path)
    start = time.perf_counter()
    try:
        m = sc.as_matrix(matrix)
        sp = _spectrum(sc, m, records, doc, cfg)
        residuals = API_CALLS[doc.command](sc, m, sp, cfg)
        code = 4 if max(residuals.values(), default=0.0) > cfg.verify_tol else 0
    except sc.InputFormatError:
        code = 1
    except sc.PreconditionError:
        code = 2
    except sc.ConditioningError:
        code = 3
    return time.perf_counter() - start, code


def warm_up(docs, call) -> None:
    """One untimed call per distinct kind of document, so lazy set-up is done."""
    seen = set()
    for doc in docs:
        kind = (doc.command, doc.given, doc.csv)
        if kind not in seen:
            seen.add(kind)
            call(doc)


class _Sink:
    """A text stream that discards what is written to it."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def main_call(sc, doc) -> tuple:
    """(seconds, exit code) of ``speccomp.cli.main`` on one document, output discarded."""
    sink = _Sink()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = sc.cli.main(doc.argv)
        except SystemExit as exc:
            code = exc.code
    return time.perf_counter() - start, code


class ApiSampler:
    """Times each document's API calls at moments spread over the whole CLI pass.

    ``tick(done)`` runs after the ``done``-th of ``total`` CLI documents. It
    calls, once each, every document whose timed calls so far add up to less
    than ``budget * done / total`` seconds; the first tick calls every
    document. So a document that takes milliseconds is called on every tick,
    one that takes a fifth of the budget about five times, evenly through
    the pass, and one that takes longer than the budget once. A document's
    API time is the median of its calls, which averages the machine's speed
    over the run instead of taking it at one moment. The garbage collector
    is off while a tick runs, as in ``timeit``.
    """

    def __init__(self, sc, docs, budget: float):
        self.sc, self.docs, self.budget = sc, docs, budget
        self.calls = {doc.id: [] for doc in docs}

    def tick(self, done: int) -> None:
        share = self.budget * done / len(self.docs)
        gc.collect()
        gc.disable()
        try:
            for doc in self.docs:
                calls = self.calls[doc.id]
                if not calls or sum(c[0] for c in calls) < share:
                    calls.append(api_call(self.sc, doc))
        finally:
            gc.enable()

    def record(self, doc) -> dict:
        calls = self.calls[doc.id]
        return {"api_s": statistics.median(c[0] for c in calls), "api_calls": len(calls),
                "in_process": sorted({c[1] for c in calls})}


def main_passes(sc, tracer, docs, records) -> None:
    """Call ``cli.main`` on every document untraced, then again traced.

    Each pass runs back to back, after a warm-up of each kind of document.
    The wrappers are installed once for the traced pass: installing them
    per call would make each call pay for the interpreter re-specializing
    the patched lookups. The warm-up's spans are dropped.
    """
    warm_up(docs, lambda d: main_call(sc, d))
    for doc, rec in zip(docs, records):
        rec["main_s"], code = main_call(sc, doc)
        rec["in_process"].append(code)
    tracer.install()
    try:
        warm_up(docs, lambda d: main_call(sc, d))
        tracer.spans.clear()
        tracer.parts.clear()
        for doc, rec in zip(docs, records):
            tracer.doc = doc.id
            rec["traced_main_s"], code = main_call(sc, doc)
            rec["in_process"].append(code)
    finally:
        tracer.uninstall()


def environment(root: Path, src: Path, env: dict, seed: int) -> dict:
    """The run's settings and versions, from a child with the children's environment.

    The child imports speccomp, which also compiles its bytecode before any
    timed run, as an installed package has it.
    """
    probe = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=root,
                           capture_output=True, text=True, timeout=60, check=True)
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": BLAS_ENV,
        **json.loads(probe.stdout),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _tail_note(name, samples) -> str:
    _, pct, count = tail(samples)
    return f"{name} is p{pct:.1f} of {count} samples"


def run(args) -> int:
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "speccomp" / "__init__.py").is_file():
        print(f"error: {src / 'speccomp'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(src))
    import checks
    import spans
    import workloads

    import speccomp as sc
    import speccomp.cli  # noqa: F401  (main_call uses sc.cli)

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    env = child_env(src)
    try:
        docs = workloads.build(args.workload, args.seed, args.seconds, work)
        if args.max_docs:
            docs = docs[:args.max_docs]
        # The same shuffle for every seed spreads each kind of document over
        # the pass, so a slow stretch of the machine does not fall on one kind.
        random.Random(0).shuffle(docs)
        record = {"workload": args.workload, "trace": args.trace,
                  "recipe": workloads.recipe(args.workload, args.seconds),
                  "why": workloads.WHY[args.workload],
                  "environment": environment(root, src, env, args.seed)}
        print(f"workload {args.workload}: {record['recipe']}")
        print(f"why: {record['why']}")
        print(f"environment: {json.dumps(record['environment'])}")

        phase = {"start": time.perf_counter()}
        if args.trace:
            imports = spans.import_times(env, work, IMPORTTIME_REPEATS)
            phase["passes"] = time.perf_counter()
            cli, setup = cli_pass(docs, env, work, lambda done: None)
            for rec in cli:
                rec["in_process"] = []
            tracer = spans.Tracer()
            main_passes(sc, tracer, docs, cli)
            phase["checks"] = time.perf_counter()
            check_outputs(docs, cli, work, args.workload, checks)
            tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
            metrics = {**tracer.metrics(len(docs)), **imports}
            setup_s = statistics.median(setup)
            metrics["trace.overhead_share"] = (sum(r["traced_main_s"] for r in cli)
                                               / sum(r["main_s"] for r in cli) - 1.0)
            metrics["trace.unaccounted_share"] = statistics.median(
                (r["wall"] - setup_s - r["main_s"]) / r["wall"] for r in cli)
            units = {m: ("count" if m.endswith(("_calls", ".parts")) else
                         "1" if m.endswith("_share") else "s") for m in metrics}
        else:
            sampler = ApiSampler(sc, docs, workloads.API_BUDGET_S[args.workload])
            warm_up(docs, lambda d: api_call(sc, d))
            phase["passes"] = time.perf_counter()
            cli, setup = cli_pass(docs, env, work, sampler.tick)
            for doc, rec in zip(docs, cli):
                rec.update(sampler.record(doc))
            phase["checks"] = time.perf_counter()
            check_outputs(docs, cli, work, args.workload, checks)
            walls = [r["wall"] for r in cli]
            api = [r["api_s"] for r in cli]
            ok = sum(1 for r in cli if r["exit"] == 0 and not r["wrong"])
            metrics = {
                "cli_p50_s": statistics.median(walls),
                "cli_tail_s": tail(walls)[0],
                "docs_per_s": ok / sum(walls),
                "api_p50_s": statistics.median(api),
                "api_tail_s": tail(api)[0],
                "setup_s": statistics.median(setup),
                "peak_rss_mb": max(r["rss_mb"] for r in cli),
                "output_mb": sum(r["bytes"] for r in cli) / 1e6,
            }
            units = END_TO_END_UNITS
            calls = [r["api_calls"] for r in cli]
            print(f"{_tail_note('cli_tail_s', walls)}; {_tail_note('api_tail_s', api)}; "
                  f"each api sample is the median of {min(calls)} to {max(calls)} calls "
                  f"({sum(calls)} in all)")

        phase["end"] = time.perf_counter()
        failed = sum(1 for r in cli if r["exit"] != 0 or r["wrong"])
        wrong = [r["id"] for r in cli if r["wrong"]]
        crashed = [r["id"] for r in cli if r["crashed"]]
        flips = {r["id"]: [r["exit"], *r["in_process"]] for r in cli
                 if len({r["exit"], *r["in_process"]}) > 1}
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
        print(f"fail_share {failed / len(cli):.6g} 1 ({failed} of {len(cli)} documents)")
        print(f"exit codes: {dict(sorted(Counter(r['exit'] for r in cli).items()))}")
        print(f"wrong outputs (exit 0, outside oracle tolerance): {wrong or 'none'}")
        print(f"crashes (traceback): {crashed or 'none'}")
        print(f"outcome flips (CLI, then in-process): {flips or 'none'}")
        if args.trace:
            for prefix, (moves, where) in LAYER_MAP.items():
                print(f"layer {prefix.rstrip('.')}: moves {moves}; most / least on {where}")
            print(f"absent names: {tracer.absent or 'none'}")

        marks = list(phase.items())
        record.update(metrics=metrics, units=units, documents=cli, flips=flips,
                      attempted=len(cli), failed=failed,
                      phase_s={f"{a}-{b}": t1 - t0 for (a, t0), (b, t1) in zip(marks, marks[1:])})
        name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
        (out_dir / name).write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
        print(json.dumps({
            "correct": not wrong,
            "attempted": len(cli),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "dense", "chains"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="nominal CLI time of a run; fixes the number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-docs", type=int, default=0,
                        help="keep only the first N documents (self-test)")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
