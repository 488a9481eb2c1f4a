"""Compare the command line output of two source trees on the benchmark documents.

Run from the repository root::

    python3 tools/same_bytes.py PARENT_SRC CHANGE_SRC [--workloads desk,dense,chains] [--seeds 7-9]

Each ``*_SRC`` is a ``src`` directory holding a ``speccomp`` package. The
documents are built once per workload and seed by ``bench/workloads.build``
at the benchmark's ``run_seconds``, so they are the benchmark's own; then
every document runs as ``python -m speccomp`` from both trees, in the same
directory and with one BLAS thread, as the benchmark runs it. Every document
whose stdout, stderr or exit code differs is listed, and the exit status is
1 if there is any, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 300.0


def seeds(text: str) -> list:
    """The seeds of a ``--seeds`` value: comma-separated items, each one seed or an
    inclusive ``lo-hi`` range, so ``7-9,11`` is 7, 8, 9, 11. A bad item is a usage
    error (exit 2), as argparse reports an ``ArgumentTypeError``."""
    out = []
    for item in text.split(","):
        match = re.fullmatch(r"(\d+)(?:-(\d+))?", item)
        if not match or int(match[2] or match[1]) < int(match[1]):
            raise argparse.ArgumentTypeError(f"{item!r} is not a seed or a lo-hi range of seeds")
        out += range(int(match[1]), int(match[2] or match[1]) + 1)
    return out


def _env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(src)
    return env


def _run(env: dict, argv: list, cwd: Path) -> tuple:
    proc = subprocess.run([sys.executable, "-m", "speccomp", *argv], env=env, cwd=cwd,
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workloads", default="desk,dense,chains")
    parser.add_argument("--seeds", type=seeds, default="7-9", help="e.g. 7-9, 3,5,8 or 7-9,11")
    args = parser.parse_args(argv)
    trees = [args.parent_src.resolve(), args.change_src.resolve()]
    for src in trees:
        if not (src / "speccomp" / "__init__.py").is_file():
            parser.error(f"{src} holds no speccomp package")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    envs = [_env(src) for src in trees]
    compared, differ = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for workload in args.workloads.split(","):
            for seed in args.seeds:
                docs = workloads.build(workload, seed, seconds, work / f"{workload}-{seed}")
                for doc in docs:
                    old, new = (_run(env, doc.argv, work) for env in envs)
                    compared += 1
                    what = [name for name, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                            if a != b]
                    if what:
                        differ.append(f"{doc.id} (seed {seed})")
                        print(f"differs: {doc.id} seed {seed}: {', '.join(what)} "
                              f"(exit {old[0]} -> {new[0]})", flush=True)
                print(f"{workload} seed {seed}: {len(docs)} documents compared", flush=True)
    print(f"same_bytes: {compared - len(differ)} of {compared} documents identical; "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
