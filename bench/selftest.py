"""Self-test of the benchmark: one document per workload, both modes.

Run from the repository root::

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is printed, in the JSON
result line and on its own text line, with the unit the file gives it, and
that fail_share, the exit-code histogram and the environment record are
printed too. Exits 1 and lists the problems otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
                    "--seconds", "1", "--trace", str(trace), "--max-docs", "1"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] != 1:
                problems.append(f"{where}: bad result keys or count: {sorted(result)}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ: {sorted(set(got) ^ set(want))}")
            for name, unit in want.items():
                if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines):
                    problems.append(f"{where}: no text line for {name} in {unit}")
            for prefix in ("fail_share ", "exit codes: ", "environment: "):
                if not any(line.startswith(prefix) for line in lines):
                    problems.append(f"{where}: no '{prefix.strip()}' line")
    for problem in problems:
        print(problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
