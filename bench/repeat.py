"""Repeat the benchmark over several seeds and summarize each metric.

Run from the repository root::

    python3 bench/repeat.py --seeds 1-10 [--workloads desk,dense,chains] [--trace 0|1] \
        [--out bench/results/NAME.json]

For every workload and metric it prints the median, the quartiles and the
spread (distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them), with each run's
attempted and failed counts and the environment of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs, values = [], {}
        for seed in _seeds(args.seeds):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            env = next(json.loads(x.split(": ", 1)[1]) for x in lines if x.startswith("environment: "))
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            summary.setdefault("environment", env)
        metrics = {name: {"unit": v["unit"], **summarize(v["values"])} for name, v in values.items()}
        summary["workloads"][workload] = {"runs": runs, "metrics": metrics}
        for name, m in metrics.items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {workload:7s} {name:28s} median {m['median']:.6g} {m['unit']:5s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {spread}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
