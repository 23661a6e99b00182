#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

From the repository root::

    python3 perfbench/baseline.py --runs 10 [--workload campaign ...] \
        [--trace 0] [--out perfbench/trajectory.jsonl --label baseline]

Every run is ``perfbench/run.py`` in its own process with another seed.
For each workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` against the metric's bound from ``BENCHMARK.json``.
With ``--out`` the summary is appended as one JSON line: a trajectory
point that later measurements compare against.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=180,
    ).stdout.splitlines()
    host = next(
        (json.loads(line[len("host: "):]) for line in out
         if line.startswith("host: ")),
        None,
    )
    return {"host": host, "result": json.loads(out[-1])}


def summarise(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0, "n": len(values),
    }


def main(argv: Any = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workload", action="append",
        choices=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument("--out", help="append the summary to this JSONL file")
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    point: Dict[str, Any] = {
        "label": args.label,
        "date": datetime.date.today().isoformat(),
        "seconds": args.seconds, "trace": args.trace,
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "workloads": {},
    }
    for workload in workloads:
        values: Dict[str, List[float]] = {}
        failed = 0
        for seed in point["seeds"]:
            run = run_once(workload, seed, args.seconds, args.trace)
            point["host"] = run["host"]
            result = run["result"]
            failed += result["failed"] + (0 if result["correct"] else 1)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed={seed} " + " ".join(
                f"{name}={m['value']:.6g}"
                for name, m in result["metrics"].items()
                if name in bounds
            ), flush=True)
        summary = {name: summarise(v) for name, v in values.items()}
        point["workloads"][workload] = {"failed": failed, "metrics": summary}
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound and name != "setup_s" and s["spread"] > bound / 3:
                flag = "  <-- spread above a third of the bound"
            print(
                f"  {workload:13s} {name:26s} median={s['median']:<12.6g} "
                f"q1={s['q1']:<12.6g} q3={s['q3']:<12.6g} "
                f"spread={s['spread']:.4f} bound={bound}{flag}"
            )
    if args.out:
        with open(ROOT / args.out, "a") as fh:
            fh.write(json.dumps(point, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
