#!/usr/bin/env python3
"""Run one benchmark workload; print its metrics as a JSON last line.

From the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced rounds of the same work and
prints the per-layer metrics.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the host fingerprint and a readable summary.  The program is
imported from ``src/`` next to this directory; without it the run fails
with exit code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / ".out"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: The imports a run pays before it can build a workload.
IMPORTS = "from perfbench import layers, workloads"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("campaign", "paper-scale", "service-drain"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the smoke test",
    )
    return parser.parse_args(argv)


def host_fingerprint() -> Dict[str, Any]:
    from repro.core.api import DEFAULT_ENGINE

    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "engine": DEFAULT_ENGINE,
        "machine": platform.machine(),
    }


def import_seconds(first: float) -> float:
    """Median import time: ``first`` (this process) plus fresh
    interpreters, so the import is measured ``SETUP_REPEATS`` times."""
    code = (
        f"import sys, time; sys.path[:0] = {[str(ROOT / 'src'), str(ROOT)]!r}; "
        f"t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    )
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=120,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Larger of this process's and any reaped child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1024 * 1024 if sys.platform == "darwin" else 1024
    return max(own, child) / scale


class Runner:
    """Drives one workload's rounds and tallies their outcomes."""

    def __init__(self, workload: Any) -> None:
        self.workload = workload
        self.outcomes: List[Any] = []

    def setup(self) -> float:
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.workload.setup()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def round(self, index: int, call=None) -> Tuple[float, Any]:
        """One timed round; ``call`` wraps the workload's round call."""
        gc.collect()
        self.workload.prepare_round(index)
        start = time.perf_counter()
        try:
            raw = (call or self.workload.run_round)(index)
        except Exception:  # noqa: BLE001 - a failing round is counted
            wall = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            from perfbench.workloads import RoundOutcome

            outcome = RoundOutcome(items=1, ops=0, failed=1)
        else:
            wall = time.perf_counter() - start
            outcome = self.workload.check_round(index, raw)
        self.outcomes.append(outcome)
        return wall, outcome

    @property
    def attempted(self) -> int:
        return sum(o.items for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)


def keep_going(start: float, seconds: float, done: int) -> bool:
    """Whether to start another round (or pair) after ``done`` of them:
    yes while it would end, on average, no later than ``seconds``
    after ``start``, so a run measures about ``seconds`` in total."""
    if not done:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done < seconds


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> Dict[str, float]:
    walls: List[float] = []
    start = time.perf_counter()
    while keep_going(start, seconds, len(walls)):
        walls.append(runner.round(len(walls))[0])
    wall = sum(walls)
    latencies = sorted(x for o in runner.outcomes for x in o.latencies)
    p90 = latencies[int(0.9 * (len(latencies) - 1))] * 1e3 if latencies else 0.0
    print(
        f"rounds={len(walls)} wall={wall:.3f}s items={runner.attempted} "
        f"latency samples={len(latencies)} p90={p90:.3f}ms"
    )
    return {
        "hunts_per_s": runner.attempted / wall,
        "ops_per_s": sum(o.ops for o in runner.outcomes) / wall,
        "hunt_ms_p50": statistics.median(latencies) * 1e3 if latencies else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - runner.failed / max(1, runner.attempted),
    }


def per_layer(
    runner: Runner, seconds: float, host: Dict[str, Any], work_dir: Path
) -> Dict[str, float]:
    from perfbench.layers import SELF_METRICS, patch_layers, round_metrics
    from perfbench.tracer import Tracer

    tracer = Tracer(str(work_dir))
    workload = runner.workload
    untraced: List[float] = []
    traced: List[float] = []
    rounds: List[Dict[str, float]] = []
    spans: List[Any] = []
    start = time.perf_counter()
    index = 0
    while keep_going(start, seconds, index):
        # The same work twice, alternating which side runs first.
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if not with_trace:
                untraced.append(runner.round(index)[0])
                continue
            tracer.install(patch_layers)
            try:
                wall, _ = runner.round(index, call=lambda i: tracer.call(
                    "bench.round", workload.run_round, (i,), {}
                ))
            finally:
                tracer.uninstall()
            traced.append(wall)
            taken = tracer.take()
            rounds.append(round_metrics(taken))
            spans.extend(taken)
        index += 1
    metrics = {
        name: statistics.fmean(r[name] for r in rounds) for name in rounds[0]
    }
    untraced_s = statistics.fmean(untraced)
    traced_s = statistics.fmean(traced)
    layer_self = sum(metrics[name] for name in SELF_METRICS)
    metrics.update({
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.accounted_frac": layer_self / untraced_s,
    })
    path = OUT_DIR / f"trace-{workload.name}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"host": host, "workload": workload.name,
                             "seed": workload.seed, "rounds": len(rounds)}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    print(f"pairs={index} spans={len(spans)} written to {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    start = time.perf_counter()
    from perfbench import layers, workloads  # noqa: F401 - as IMPORTS
    import_s = import_seconds(time.perf_counter() - start)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        host = host_fingerprint()
        print("host: " + json.dumps(host, sort_keys=True))
        workload = workloads.WORKLOADS[args.workload](
            args.seed, args.size, str(work_dir)
        )
        runner = Runner(workload)
        warmup_s = runner.setup()
        setup_s = import_s + warmup_s
        print(f"setup: import={import_s:.4f}s warm-up median={warmup_s:.4f}s")
        if args.trace:
            metrics = per_layer(runner, args.seconds, host, work_dir)
        else:
            metrics = end_to_end(runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units = load_units()
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def load_units() -> Dict[str, str]:
    """Metric units, as declared in ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
