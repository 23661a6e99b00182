"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench.tracer import self_shares  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_with_its_unit(workload: str, trace: str) -> None:
    proc = bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", trace, "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    host = json.loads(next(l for l in lines if l.startswith("host: "))[6:])
    assert set(host) >= {"cores", "python", "numpy", "engine"}
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace == "1":
        accounted = result["metrics"]["trace.accounted_frac"]["value"]
        assert 0.5 < accounted < 1.5
    else:
        for name in ("hunts_per_s", "ops_per_s", "hunt_ms_p50", "setup_s",
                     "peak_rss_mb", "ok_frac"):
            assert result["metrics"][name]["value"] > 0


EXACT_COUNTS = (
    "sim.runs", "sched.record_runs", "generator.calls", "core.checks",
    "analysis.pool_runs", "service.refreshes",
)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_named_counts_repeat_exactly(workload: str) -> None:
    counts = []
    for _ in range(2):
        proc = bench(
            "--workload", workload, "--seed", "4", "--seconds", "0.2",
            "--trace", "1", "--size", "tiny",
        )
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({name: metrics[name]["value"] for name in EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["sim.runs"] >= 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_inputs(workload: str, tmp_path: Path) -> None:
    make = WORKLOADS[workload]
    one, two = make(1, "tiny", str(tmp_path)), make(2, "tiny", str(tmp_path))
    assert one.inputs() != two.inputs()
    assert one.inputs() == make(1, "tiny", str(tmp_path)).inputs()


def test_paper_scale_seed_changes_program(tmp_path: Path) -> None:
    make = WORKLOADS["paper-scale"]
    digests = []
    for seed in (1, 2):
        workload = make(seed, "tiny", str(tmp_path))
        outcome = workload.check_round(0, workload.run_round(0))
        assert outcome.failed == 0
        digests.append(outcome.digest)
    assert digests[0] != digests[1]


def test_campaign_rounds_repeat(tmp_path: Path) -> None:
    workload = WORKLOADS["campaign"](5, "tiny", str(tmp_path))
    first = workload.check_round(0, workload.run_round(0))
    second = workload.check_round(1, workload.run_round(1))
    assert first.failed == second.failed == 0
    assert first.digest == second.digest


def test_fails_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".out", "__pycache__"),
    )
    proc = bench(
        "--workload", "campaign", "--seed", "1", "--seconds", "1",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_shares_split_concurrent_time() -> None:
    # A pool span [0, 10] with an in-process child [2, 5] and two worker
    # tasks [5, 9] and [6, 9]; the workers share [6, 9] evenly.
    spans = [
        (1, 0, "analysis.pool", 0.0, 10.0, None),
        (2, 1, "service.record", 2.0, 5.0, None),
        (3, 1, "analysis.task", 5.0, 9.0, None),
        (4, 1, "core.run", 6.0, 9.0, None),
    ]
    shares = self_shares(spans)
    assert shares == pytest.approx({
        "analysis.pool": 3.0, "service.record": 3.0,
        "analysis.task": 2.5, "core.run": 1.5,
    })
    assert sum(shares.values()) == pytest.approx(10.0)
