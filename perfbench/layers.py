"""Which ``repro`` calls make up each layer, and the per-layer metrics.

=========  ==========================================================
layer      wrapped calls
=========  ==========================================================
generator  ``generate_program``
sim        ``TsoMachine.__init__`` / ``reset`` / ``run``
sched      the detection re-run under ``RecordingPolicy``
           (``campaign._record_detection``, while it exists)
model      ``expand``
core       every checker engine's ``run`` (reached through
           ``make_checker`` / ``check``)
analysis   ``hunt_bug``, ``run_campaign``, ``run_tasks`` (plus one
           ``analysis.task`` span per pool task)
service    ``JobRunner.run`` / ``merged``, ``ResultStore.refresh`` /
           ``record_hunt``, ``LeaseManager.claim``
bench      the benchmark's own round loop
=========  ==========================================================
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
from typing import Any, Dict, List, Sequence

import repro.analysis.campaign as campaign
import repro.analysis.pool as pool
import repro.core.api as api
import repro.generator.generator as generator
import repro.model.expansion as expansion
from repro.service.lease import LeaseManager
from repro.service.queue import JobRunner
from repro.service.store import ResultStore
from repro.sim.machine import TsoMachine

from perfbench.tracer import Span, Tracer, layer_of, run_task, self_shares


#: The per-layer self times of the program's layers (``bench`` left out):
#: together they account for a round's wall time.
SELF_METRICS = (
    "generator.self_s", "sim.self_s", "sched.self_s", "model.expand_s",
    "core.check_s", "analysis.self_s", "service.self_s",
)


def _sim_ops(args: Sequence[Any], result: Any) -> int:
    return sum(len(cpu.records) for cpu in args[0].cpus)


def _check_stats(args: Sequence[Any], result: Any) -> List[int]:
    stats = result.stats
    return [stats.edges, stats.iterations, stats.closure_rebuilds]


def _pool_stats(args: Sequence[Any], result: Any) -> List[float]:
    stats = result[1]
    return [stats.wall_seconds, stats.cpu_seconds, stats.workers]


def patch_layers(tracer: Tracer) -> None:
    """Install the layer wrappers listed in the module docstring."""
    tracer.patch_function(generator.generate_program, "generator.generate")
    tracer.patch_method(TsoMachine, "__init__", "sim.init")
    tracer.patch_method(TsoMachine, "reset", "sim.reset")
    tracer.patch_method(TsoMachine, "run", "sim.run", after=_sim_ops)
    tracer.patch_function(
        getattr(campaign, "_record_detection", None), "sched.record"
    )
    tracer.patch_function(
        expansion.expand, "model.expand", after=lambda args, result: result.n
    )
    engines = {
        klass
        for engine in set(api.ENGINES.values())
        for klass in engine.__mro__
        if "run" in klass.__dict__ and klass.__module__.startswith("repro")
    }
    for klass in sorted(engines, key=lambda k: k.__qualname__):
        tracer.patch_method(klass, "run", "core.run", after=_check_stats)
    tracer.patch_function(
        campaign.hunt_bug, "analysis.hunt",
        after=lambda args, result: result.tests_run,
    )
    tracer.patch_function(campaign.run_campaign, "analysis.campaign")
    run_tasks = pool.run_tasks

    def traced_run_tasks(fn: Any, tasks: Any, **kwargs: Any) -> Any:
        shim = functools.partial(run_task, fn)
        return tracer.call(
            "analysis.pool", run_tasks, (shim, tasks), kwargs, _pool_stats
        )

    tracer.patch_function(run_tasks, "analysis.pool", wrapper=traced_run_tasks)
    tracer.patch_method(JobRunner, "run", "service.run")
    tracer.patch_method(JobRunner, "merged", "service.merge")
    tracer.patch_method(ResultStore, "refresh", "service.refresh")
    tracer.patch_method(ResultStore, "record_hunt", "service.record")
    tracer.patch_method(LeaseManager, "claim", "service.claim")


def _p90_ms(seconds: List[float]) -> float:
    if not seconds:
        return 0.0
    if len(seconds) == 1:
        return seconds[0] * 1e3
    return statistics.quantiles(seconds, n=10)[8] * 1e3


def round_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced round (see ``BENCHMARK.json``)."""
    by_id = {span[0]: span for span in spans}

    def under(span: Span, name: str) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = by_id.get(parent[1])
        return False

    named: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        named[span[2]].append(span)

    def total(name: str) -> float:
        return sum(s[4] - s[3] for s in named[name])

    shares = self_shares(spans)
    layer: Counter = Counter()
    for name, value in shares.items():
        layer[layer_of(name)] += value
    sim_runs = named["sim.run"]
    rerun = sum(1 for s in sim_runs if under(s, "sched.record"))
    checks = named["core.run"]
    pools = named["analysis.pool"]
    hunts = named["analysis.hunt"]
    return {
        "generator.calls": len(named["generator.generate"]),
        "generator.self_s": layer["generator"],
        "sim.runs": len(sim_runs),
        "sim.ops": sum(s[5] or 0 for s in sim_runs),
        "sim.self_s": layer["sim"],
        "sim.useful_frac": (
            (len(sim_runs) - rerun) / len(sim_runs) if sim_runs else 0.0
        ),
        "sched.record_runs": len(named["sched.record"]),
        "sched.record_s": total("sched.record"),
        "sched.self_s": layer["sched"],
        "model.expand_s": layer["model"],
        "model.nodes": sum(s[5] or 0 for s in named["model.expand"]),
        "core.checks": len(checks),
        "core.check_s": layer["core"],
        "core.edges": sum(s[5][0] for s in checks if s[5]),
        "core.iterations": sum(s[5][1] for s in checks if s[5]),
        "core.closure_rebuilds": sum(s[5][2] for s in checks if s[5]),
        "analysis.hunt_self_s": shares.get("analysis.hunt", 0.0),
        "analysis.attempts": sum(s[5] or 0 for s in hunts),
        "analysis.hunt_ms_p90": _p90_ms([s[4] - s[3] for s in hunts]),
        "analysis.pool_runs": len(pools),
        "analysis.pool_wall_s": sum(s[5][0] for s in pools if s[5]),
        "analysis.pool_overhead_s": sum(
            s[5][0] - s[5][1] / max(1, s[5][2]) for s in pools if s[5]
        ),
        "analysis.self_s": layer["analysis"],
        "service.rounds": sum(1 for s in pools if under(s, "service.run")),
        "service.refreshes": len(named["service.refresh"]),
        "service.refresh_s": total("service.refresh"),
        "service.record_s": total("service.record"),
        "service.claim_s": total("service.claim"),
        "service.merge_s": total("service.merge"),
        "service.self_s": layer["service"],
        "bench.self_s": layer["bench"],
    }
