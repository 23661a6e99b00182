"""Deterministic vck engine tests (fast path, numpy required).

The randomized kernel-vs-scalar comparisons live in
``test_kernels.py``; cross-engine verdict agreement in
``tests/test_properties.py``; the fallback path in
``test_no_numpy.py``.  Here: the paper's Fig. 3 witness must come out
*identical* to the vc engine's — same cycle, same per-edge reasons —
because on this example both engines insert the same closing edge.
The default ``vc`` engine shares this class's kernel path from
``kernel_min_nodes`` nodes; below that it must be the scalar
:class:`VectorClockChecker`, counter for counter.
"""

import pytest

pytest.importorskip("numpy")

from repro.analysis.runtime import _MEASURE_MIX
from repro.core.api import ENGINES, check, check_litmus
from repro.core.closure import compute_closure, topological_order
from repro.core.vc import VectorClockChecker
from repro.core.vck import AdaptiveVectorChecker, KernelVectorChecker
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.generator.litmus import LITMUS_LIBRARY
from repro.model.expansion import expand
from repro.sim.faults import AtomicityHoleFault, MembarSkipFault
from repro.sim.machine import TsoMachine

FIG3 = """
    P0: S[B]#91 ; S[A]#1 ; L[A]=2
    P1: S[A]#2
    P2: S[B]#92 ; L[A]=2 ; L[B]=92
    P3: L[B]=92 ; L[B]=91
"""


def _strip_engine_header(text):
    return "\n".join(
        line for line in text.splitlines() if "engine=" not in line
    )


def test_fig3_witness_identical_to_vc():
    vck = check_litmus(FIG3, engine="vck")
    vc = check_litmus(FIG3, engine="vc")
    assert not vck.ok and not vc.ok
    assert vck.engine == "vck"
    assert vck.violation.cycle == vc.violation.cycle
    assert [r.render() for r in vck.violation.reasons] == [
        r.render() for r in vc.violation.reasons
    ]
    assert _strip_engine_header(vck.explain()) == _strip_engine_header(
        vc.explain()
    )


def test_fig3_fast_path_ran_kernels():
    result = check_litmus(FIG3, engine="vck")
    assert result.stats.kernel_batches > 0


def _closure(result):
    graph = result.graph
    order = topological_order(graph)
    assert order is not None
    return compute_closure(graph, order)[0]


def _aprog(nprocs, ops_per_proc, seed, faults=()):
    config = GeneratorConfig(
        nprocs=nprocs, ops_per_proc=ops_per_proc, shared_words=16,
        mix=_MEASURE_MIX, loop_prob=0.0,
    )
    program = generate_program(config, seed=seed)
    trace = TsoMachine(program, seed=seed, faults=list(faults)).run()
    return expand(trace, initial=program.initial)


def _counters(result):
    stats = result.stats.to_dict()
    del stats["seconds"]
    return stats


def test_vck_edge_sets_closure_equivalent_to_vc():
    # vck may insert a different *explicit* edge set than vc — its
    # descending-run R6 pass skips some implied edges vc inserts, while
    # its between-refresh frontier staleness admits some vc suppresses —
    # but every difference is an implied (true) edge, so the transitive
    # closures must be identical.
    for seed in range(3):
        program = generate_program(
            GeneratorConfig(nprocs=4, ops_per_proc=80, shared_words=4),
            seed=seed,
        )
        trace = TsoMachine(program, seed=seed).run()
        vck = check(program, trace, engine="vck")
        vc = VectorClockChecker().run(expand(trace, initial=program.initial))
        assert vck.ok and vc.ok
        assert _closure(vck) == _closure(vc)


def test_registry_maps_vc_to_the_adaptive_class():
    assert ENGINES["vc"] is AdaptiveVectorChecker
    assert ENGINES["vck"] is KernelVectorChecker
    assert KernelVectorChecker.kernel_min_nodes == 0


@pytest.mark.parametrize("seed", range(3))
def test_default_engine_below_threshold_is_the_scalar_path(seed):
    # A default campaign-sized check (4 CPUs x 80 ops, ~500 nodes).
    aprog = _aprog(4, 80, seed)
    assert aprog.n < AdaptiveVectorChecker.kernel_min_nodes
    default = AdaptiveVectorChecker().run(aprog)
    scalar = VectorClockChecker().run(aprog)
    assert default.engine == "vc"
    assert default.stats.kernel_batches == 0
    assert _counters(default) == _counters(scalar)
    assert default.explain() == scalar.explain()


def test_default_engine_below_threshold_on_litmus_library():
    for case in LITMUS_LIBRARY:
        default = check_litmus(case.text, engine="vc")
        scalar = VectorClockChecker().run(default.aprog)
        assert default.stats.kernel_batches == 0, case.name
        assert _counters(default) == _counters(scalar), case.name
        assert default.explain() == scalar.explain(), case.name


def test_threshold_is_inclusive():
    aprog = _aprog(2, 20, 0)
    at = type("At", (AdaptiveVectorChecker,), {"kernel_min_nodes": aprog.n})
    above = type(
        "Above", (AdaptiveVectorChecker,), {"kernel_min_nodes": aprog.n + 1}
    )
    assert at().run(aprog).stats.kernel_batches > 0
    assert above().run(aprog).stats.kernel_batches == 0


@pytest.mark.parametrize("seed", range(2))
def test_default_engine_at_scale_takes_kernel_path(seed):
    aprog = _aprog(8, 200, seed)
    assert aprog.n >= AdaptiveVectorChecker.kernel_min_nodes
    default = AdaptiveVectorChecker().run(aprog)
    scalar = VectorClockChecker().run(aprog)
    assert default.stats.kernel_batches > 0
    assert default.ok and scalar.ok
    assert default.stats.closure_rebuilds == 1
    assert _closure(default) == _closure(scalar)


@pytest.mark.parametrize("fault", [AtomicityHoleFault, MembarSkipFault])
def test_default_engine_at_scale_keeps_failing_verdicts(fault):
    config = GeneratorConfig(nprocs=8, ops_per_proc=200, shared_words=8)
    program = generate_program(config, seed=0)
    trace = TsoMachine(program, seed=0, faults=[fault(rate=0.05)]).run()
    aprog = expand(trace, initial=program.initial)
    assert aprog.n >= AdaptiveVectorChecker.kernel_min_nodes
    default = AdaptiveVectorChecker().run(aprog)
    scalar = VectorClockChecker().run(aprog)
    assert default.stats.kernel_batches > 0
    assert not default.ok and not scalar.ok
    assert default.violation.kind == scalar.violation.kind
    cycle = default.violation.cycle
    for i, node in enumerate(cycle):
        assert default.graph.has_edge(node, cycle[(i + 1) % len(cycle)])
