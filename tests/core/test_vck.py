"""Deterministic vck engine tests (fast path, numpy required).

The randomized kernel-vs-scalar comparisons live in
``test_kernels.py``; cross-engine verdict agreement in
``tests/test_properties.py``; the fallback path in
``test_no_numpy.py``.  Here: the paper's Fig. 3 witness must come out
*identical* to the vc engine's — same cycle, same per-edge reasons —
because on this example both engines insert the same closing edge.
"""

import pytest

pytest.importorskip("numpy")

from repro.core.api import check_litmus

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


def test_vck_edge_sets_closure_equivalent_to_vc():
    # vck may insert a different *explicit* edge set than vc — its
    # descending-run R6 pass skips some implied edges vc inserts, while
    # its between-refresh frontier staleness admits some vc suppresses —
    # but every difference is an implied (true) edge, so the transitive
    # closures must be identical.
    from repro.core.api import check
    from repro.core.closure import compute_closure, topological_order
    from repro.generator.config import GeneratorConfig
    from repro.generator.generator import generate_program
    from repro.sim.machine import TsoMachine

    for seed in range(3):
        program = generate_program(
            GeneratorConfig(nprocs=4, ops_per_proc=80, shared_words=4),
            seed=seed,
        )
        trace = TsoMachine(program, seed=seed).run()
        vck = check(program, trace, engine="vck")
        vc = check(program, trace, engine="vc")
        assert vck.ok and vc.ok
        closures = []
        for result in (vck, vc):
            graph = result.graph
            order = topological_order(graph)
            assert order is not None
            closures.append(compute_closure(graph, order)[0])
        assert closures[0] == closures[1]
