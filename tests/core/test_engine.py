"""The shared checker skeleton: one witness builder for every engine."""

from repro.core.engine import Checker, cycle_violation
from repro.core.graph import ConstraintGraph, CycleDetected
from repro.core.result import EdgeReason, ViolationKind
from tests.util import litmus_aprog

#: Three independent ops (a ring of edges is added by hand below).
THREE = "P0: S[A]#1\nP1: S[B]#2\nP2: S[C]#3"


def _ring(aprog):
    graph = ConstraintGraph(aprog)
    a, b, c = (op.id for op in aprog.ops if not op.is_root)
    graph.add_edge(a, b, EdgeReason("R4", "a before b"))
    graph.add_edge(b, c, EdgeReason("R6", "b before c"))
    return graph, a, b, c


def test_closing_edge_witness_is_edge_plus_path_back():
    aprog = litmus_aprog(THREE)
    graph, a, b, c = _ring(aprog)
    graph.add_edge(c, a, EdgeReason("R7", "c before a"))
    violation = cycle_violation(aprog, graph, CycleDetected(c, a))
    assert violation.kind == ViolationKind.CYCLE
    assert violation.cycle == [a, b, c]
    assert [r.rule for r in violation.reasons] == ["R4", "R6", "R7"]
    assert violation.message == (
        "the inferred global memory order contains a cycle of 3 "
        f"operation(s): {aprog.describe(a)} <= {aprog.describe(b)} <= "
        f"{aprog.describe(c)} <= {aprog.describe(a)}"
    )


def test_self_loop_witness_is_one_node_cycle():
    aprog = litmus_aprog(THREE)
    graph, a, _b, _c = _ring(aprog)
    violation = cycle_violation(aprog, graph, CycleDetected(a, a))
    assert violation.kind == ViolationKind.CYCLE
    assert violation.cycle == [a]
    assert violation.reasons == [EdgeReason("?", "edge of cycle")]
    assert violation.message == (
        "the inferred global memory order contains a cycle of 1 "
        f"operation(s): {aprog.describe(a)} <= {aprog.describe(a)}"
    )


def test_after_the_fact_search_finds_the_cycle_or_none():
    aprog = litmus_aprog(THREE)
    graph, a, b, c = _ring(aprog)
    assert cycle_violation(aprog, graph) is None
    graph.add_edge(c, a, EdgeReason("R7", "c before a"))
    violation = cycle_violation(aprog, graph)
    assert sorted(violation.cycle) == sorted([a, b, c])
    assert len(violation.reasons) == 3


def test_engine_supplies_only_the_fixed_point():
    """A minimal engine: the base seeds, checks, times and reports."""

    class SeedOnly(Checker):
        name = "seed-only"
        reached = False

        def _fixed_point(self, aprog, graph, stats, order):
            assert sorted(order) == list(range(graph.n))
            self.reached = True
            return None

    checker = SeedOnly()
    result = checker.run(litmus_aprog("P0: S[A]#1 ; L[A]=1"))
    assert checker.reached
    assert result.ok and result.engine == "seed-only"
    assert result.graph is not None
    assert result.stats.static_edges > 0
    # Opposite store orders observed by the two processors: the R5
    # edges alone form a cycle, reported before any fixed point runs.
    coherence = """
        P0: S[A]#1 ; L[A]=2
        P1: S[A]#2 ; L[A]=1
    """
    checker = SeedOnly()
    result = checker.run(litmus_aprog(coherence))
    assert not checker.reached
    assert not result.ok
    assert result.violation.kind == ViolationKind.CYCLE
