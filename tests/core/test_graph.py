"""Unit tests for the constraint graph: redirection, cycles, witnesses."""

import pytest

from repro.core.api import check
from repro.core.graph import ConstraintGraph, CycleDetected
from repro.core.result import CheckStats, EdgeReason
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.sim.machine import TsoMachine
from tests.util import litmus_aprog

R = EdgeReason("test")


def _graph(text):
    aprog = litmus_aprog(text)
    return aprog, ConstraintGraph(aprog)


class TestAddEdge:
    def test_new_edge_returns_true_duplicate_false(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2")
        assert g.add_edge(1, 2, R) is True
        assert g.add_edge(1, 2, R) is False
        assert g.edge_count == 1

    def test_adjacency_both_directions(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2")
        g.add_edge(1, 2, R)
        assert 2 in g.succ[1]
        assert 1 in g.pred[2]
        assert g.has_edge(1, 2) and not g.has_edge(2, 1)

    def test_reason_recorded(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2")
        reason = EdgeReason("R4", "because")
        g.add_edge(1, 2, reason)
        assert g.reason_of(1, 2) is reason

    def test_duplicates_rejected_on_both_insert_paths(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2")
        first = EdgeReason("R4", "first")
        assert g.add_edge(1, 2, first) is True
        assert g.add_edge(1, 2, EdgeReason("R6")) is False
        order = [0, 1, 2]
        assert g.insert(1, 2, EdgeReason("R7"), order, CheckStats()) is None
        assert g.reason_of(1, 2) is first
        assert g.succ[1] == [2] and g.pred[2] == [1]
        assert g.edge_count == len(g.reasons) == 1


def _ordered(text):
    """A graph over ``text`` with its identity order as per-node indices."""
    aprog, g = _graph(text)
    return aprog, g, list(range(g.n))


def _is_topological(g, order):
    return all(order[u] < order[v] for u in range(g.n) for v in g.succ[u])


class TestOrderedInsert:
    def test_self_loop_raises(self):
        _, g, order = _ordered("P0: S[A]#1 ; S[B]#2")
        with pytest.raises(CycleDetected):
            g.insert(1, 1, R, order, CheckStats())
        assert g.edge_count == 0

    def test_duplicate_returns_none_and_changes_nothing(self):
        _, g, order = _ordered("P0: S[A]#1 ; S[B]#2 ; S[A]#3")
        stats = CheckStats()
        assert g.insert(3, 1, R, order, stats) == (3, 1)
        before = list(order)
        assert g.insert(3, 1, EdgeReason("R7"), order, stats) is None
        assert order == before
        assert g.edge_count == 1 and g.reason_of(3, 1) is R

    def test_order_incompatible_insert_keeps_order_topological(self):
        _, g, order = _ordered("P0: S[A]#1 ; S[B]#2 ; S[A]#3 ; S[B]#4")
        stats = CheckStats()
        g.insert(2, 3, R, order, stats)
        g.insert(3, 4, R, order, stats)
        assert stats.reorder_visits == 0  # both agree with the order
        assert g.insert(4, 1, R, order, stats) == (4, 1)
        assert stats.reorder_visits > 0
        assert _is_topological(g, order)
        assert sorted(order) == list(range(g.n))

    def test_closing_edge_is_recorded_then_raises(self):
        _, g, order = _ordered("P0: S[A]#1 ; S[B]#2 ; S[A]#3")
        stats = CheckStats()
        g.insert(1, 2, R, order, stats)
        g.insert(2, 3, R, order, stats)
        closing = EdgeReason("R7", "closes it")
        with pytest.raises(CycleDetected) as exc:
            g.insert(3, 1, closing, order, stats)
        assert (exc.value.u, exc.value.v) == (3, 1)
        assert g.reason_of(3, 1) is closing
        assert g.cycle_through_edge(3, 1) == [1, 2, 3]

    def test_edge_inside_one_group_is_not_redirected(self):
        aprog, g, order = _ordered("P0: SWAP[A]=0,#1")
        swap_load, swap_store = aprog.per_proc[0]
        edge = g.insert(swap_load, swap_store, R, order, CheckStats())
        assert edge == (swap_load, swap_store)


@pytest.mark.parametrize(
    "engine", ["baseline", "closure", "stream", "vc", "vck"]
)
def test_reasons_are_the_edge_set(engine):
    # The reason map is the graph's only membership index: one key per
    # explicit edge, matching the adjacency lists in both directions.
    config = GeneratorConfig(nprocs=4, ops_per_proc=40, shared_words=4)
    program = generate_program(config, seed=5)
    result = check(program, TsoMachine(program, seed=5).run(), engine=engine)
    g = result.graph
    assert g.edge_count == len(g.reasons) == sum(map(len, g.succ))
    assert sum(map(len, g.pred)) == g.edge_count
    assert set(g.reasons) == {(u, v) for u in range(g.n) for v in g.succ[u]}


class TestAtomicRedirection:
    def test_incoming_edge_lands_on_group_first(self):
        # SWAP expands to [load; store] — an atomic group.
        aprog, g = _graph("P0: S[A]#1\nP1: SWAP[A]=1,#2")
        store = aprog.per_proc[0][0]
        swap_load, swap_store = aprog.per_proc[1]
        g.add_edge(store, swap_store, R)
        assert g.has_edge(store, swap_load)
        assert not g.has_edge(store, swap_store)

    def test_outgoing_edge_leaves_from_group_last(self):
        aprog, g = _graph("P0: S[A]#1\nP1: SWAP[A]=1,#2")
        store = aprog.per_proc[0][0]
        swap_load, swap_store = aprog.per_proc[1]
        g.add_edge(swap_load, store, R)
        assert g.has_edge(swap_store, store)

    def test_intra_group_edge_not_redirected(self):
        aprog, g = _graph("P0: SWAP[A]=0,#1")
        swap_load, swap_store = aprog.per_proc[0]
        g.add_edge(swap_load, swap_store, R)
        assert g.has_edge(swap_load, swap_store)

    def test_group_to_group_redirection(self):
        aprog, g = _graph("P0: SWAP[A]=0,#1\nP1: SWAP[B]=0,#2")
        a_load, a_store = aprog.per_proc[0]
        b_load, b_store = aprog.per_proc[1]
        g.add_edge(a_load, b_store, R)
        # source -> last of A's group; dest -> first of B's group
        assert g.has_edge(a_store, b_load)


class TestCycles:
    def test_acyclic_graph_has_no_cycle(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2 ; S[A]#3")
        g.add_edge(0, 2, R)
        g.add_edge(2, 3, R)
        assert g.find_cycle() is None

    def test_two_node_cycle_found(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2")
        g.add_edge(1, 2, R)
        g.add_edge(2, 1, R)
        cycle = g.find_cycle()
        assert cycle is not None and sorted(cycle) == [1, 2]

    def test_longer_cycle_found(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2 ; S[A]#3 ; S[B]#4")
        g.add_edge(1, 2, R)
        g.add_edge(2, 3, R)
        g.add_edge(3, 4, R)
        g.add_edge(4, 1, R)
        cycle = g.find_cycle()
        assert cycle is not None and len(cycle) == 4

    def test_cycle_through_edge_witness(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2 ; S[A]#3")
        g.add_edge(1, 2, R)
        g.add_edge(2, 3, R)
        # Adding 3 -> 1 would close a cycle; build the witness for it.
        cycle = g.cycle_through_edge(3, 1)
        assert cycle == [1, 2, 3]

    def test_cycle_through_edge_requires_path(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2")
        with pytest.raises(ValueError):
            g.cycle_through_edge(1, 2)

    def test_shortest_path(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2 ; S[A]#3 ; S[B]#4")
        g.add_edge(1, 2, R)
        g.add_edge(2, 4, R)
        g.add_edge(1, 3, R)
        g.add_edge(3, 4, R)
        path = g.shortest_path(1, 4)
        assert path is not None and len(path) == 3 and path[0] == 1 and path[-1] == 4

    def test_shortest_path_absent(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2")
        assert g.shortest_path(1, 2) is None

    def test_cycle_reasons_align_with_edges(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2")
        g.add_edge(1, 2, EdgeReason("R6"))
        g.add_edge(2, 1, EdgeReason("R7"))
        reasons = g.cycle_reasons([1, 2])
        assert [r.rule for r in reasons] == ["R6", "R7"]
