"""Unit tests for memory-model policies and static edge generation."""

import pytest

from repro.core.engine import po_prev_stores
from repro.core.policy import (
    PSO,
    SC,
    TSO,
    MemoryModel,
    ProgramOrder,
    static_edges,
)
from repro.model.expansion import OpKind, expand
from tests.util import golden_run, litmus_aprog


def _edges(text, model):
    aprog = litmus_aprog(text)
    return aprog, list(static_edges(aprog, model))


def _has(edges, u, v, rule=None):
    return any(
        (eu, ev) == (u, v) and (rule is None or r == rule) for eu, ev, r in edges
    )


class TestModelDefinitions:
    def test_tso_relaxes_only_store_load(self):
        assert TSO.load_load and TSO.load_store and TSO.store_store
        assert not TSO.store_load

    def test_sc_relaxes_nothing(self):
        assert SC.load_load and SC.load_store and SC.store_store and SC.store_load

    def test_pso_relaxes_store_store_and_store_load(self):
        assert PSO.load_load and PSO.load_store
        assert not PSO.store_store and not PSO.store_load
        assert PSO.same_addr_store_store

    def test_str_is_name(self):
        assert str(TSO) == "TSO"
        assert str(PSO) == "PSO"


class TestProgramOrderEdges:
    def test_store_store_edge_under_tso(self):
        aprog, edges = _edges("P0: S[A]#1 ; S[B]#2", TSO)
        s1 = aprog.per_proc[0][0]
        s2 = aprog.per_proc[0][1]
        assert _has(edges, s1, s2, "R2")

    def test_no_store_load_edge_under_tso(self):
        aprog, edges = _edges("P0: S[A]#1 ; L[B]=0", TSO)
        store, load = aprog.per_proc[0]
        assert not _has(edges, store, load)

    def test_store_load_edge_under_sc(self):
        aprog, edges = _edges("P0: S[A]#1 ; L[B]=0", SC)
        store, load = aprog.per_proc[0]
        assert _has(edges, store, load, "R2")

    def test_load_load_and_load_store_edges(self):
        aprog, edges = _edges("P0: L[A]=0 ; L[B]=0 ; S[C]#1", TSO)
        l1, l2, st = aprog.per_proc[0]
        assert _has(edges, l1, l2, "R1")
        assert _has(edges, l2, st, "R1")

    def test_no_store_store_edge_under_pso_different_addresses(self):
        aprog, edges = _edges("P0: S[A]#1 ; S[B]#2", PSO)
        s1, s2 = aprog.per_proc[0]
        assert not _has(edges, s1, s2)

    def test_pso_keeps_same_address_store_order(self):
        aprog, edges = _edges("P0: S[A]#1 ; S[B]#2 ; S[A]#3", PSO)
        s1, _s2, s3 = aprog.per_proc[0]
        assert _has(edges, s1, s3, "R2")

    def test_membar_orders_store_before_later_load_tso(self):
        aprog, edges = _edges("P0: S[A]#1 ; M ; L[B]=0", TSO)
        store, membar, load = aprog.per_proc[0]
        assert _has(edges, store, membar, "R3")
        assert _has(edges, membar, load, "R3")

    def test_membar_collects_all_unordered_stores_under_pso(self):
        aprog, edges = _edges("P0: S[A]#1 ; S[B]#2 ; S[C]#3 ; M ; S[D]#4", PSO)
        s1, s2, s3, membar, s4 = aprog.per_proc[0]
        for s in (s1, s2, s3):
            assert _has(edges, s, membar, "R3")
        assert _has(edges, membar, s4, "R3")

    def test_membar_chain(self):
        aprog, edges = _edges("P0: M ; M", TSO)
        m1, m2 = aprog.per_proc[0]
        assert _has(edges, m1, m2, "R3")

    def test_edges_are_per_processor(self):
        aprog, edges = _edges("P0: S[A]#1\nP1: S[B]#2", TSO)
        s0 = aprog.per_proc[0][0]
        s1 = aprog.per_proc[1][0]
        assert not _has(edges, s0, s1) and not _has(edges, s1, s0)


class TestGroupAndRootEdges:
    def test_swap_internal_chain(self):
        aprog, edges = _edges("P0: SWAP[A]=0,#1", TSO)
        load, store = aprog.per_proc[0]
        assert _has(edges, load, store, "atomic")

    def test_root_precedes_every_store_to_its_address(self):
        aprog, edges = _edges("P0: S[A]#1\nP1: S[A]#2", TSO)
        root = aprog.roots[0]
        for proc in aprog.per_proc:
            assert _has(edges, root, proc[0], "init")

    def test_root_does_not_precede_other_addresses(self):
        aprog, edges = _edges("P0: S[A]#1 ; S[B]#2", TSO)
        root_b = aprog.roots[4]
        s_a = aprog.per_proc[0][0]
        assert not _has(edges, root_b, s_a)


class TestCustomModel:
    def test_rmo_like_model_generates_no_plain_po_edges(self):
        rmo = MemoryModel(
            "RMOish", load_load=False, load_store=False,
            store_store=False, store_load=False, same_addr_store_store=False,
        )
        aprog, edges = _edges("P0: L[A]=0 ; S[B]#1 ; S[B]#2 ; L[B]=2", rmo)
        rules = {r for _, _, r in edges}
        assert "R1" not in rules and "R2" not in rules


class TestProgramOrderTracker:
    """The streaming engine feeds :class:`ProgramOrder` ops as they
    arrive, processors interleaved; the batch path feeds whole streams."""

    @pytest.mark.parametrize("model", [TSO, SC, PSO], ids=str)
    def test_interleaved_feeding_matches_static_edges(self, model):
        program, execution, _ = golden_run(3)
        aprog = expand(
            execution, initial=program.initial, word_names=program.word_names
        )
        orders = [ProgramOrder(model) for _ in aprog.per_proc]
        fed = []
        for op in aprog.ops:  # record order interleaves processors
            if not op.is_root:
                edges = orders[op.proc].in_edges(op)
                fed += [(u, op.id, rule) for u, rule in edges]
        expected = [
            edge for edge in static_edges(aprog, model)
            if edge[2] in ("R1", "R2", "R3")
        ]
        assert sorted(fed) == sorted(expected)

    def test_last_store_to_is_r5_s_prime(self):
        program, execution, _ = golden_run(4)
        aprog = expand(
            execution, initial=program.initial, word_names=program.word_names
        )
        expected = po_prev_stores(aprog)
        for stream in aprog.per_proc:
            order = ProgramOrder(TSO)
            for op_id in stream:
                op = aprog.ops[op_id]
                order.in_edges(op)
                if op.is_load:
                    assert order.last_store_to.get(op.addr) == expected.get(op_id)
