"""The checker skeleton every engine shares (Fig. 2 of the paper).

All engines run one procedure: seed the graph with the static R1–R3 and
observed R4/R5 edges, run the R6/R7 fixed point, report a cycle.  They
differ only in how the fixed point answers reachability — traversal
(:mod:`repro.core.checker`), bitsets (:mod:`repro.core.closure`), or
per-chain frontiers (:mod:`repro.core.vc`, :mod:`repro.core.vck`,
:mod:`repro.core.stream`).  :class:`Checker` owns everything else: the
timing, the precheck, the R1–R5 seeding, the initial cycle check, the
cycle witness, telemetry and the :class:`CheckResult`.  An engine
supplies :meth:`Checker._fixed_point`; the streaming engine, which
admits edges record by record instead, overrides
:meth:`Checker._analyze`.

The observed-edge rules, as in the paper (Sec. 4); ``S``, ``S'`` and
``L`` are accesses to the same address, ``map`` is the value→store map
and ``;`` / ``<=`` are program / global memory order:

* **R4**: ``Val[L]=Val[S]  and  not S;L   =>  S <= L``.
* **R5**: ``Val[L]=Val[S]  and  S';L      =>  S' <= S``
  where ``S'`` is the last same-address store preceding ``L`` in program
  order.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro import telemetry
from repro.core.graph import ConstraintGraph, CycleDetected, topological_order
from repro.core.policy import MemoryModel, TSO, static_edges
from repro.core.result import (
    CheckResult,
    CheckStats,
    EdgeReason,
    Violation,
    ViolationKind,
    program_order_reason,
)
from repro.model.expansion import AnalysisProgram, OpKind


def precheck_violation(aprog: AnalysisProgram) -> Optional[Violation]:
    """Turn expansion-time failures into a Violation (or None)."""
    if not aprog.precheck_failures:
        return None
    codes = {code for code, _ in aprog.precheck_failures}
    kind = (
        ViolationKind.UNMAPPED_VALUE if codes == {"unmapped"} else ViolationKind.PRECHECK
    )
    message = "; ".join(msg for _, msg in aprog.precheck_failures)
    return Violation(kind=kind, message=message)


def po_prev_stores(aprog: AnalysisProgram) -> Dict[int, int]:
    """For each load, the last same-address store preceding it in program
    order (the ``S'`` of rule R5); loads with no such store are absent."""
    result: Dict[int, int] = {}
    for stream in aprog.per_proc:
        last_store_to: Dict[int, int] = {}
        for op_id in stream:
            op = aprog.ops[op_id]
            if op.kind == OpKind.LOAD:
                prev = last_store_to.get(op.addr)
                if prev is not None:
                    result[op_id] = prev
            elif op.kind == OpKind.STORE:
                last_store_to[op.addr] = op_id
    return result


def value_axiom_edges(
    aprog: AnalysisProgram, load: int, store: int, s_prime: Optional[int]
) -> Iterator[Tuple[int, int, EdgeReason]]:
    """Yield the R4/R5 edges ``(src, dst, reason)`` of ``load``, which
    observed ``store``; ``s_prime`` is the last same-address store before
    the load in program order (``None`` if there is none)."""
    op = aprog.ops[load]
    s_op = aprog.ops[store]
    same_proc_earlier = (
        s_op.proc == op.proc and not s_op.is_root and s_op.po < op.po
    )
    if not same_proc_earlier:
        yield store, load, EdgeReason(
            "R4",
            f"{aprog.describe(load)} observed the value of "
            f"{aprog.describe(store)}, which is not an earlier store of "
            "the same processor, so the store must be globally visible "
            "before the load binds (Value axiom)",
        )
    if s_prime is not None and s_prime != store:
        yield s_prime, store, EdgeReason(
            "R5",
            f"{aprog.describe(load)} observed {aprog.describe(store)} "
            f"despite the program-order-earlier {aprog.describe(s_prime)}; "
            "by the Value axiom that earlier store must be globally "
            "ordered before the observed one",
        )


def observed_edges(
    aprog: AnalysisProgram,
) -> Iterable[Tuple[int, int, EdgeReason, str]]:
    """Yield the R4/R5 edges ``(src, dst, reason, rule)`` for all loads."""
    prev_store = po_prev_stores(aprog)
    for op in aprog.ops:
        if not op.is_load:
            continue
        store = aprog.map_value(op.addr, op.value)
        if store is None:
            continue  # precheck failure already recorded
        edges = value_axiom_edges(aprog, op.id, store, prev_store.get(op.id))
        for src, dst, reason in edges:
            yield src, dst, reason, reason.rule


def cycle_violation(
    aprog: AnalysisProgram,
    graph: ConstraintGraph,
    closing: Optional[CycleDetected] = None,
) -> Optional[Violation]:
    """The cycle witness, in the one format every engine reports.

    With ``closing`` — the edge whose insertion closed the cycle (a
    self-loop when its endpoints coincide) — the witness is that edge
    plus the shortest path back.  Without it the cycle is searched for
    after the fact; ``None`` means the graph is acyclic.
    """
    if closing is None:
        cycle = graph.find_cycle()
        if cycle is None:
            return None
    else:
        cycle = graph.cycle_through_edge(closing.u, closing.v)
    return Violation(
        kind=ViolationKind.CYCLE,
        message=(
            f"the inferred global memory order contains a cycle of "
            f"{len(cycle)} operation(s): "
            + " <= ".join(aprog.describe(n) for n in cycle)
            + f" <= {aprog.describe(cycle[0])}"
        ),
        cycle=cycle,
        reasons=graph.cycle_reasons(cycle),
    )


class Checker:
    """Base class of the checker engines: one Fig. 2 run per :meth:`run`."""

    name = "engine"

    def __init__(self, model: MemoryModel = TSO) -> None:
        """Args:
            model: memory-model ordering policy.
        """
        self.model = model

    def run(self, aprog: AnalysisProgram) -> CheckResult:
        """Check one analysis program; return the verdict with a witness."""
        start = time.perf_counter()
        stats = CheckStats(nodes=aprog.n)

        self._graph: Optional[ConstraintGraph] = None
        violation = precheck_violation(aprog)
        if violation is None:
            violation = self._analyze(aprog, stats)
        return self.conclude(aprog, stats, start, violation, self._graph)

    def conclude(
        self,
        aprog: AnalysisProgram,
        stats: CheckStats,
        start: float,
        violation: Optional[Violation],
        graph: Optional[ConstraintGraph],
    ) -> CheckResult:
        """The epilogue of every check: stop the clock (``start`` is a
        ``time.perf_counter()`` reading), record telemetry, build the
        :class:`CheckResult`."""
        stats.seconds = time.perf_counter() - start
        telemetry.record_check(stats, self.name)
        return CheckResult(
            ok=violation is None,
            model_name=self.model.name,
            engine=self.name,
            violation=violation,
            stats=stats,
            aprog=aprog,
            graph=graph,
        )

    def _initial_edges(
        self, aprog: AnalysisProgram
    ) -> Iterator[Tuple[int, int, EdgeReason, str]]:
        """The seeding edge stream: (src, dst, reason, kind) tuples.

        ``kind`` is "static" or "observed" (statistics bucketing).
        Subclasses extend this to inject extra environment-supplied
        ordering facts (Sec. 3.2).
        """
        for u, v, rule in static_edges(aprog, self.model):
            yield u, v, program_order_reason(rule), "static"
        for u, v, reason, _rule in observed_edges(aprog):
            yield u, v, reason, "observed"

    def _analyze(
        self, aprog: AnalysisProgram, stats: CheckStats
    ) -> Optional[Violation]:
        """Seed R1–R5, check for a cycle, then run the engine's R6/R7."""
        graph = ConstraintGraph(aprog)
        self._graph = graph
        try:
            for u, v, reason, kind in self._initial_edges(aprog):
                if graph.add_edge(u, v, reason):
                    if kind == "static":
                        stats.static_edges += 1
                    else:
                        stats.observed_edges += 1
            order = topological_order(graph)
            if order is None:
                return cycle_violation(aprog, graph)
            return self._fixed_point(aprog, graph, stats, order)
        except CycleDetected as exc:
            return cycle_violation(aprog, graph, exc)

    def _fixed_point(
        self,
        aprog: AnalysisProgram,
        graph: ConstraintGraph,
        stats: CheckStats,
        order: List[int],
    ) -> Optional[Violation]:
        """Apply R6/R7 to the seeded, acyclic ``graph`` until nothing
        changes; return the violation, if any.

        ``order`` is a topological order of the seeded graph.  An edge
        that closes a cycle may be reported by raising
        :class:`~repro.core.graph.CycleDetected`; the base turns it into
        the witness.
        """
        raise NotImplementedError
