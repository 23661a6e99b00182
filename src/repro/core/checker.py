"""The reference checker: a literal implementation of Fig. 2.

Rules applied, exactly as in the paper (Sec. 4); throughout, ``S``, ``S'``
and ``L`` are accesses to the same address, ``map`` is the value→store map
and ``;`` / ``<=`` are program / global memory order:

* **R1–R3** (static): program-order edges per the LoadOp, StoreStore and
  Membar axioms — produced by :func:`repro.core.policy.static_edges`.
* **R4/R5** (observed): the value-observation edges of
  :func:`repro.core.engine.observed_edges`.
* **R6** (inferred): ``Val[L]=Val[S]  and  S' <= L   =>  S' <= S``.
* **R7** (inferred): ``Val[L]=Val[S]  and  S  <= S'  =>  L <= S'``.

R6/R7 are iterated to a fixed point; the graph is checked for cycles after
every iteration (the paper flags a violation as soon as a cycle is found).
This engine performs the predecessor/successor discovery for R6/R7 by
plain breadth-first traversal each iteration — the straightforward reading
of the pseudo-code, kept as the readable reference and as the ablation
baseline for :class:`repro.core.closure.ClosureChecker`.  The R1–R5
seeding and the cycle witness come from the shared
:class:`repro.core.engine.Checker`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.engine import Checker, cycle_violation
from repro.core.graph import ConstraintGraph
from repro.core.prep import prepare
from repro.core.result import CheckStats, EdgeReason, Violation
from repro.model.expansion import AnalysisProgram


class BaselineChecker(Checker):
    """Fig. 2 implemented with per-iteration graph traversal."""

    name = "baseline"

    def _fixed_point(
        self,
        aprog: AnalysisProgram,
        graph: ConstraintGraph,
        stats: CheckStats,
        order: List[int],
    ) -> Optional[Violation]:
        """Iterate R6/R7 until no edges are added; cycle-check each pass.

        The R6/R7 work lists come from :func:`repro.core.prep.prepare`,
        computed once: loads arrive with their observed store already
        resolved (loads whose value maps to no store — a recorded
        precheck failure — are excluded up front rather than re-resolved
        and re-skipped every pass), and stores nobody observed never
        enter the R7 loop at all.  ``order`` is unused: traversal needs
        none.
        """
        prep = prepare(aprog)
        changed = True
        while changed:
            changed = False
            stats.iterations += 1
            for load, addr, target, _target_first in prep.loads:
                changed |= self._apply_r6(aprog, graph, stats, load, addr, target)
            for store, addr, observers in prep.stores:
                changed |= self._apply_r7(
                    aprog, graph, stats, store, addr, observers
                )
            violation = cycle_violation(aprog, graph)
            if violation is not None:
                return violation
        return None

    def _apply_r6(
        self, aprog: AnalysisProgram, graph: ConstraintGraph,
        stats: CheckStats, load: int, addr: int, target: int,
    ) -> bool:
        """R6: every same-address store predecessor of L precedes map(L)."""
        changed = False
        visited = self._reachable(graph, load, addr, forward=False)
        stats.traversals += 1
        stats.traversal_visits += len(visited)
        for s_prime in visited:
            node = aprog.ops[s_prime]
            if not node.is_store or node.addr != addr or s_prime == target:
                continue
            reason = EdgeReason(
                "R6",
                f"{aprog.describe(s_prime)} precedes {aprog.describe(load)} "
                f"in the global order, and the load observed "
                f"{aprog.describe(target)}; by the Value axiom the preceding "
                "store must come before the observed one",
            )
            if graph.add_edge(s_prime, target, reason):
                stats.inferred_edges += 1
                changed = True
        return changed

    def _apply_r7(
        self, aprog: AnalysisProgram, graph: ConstraintGraph,
        stats: CheckStats, store: int, addr: int,
        observers: List[Tuple[int, int]],
    ) -> bool:
        """R7: loads of S precede every same-address store successor of S."""
        changed = False
        visited = self._reachable(graph, store, addr, forward=True)
        stats.traversals += 1
        stats.traversal_visits += len(visited)
        for s_prime in visited:
            node = aprog.ops[s_prime]
            if not node.is_store or node.addr != addr or s_prime == store:
                continue
            for load, _load_last in observers:
                reason = EdgeReason(
                    "R7",
                    f"{aprog.describe(load)} observed {aprog.describe(store)} "
                    f"which precedes {aprog.describe(s_prime)}; had the load "
                    "bound after the later store it could not have observed "
                    "the earlier one (Value axiom)",
                )
                if graph.add_edge(load, s_prime, reason):
                    stats.inferred_edges += 1
                    changed = True
        return changed

    def _reachable(
        self, graph: ConstraintGraph, start: int, addr: int, forward: bool
    ) -> List[int]:
        """Nodes reachable from ``start`` (excluding it), by *bounded* BFS.

        This is the paper's traversal optimization ("we implement
        optimizations to bound the predecessor and successor subgraph
        traversal when it is known that no new constraints can be
        added"): the search does not expand beyond a store to the same
        address.  Any same-address store *behind* one already found is
        ordered through it by transitivity, so the edge R6/R7 would add
        for it is implied by the edge added for the nearer store —
        nothing new can come from continuing.

        The bounding is also what gives the analyzer the paper's Fig. 9
        behaviour: with few shared addresses, traversals stop almost
        immediately; with many, they wander much further before hitting
        a same-address store.
        """
        aprog = graph.aprog
        adj = graph.succ if forward else graph.pred
        seen = {start}
        frontier = [start]
        order: List[int] = []
        while frontier:
            nxt = []
            for node in frontier:
                for child in adj[node]:
                    if child in seen:
                        continue
                    seen.add(child)
                    order.append(child)
                    child_op = aprog.ops[child]
                    if child_op.is_store and child_op.addr == addr:
                        continue  # bound: do not expand past it
                    nxt.append(child)
            frontier = nxt
        return order
