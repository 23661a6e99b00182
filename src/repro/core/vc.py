"""The incremental checker engine: vector-clock frontiers + online
topological order.

The scalar loops of the default ``vc`` engine (and its path below
:attr:`~repro.core.vck.AdaptiveVectorChecker.kernel_min_nodes`), built
on the observation of Roy et al., *Fast and Generalized Polynomial Time
Memory Consistency Verification* (the Intel follow-up to TSOtool):
program order totally orders large slices of the analysis graph, so
"the set of nodes that reaches v" does not need an n-bit set — it is
captured exactly by a short *frontier vector* with one entry per
totally ordered **chain** of nodes.

Chains are carved out of the static program-order edges the memory
model guarantees (see :class:`repro.core.prep.Chains`): under TSO each
processor contributes one load(+membar) chain and one store chain, and
each synthetic root store is its own singleton chain, so
``k ≈ 2·procs + addrs`` — two orders of magnitude below the node count
at the paper's operating point.  Because every chain is a path in the constraint graph, "chain
``c``'s members that reach ``v``" is always a *prefix* of ``c``; the
frontier entry stores just the prefix length.  This buys the three
things the per-pass engines pay for repeatedly:

* **R6/R7 candidate discovery is O(k).**  "Same-address store
  predecessors of L not already ordered before the observed store" is,
  per chain, one half-open interval of positions — two binary searches
  in the chain's per-address store index, no bitset scan over n nodes.
* **Cycle detection is incremental.**  A topological order of the graph
  is maintained *online* across edge insertions with Pearce–Kelly local
  reordering: only the affected region — nodes whose order indices sit
  between the new edge's endpoints — is visited, instead of a full
  Kahn pass per fixed-point iteration.  An inserted edge whose forward
  search finds its own source *is* the violation.
* **Closure updates are deltas.**  Inserting ``u -> v`` pushes
  ``u``'s frontier entries through ``v``'s descendants (and ``v``'s
  backward frontier through ``u``'s ancestors), stopping wherever
  nothing improves.  The full closure is built exactly once, from the
  initial static + observed edges — ``closure_rebuilds`` stays at 1
  regardless of how many fixed-point passes run, where the per-pass
  engines pay an O(E·n/w) rebuild each iteration.

Atomic-group redirection and the R5 ``S';L`` subtlety are shared
bit-for-bit: the R1–R5 seeding is the one of
:class:`repro.core.engine.Checker`, and every edge goes through
:meth:`ConstraintGraph.insert`, which performs the paper's redirection
and the Pearce–Kelly step.  Verdict agreement with the other engines is
enforced by ``tests/test_properties.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.core.engine import Checker
from repro.core.graph import ConstraintGraph
from repro.core.prep import Chains, EnginePrep, prepare
from repro.core.result import CheckStats, EdgeReason, InferredReason, Violation
from repro.model.expansion import AnalysisProgram


def frontier_vectors(
    n: int,
    k: int,
    order: Sequence[int],
    pred: Sequence[Sequence[int]],
    succ: Sequence[Sequence[int]],
    chain_of: Sequence[int],
    pos_of: Sequence[int],
) -> Tuple[List[List[int]], List[List[int]]]:
    """One-pass closure DP producing both frontier vectors per node.

    Returns ``(vec_to, vec_from)``: ``vec_to[v][c]`` is the highest
    position in chain ``c`` whose member reaches ``v`` (-1: none),
    ``vec_from[v][c]`` the lowest position reachable from ``v``
    (``n + 1``: none); both include ``v`` itself, mirroring the closure
    engine's reach bitsets.  Nodes are visited in topological ``order``
    so every parent (child) row is final before it is merged.  This is
    also the scalar reference of :func:`repro.core.kernels.build_frontiers`.
    """
    inf = n + 1
    vec_to: List[List[int]] = [None] * n  # type: ignore[list-item]
    for node in order:
        rows = [vec_to[parent] for parent in pred[node]]
        if not rows:
            vec = [-1] * k
        elif len(rows) == 1:
            vec = list(rows[0])
        else:
            vec = list(map(max, *rows))
        chain, pos = chain_of[node], pos_of[node]
        if pos > vec[chain]:
            vec[chain] = pos
        vec_to[node] = vec
    vec_from: List[List[int]] = [None] * n  # type: ignore[list-item]
    for node in reversed(order):
        rows = [vec_from[child] for child in succ[node]]
        if not rows:
            vec = [inf] * k
        elif len(rows) == 1:
            vec = list(rows[0])
        else:
            vec = list(map(min, *rows))
        chain, pos = chain_of[node], pos_of[node]
        if pos < vec[chain]:
            vec[chain] = pos
        vec_from[node] = vec
    return vec_to, vec_from


class VectorClockChecker(Checker):
    """Fig. 2 with incremental frontier vectors and online topo order."""

    name = "vc"

    # ------------------------------------------------------------------
    # Phase 1: chain decomposition, one closure build
    # ------------------------------------------------------------------

    def _fixed_point(
        self,
        aprog: AnalysisProgram,
        graph: ConstraintGraph,
        stats: CheckStats,
        order: List[int],
    ) -> Optional[Violation]:
        """Build the frontiers once from the seeded graph, then iterate."""
        self._stats = stats
        self._chains = Chains(aprog, self.model)
        self._init_state(graph, order)
        stats.closure_rebuilds += 1
        return self._rounds(aprog, graph, stats, prepare(aprog))

    def _init_state(self, graph: ConstraintGraph, order: List[int]) -> None:
        """Index the topological order and build the frontier vectors
        (:func:`frontier_vectors`)."""
        n = graph.n
        self._inf = n + 1
        self._ord = [0] * n
        for index, node in enumerate(order):
            self._ord[node] = index
        self._vec_to, self._vec_from = frontier_vectors(
            n, self._chains.k, order, graph.pred, graph.succ,
            self._chains.chain_of, self._chains.pos_of,
        )

    # ------------------------------------------------------------------
    # Phase 2: the R6/R7 fixed point over live frontiers
    # ------------------------------------------------------------------

    def _rounds(
        self,
        aprog: AnalysisProgram,
        graph: ConstraintGraph,
        stats: CheckStats,
        prep: EnginePrep,
    ) -> Optional[Violation]:
        """Whole-work-list R6/R7 passes until one adds no edge."""
        group_first = prep.group_first
        # The observer-suppression test (``_reaches``) runs for every
        # (R7 candidate, observer) pair — millions of times at paper
        # scale — so it is inlined here over hoisted locals, with the
        # query count accumulated in bulk.
        chain_of = self._chains.chain_of
        pos_of = self._chains.pos_of
        vec_from = self._vec_from
        add_edge = self._add_edge
        while True:
            stats.iterations += 1
            added = 0
            for load, addr, target, target_first in prep.loads:
                for s_prime in self._r6_candidates(addr, load, target,
                                                  target_first):
                    reason = InferredReason("R6", s_prime, load, target)
                    if add_edge(s_prime, target, reason):
                        added += 1
            queries = 0
            for store, addr, observers in prep.stores:
                for s_prime in self._r7_candidates(addr, store):
                    s_prime_first = group_first[s_prime]
                    sp_chain = chain_of[s_prime_first]
                    sp_pos = pos_of[s_prime_first]
                    queries += len(observers)
                    for load, load_last in observers:
                        if vec_from[load_last][sp_chain] <= sp_pos:
                            continue  # redirected edge already implied
                        reason = InferredReason("R7", load, store, s_prime)
                        if add_edge(load, s_prime, reason):
                            added += 1
            stats.vc_queries += queries
            if not added:
                return None
            stats.inferred_edges += added

    def _r6_candidates(
        self, addr: int, load: int, target: int, target_first: int
    ) -> List[int]:
        """Same-address store predecessors of ``load`` not already
        ordered before the observed store's group entry point."""
        out: List[int] = []
        chains = self._chains
        vt_load = self._vec_to[load]
        vt_target = self._vec_to[target_first]
        queries = 0
        for chain, positions in chains.addr_stores.get(addr, ()):
            queries += 1
            lo = vt_target[chain]
            hi = vt_load[chain]
            if hi <= lo:
                continue
            members = chains.nodes[chain]
            for pos in positions[bisect_right(positions, lo):
                                 bisect_right(positions, hi)]:
                node = members[pos]
                if node != target:
                    out.append(node)
        self._stats.vc_queries += queries
        return out

    def _r7_candidates(self, addr: int, store: int) -> List[int]:
        """Same-address store successors of ``store`` (excluding it)."""
        out: List[int] = []
        chains = self._chains
        vf = self._vec_from[store]
        inf = self._inf
        queries = 0
        for chain, positions in chains.addr_stores.get(addr, ()):
            queries += 1
            lo = vf[chain]
            if lo >= inf:
                continue
            members = chains.nodes[chain]
            for pos in positions[bisect_left(positions, lo):]:
                node = members[pos]
                if node != store:
                    out.append(node)
        self._stats.vc_queries += queries
        return out

    def _reaches(self, src: int, dst: int) -> bool:
        """O(1) frontier query: is ``dst`` reachable from ``src``?"""
        self._stats.vc_queries += 1
        chains = self._chains
        return self._vec_from[src][chains.chain_of[dst]] <= chains.pos_of[dst]

    # ------------------------------------------------------------------
    # Incremental edge insertion
    # ------------------------------------------------------------------

    def _add_edge(self, u: int, v: int, reason: EdgeReason) -> bool:
        """Insert ``u -> v`` in the graph and its online order
        (:meth:`~repro.core.graph.ConstraintGraph.insert`), then flood
        both frontiers from the stored edge.

        Raises:
            CycleDetected: the redirected edge closes a cycle (found by
                the Pearce–Kelly forward search, or as a self-loop).
        """
        edge = self._graph.insert(u, v, reason, self._ord, self._stats)
        if edge is None:
            return False
        self._push_forward(*edge)
        self._push_backward(*edge)
        return True

    def _push_forward(self, u: int, v: int) -> None:
        """Propagate ``u``'s backward frontier into ``v``'s descendants."""
        vec_to = self._vec_to
        succ = self._graph.succ
        entries = [
            (chain, pos) for chain, pos in enumerate(vec_to[u]) if pos >= 0
        ]
        stack = [(v, entries)]
        while stack:
            node, candidate = stack.pop()
            vec = vec_to[node]
            improved = [
                (chain, pos) for chain, pos in candidate if pos > vec[chain]
            ]
            if not improved:
                continue
            for chain, pos in improved:
                vec[chain] = pos
            for child in succ[node]:
                stack.append((child, improved))

    def _push_backward(self, u: int, v: int) -> None:
        """Propagate ``v``'s forward frontier into ``u``'s ancestors."""
        vec_from = self._vec_from
        pred = self._graph.pred
        inf = self._inf
        entries = [
            (chain, pos) for chain, pos in enumerate(vec_from[v]) if pos < inf
        ]
        stack = [(u, entries)]
        while stack:
            node, candidate = stack.pop()
            vec = vec_from[node]
            improved = [
                (chain, pos) for chain, pos in candidate if pos < vec[chain]
            ]
            if not improved:
                continue
            for chain, pos in improved:
                vec[chain] = pos
            for parent in pred[node]:
                stack.append((parent, improved))
