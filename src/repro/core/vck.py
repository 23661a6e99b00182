"""The kernel-accelerated checker engine (``--engine vck``), and the
kernel path of the default ``vc`` engine on large programs.

The vc engine's algorithm — chain frontiers, Pearce–Kelly online cycle
detection — re-expressed over the batched compute layer in
:mod:`repro.core.kernels`.  The candidate semantics and witness format
are identical to :class:`VectorClockChecker`: this class inherits its
edge insertion (:meth:`~repro.core.graph.ConstraintGraph.insert`, then
the two frontier pushes, which it overrides), and the witness comes
from the shared :class:`repro.core.engine.Checker`.  What changes is
how the hot loops execute:

* **Frontier state is two ``(n, k)`` int32 numpy matrices** (``m_to``:
  highest chain positions reaching each node, ``m_from``: lowest
  reachable), row-major so every per-node frontier is one contiguous
  row.
* **Per-edge floods are replaced by one delta refresh per round.**  The
  scalar engine re-floods both frontier directions after *every*
  inserted edge — at paper scale that is hundreds of thousands of
  single-entry updates.  Here an insertion does only an O(k) shallow
  row merge (``m_from[u] = min(m_from[u], m_from[v])`` and the forward
  mirror), and full closure freshness is restored once per fixed-point
  round by :func:`~repro.core.kernels.refresh_forward`/
  :func:`~repro.core.kernels.refresh_backward` — a single wavefront
  sweep over the rows downstream of this round's edges, in the
  maintained topological order.  This is sound because discovery is
  watermark-delta'd (a candidate missed while a bound is stale is
  found after the next refresh; monotone frontiers + permanent edges),
  and cycle detection never depends on frontier freshness at all: the
  shared insert's Pearce–Kelly step detects the cycle exactly at the
  closing edge, producing the same witness as vc.  Between-refresh
  staleness can only cost redundant (implied, hence true) edges.
* **R6/R7 discovery is batched per address per round.**  Instead of two
  ``bisect`` calls per (item, chain) per iteration, every interval
  bound of every item of an address is encoded into one query vector
  and resolved by a single ``np.searchsorted`` against the address's
  flattened chain-position index (:class:`~repro.core.kernels.AddrSpanIndex`).
  Watermark vectors turn the scan into a delta: each (item, candidate)
  pair is enumerated at most once across the whole fixed point, where
  the scalar engines re-enumerate every candidate every iteration.
* **R7 suppression is a fancy-indexed compare.**  The (candidate,
  observer) cross product of a batch is expanded with
  :func:`~repro.core.kernels.concat_ranges` and tested against the
  backward-frontier matrix in one vector op; only survivors reach the
  Python insertion loop, which re-checks the test scalar-side against
  the current row (the shallow merge keeps each observer's own row
  fresh, preserving vc's minimal-candidate suppression within a batch).

The batching has a fixed cost per round that only pays off on large
programs, so the path is taken from :attr:`kernel_min_nodes` analysis
nodes: 0 for ``vck``, 1000 for :class:`AdaptiveVectorChecker`, the class
registered as the default ``vc`` engine.  Smaller programs run the
inherited scalar loops of :class:`VectorClockChecker` unchanged.

Without numpy both engines transparently degrade to those scalar loops
at every size — ``vck`` then *is* ``vc`` plus a name — so the module
imports and verdicts survive a missing ``repro[fast]`` extra
(``tests/core/test_no_numpy.py`` proves it with a stubbed import).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core import kernels
from repro.core.graph import ConstraintGraph
from repro.core.prep import EnginePrep
from repro.core.result import CheckStats, InferredReason, Violation
from repro.core.vc import VectorClockChecker
from repro.model.expansion import AnalysisProgram


class KernelVectorChecker(VectorClockChecker):
    """Fig. 2 with batched kernel math over the vc chain formulation."""

    name = "vck"
    #: Smallest analysis program, in nodes, that takes the kernel path;
    #: smaller ones run the inherited scalar loops.  ``vck`` takes it
    #: at every size.
    kernel_min_nodes = 0

    # ------------------------------------------------------------------
    # State: row-major frontier matrices (kernel path only)
    # ------------------------------------------------------------------

    def _init_state(self, graph: ConstraintGraph, order: List[int]) -> None:
        self._use_kernels = (
            kernels.HAVE_NUMPY and graph.n >= self.kernel_min_nodes
        )
        if not self._use_kernels:
            super()._init_state(graph, order)
            return
        n = graph.n
        chains = self._chains
        self._inf = n + 1
        self._n = n
        self._ord = [0] * n
        for index, node in enumerate(order):
            self._ord[node] = index
        self._m_to, self._m_from = kernels.build_frontiers(
            n, chains.k, order, graph.pred, graph.succ,
            chains.chain_of, chains.pos_of,
        )
        self._stats.kernel_batches += 1
        # Redirected endpoints of edges inserted since the last refresh
        # — the dirty sources a small round's delta refresh sweeps from.
        self._fwd_dirty: List[int] = []
        self._bwd_dirty: List[int] = []

    # ------------------------------------------------------------------
    # Insertion-time propagation: O(k) shallow row merges.  Full closure
    # freshness is restored by the per-round delta refresh.
    # ------------------------------------------------------------------

    def _push_forward(self, u: int, v: int) -> None:
        if not self._use_kernels:
            super()._push_forward(u, v)
            return
        m_to = self._m_to
        kernels.np.maximum(m_to[v], m_to[u], out=m_to[v])
        self._fwd_dirty.append(v)

    def _push_backward(self, u: int, v: int) -> None:
        if not self._use_kernels:
            super()._push_backward(u, v)
            return
        m_from = self._m_from
        kernels.np.minimum(m_from[u], m_from[v], out=m_from[u])
        self._bwd_dirty.append(u)

    def _refresh(self, graph: ConstraintGraph, stats: CheckStats) -> None:
        """Re-close both frontier matrices after a round of inserts.

        Big rounds (most of the graph downstream of a change) use the
        level-scheduled segmented-reduce sweep; small rounds use the
        dirty-wavefront delta refresh, whose cost tracks the actual
        propagation frontier instead of the whole graph.
        """
        np = kernels.np
        order = np.argsort(np.asarray(self._ord)).tolist()
        if len(self._fwd_dirty) > self._n // 16:
            kernels.run_sweep(
                self._m_to, kernels.sweep_schedule(order, graph.pred)
            )
            order.reverse()
            kernels.run_sweep(
                self._m_from,
                kernels.sweep_schedule(order, graph.succ),
                minimize=True,
            )
        else:
            kernels.refresh_forward(
                self._m_to, order, graph.pred, graph.succ, self._fwd_dirty
            )
            kernels.refresh_backward(
                self._m_from, order, graph.pred, graph.succ, self._bwd_dirty
            )
        stats.kernel_batches += 2
        self._fwd_dirty.clear()
        self._bwd_dirty.clear()

    # ------------------------------------------------------------------
    # The fixed point: batched per-address rounds
    # ------------------------------------------------------------------

    def _rounds(
        self,
        aprog: AnalysisProgram,
        graph: ConstraintGraph,
        stats: CheckStats,
        prep: EnginePrep,
    ) -> Optional[Violation]:
        if not self._use_kernels:
            return super()._rounds(aprog, graph, stats, prep)
        np = kernels.np
        chains = self._chains
        n = self._n

        # Per-address work batches, prep order preserved within each.
        r6_items: Dict[int, List[Tuple[int, int, int]]] = {}
        for load, addr, target, target_first in prep.loads:
            r6_items.setdefault(addr, []).append((load, target, target_first))
        r7_items: Dict[int, List[Tuple[int, List[Tuple[int, int]]]]] = {}
        for store, addr, observers in prep.stores:
            r7_items.setdefault(addr, []).append((store, observers))

        indexes: Dict[int, kernels.AddrSpanIndex] = {}
        for addr, entries in chains.addr_stores.items():
            indexes[addr] = kernels.AddrSpanIndex(entries, chains.nodes, n)

        # R6 batch arrays: ids per item, plus per-(item, chain) watermarks.
        r6_batches = []
        for addr, items in r6_items.items():
            index = indexes.get(addr)
            if index is None or not index.chains:
                continue
            loads = [load for load, _, _ in items]
            targets = [target for _, target, _ in items]
            firsts = [first for _, _, first in items]
            r6_batches.append((
                index,
                loads,
                targets,
                firsts,
                np.asarray(loads, dtype=np.int64),
                np.asarray(targets, dtype=np.int64),
                np.asarray(firsts, dtype=np.int64),
                np.zeros(len(items) * len(index.chains), dtype=np.int64),
                [None, None],  # previous round's (lo, hi) windows
            ))

        # R7 batch arrays: ids, flattened observers, suffix watermarks.
        r7_batches = []
        for addr, items in r7_items.items():
            index = indexes.get(addr)
            if index is None or not index.chains:
                continue
            store_list = [store for store, _ in items]
            obs_loads: List[int] = []
            obs_lasts: List[int] = []
            obs_start: List[int] = []
            obs_count: List[int] = []
            for _, observers in items:
                obs_start.append(len(obs_loads))
                obs_count.append(len(observers))
                for load, load_last in observers:
                    obs_loads.append(load)
                    obs_lasts.append(load_last)
            r7_batches.append((
                index,
                store_list,
                obs_loads,
                obs_lasts,
                np.asarray(store_list, dtype=np.int64),
                np.asarray(obs_lasts, dtype=np.int64),
                np.asarray(obs_start, dtype=np.int64),
                np.asarray(obs_count, dtype=np.int64),
                np.tile(index.seg_end_np, len(items)),
                [None],  # previous round's lo windows
            ))

        chain_np = np.asarray(chains.chain_of, dtype=np.int64)
        pos_np = np.asarray(chains.pos_of, dtype=np.int64)
        gf_np = np.asarray(prep.group_first, dtype=np.int64)
        gl_list = [aprog.group_last(i) for i in range(n)]
        gl_np = np.asarray(gl_list, dtype=np.int64)
        chain_of = chains.chain_of
        pos_of = chains.pos_of

        m_to = self._m_to
        m_from = self._m_from
        add_edge = self._add_edge
        ix_ = np.ix_

        while True:
            stats.iterations += 1
            added = 0
            scanned = 0

            for (index, loads, targets, firsts, loads_np, targets_np,
                 firsts_np, marks, prev) in r6_batches:
                cols = index.chains_np
                offsets = index.offsets_np
                lo = (m_to[ix_(firsts_np, cols)] + offsets).ravel()
                hi = (m_to[ix_(loads_np, cols)] + offsets).ravel()
                # Windows identical to last round mean the watermarks
                # already consumed every span — skip the binary searches.
                if (prev[1] is not None
                        and np.array_equal(hi, prev[1])
                        and np.array_equal(lo, prev[0])):
                    continue
                prev[0], prev[1] = lo, hi
                pair, cand = kernels.r6_spans(index, lo, hi, marks)
                stats.kernel_batches += 1
                if pair is None:
                    continue
                m = len(index.chains)
                item = pair // m
                keep = cand != targets_np[item]
                item, cand = item[keep], cand[keep]
                scanned += len(cand)
                if not len(cand):
                    continue
                # Skip candidates whose edge is already implied: the
                # redirected source reaching the target's group entry is
                # an O(1) backward-frontier test, batched for the whole
                # span.  The matrix may lag real reachability between
                # refreshes, so this only under-filters — residual
                # implied edges are true and merely redundant.
                tfirst = firsts_np[item]
                fresh = (
                    m_from[gl_np[cand], chain_np[tfirst]] > pos_np[tfirst]
                )
                stats.vc_queries += len(fresh)
                item, cand = item[fresh], cand[fresh]
                if not len(cand):
                    continue
                # Insert each (item, chain) run's candidates descending:
                # a store chain's highest candidate edge implies every
                # lower one (u_i ~> u_j ~> target for i < j), so after
                # the first insert the recheck below skips the rest of
                # the run instead of adding redundant edges.
                if len(cand) > 1:
                    pair = pair[keep][fresh]
                    run_start = np.flatnonzero(
                        np.r_[True, pair[1:] != pair[:-1]]
                    )
                    run_len = np.diff(np.r_[run_start, len(pair)])
                    ends = np.repeat(run_start + run_len - 1, run_len)
                    starts = np.repeat(run_start, run_len)
                    perm = starts + ends - np.arange(len(pair))
                    item, cand = item[perm], cand[perm]
                for it, s_prime in zip(item.tolist(), cand.tolist()):
                    tf = firsts[it]
                    if m_to[tf, chain_of[gl_list[s_prime]]] >= pos_of[
                        gl_list[s_prime]
                    ]:
                        continue  # implied by an edge added this batch
                    target = targets[it]
                    reason = InferredReason("R6", s_prime, loads[it], target)
                    if add_edge(s_prime, target, reason):
                        added += 1

            for (index, store_list, obs_loads, obs_lasts, stores_np,
                 obs_lasts_np, obs_start_np, obs_count_np,
                 marks, prev) in r7_batches:
                cols = index.chains_np
                offsets = index.offsets_np
                lo = (m_from[ix_(stores_np, cols)] + offsets).ravel()
                if prev[0] is not None and np.array_equal(lo, prev[0]):
                    continue
                prev[0] = lo
                pair, cand = kernels.r7_spans(index, lo, marks)
                stats.kernel_batches += 1
                if pair is None:
                    continue
                m = len(index.chains)
                item = pair // m
                keep = cand != stores_np[item]
                item, cand = item[keep], cand[keep]
                if not len(cand):
                    continue
                scanned += len(cand)
                # Expand (candidate × observer) and test suppression in
                # one vector op; survivors re-check scalar-side at
                # insertion so mid-batch edges keep vc semantics.
                sp_first = gf_np[cand]
                sp_chain = chain_np[sp_first]
                sp_pos = pos_np[sp_first]
                counts = obs_count_np[item]
                rep = np.repeat(np.arange(len(cand), dtype=np.int64), counts)
                obs_idx = kernels.concat_ranges(obs_start_np[item], counts)
                keep_mask = kernels.suppression_mask(
                    m_from,
                    obs_lasts_np[obs_idx],
                    sp_chain[rep],
                    sp_pos[rep],
                )
                stats.kernel_batches += 1
                stats.vc_queries += len(keep_mask)
                survivors = np.nonzero(keep_mask)[0]
                if not len(survivors):
                    continue
                for t in survivors.tolist():
                    pair_index = int(rep[t])
                    s_prime = int(cand[pair_index])
                    slot = int(obs_idx[t])
                    chain = int(sp_chain[pair_index])
                    if m_from[obs_lasts[slot], chain] <= sp_pos[pair_index]:
                        continue  # implied by an edge added this batch
                    load = obs_loads[slot]
                    store = store_list[int(item[pair_index])]
                    reason = InferredReason("R7", load, store, s_prime)
                    if add_edge(load, s_prime, reason):
                        added += 1

            stats.inferred_edges += added
            if not added and not scanned:
                return None
            if added:
                self._refresh(graph, stats)


class AdaptiveVectorChecker(KernelVectorChecker):
    """The default ``vc`` engine: vc's scalar loops on small programs,
    vck's kernel path from :attr:`kernel_min_nodes` nodes.

    Without numpy every size runs the scalar loops, so this is then
    :class:`VectorClockChecker` under the same name.
    """

    name = "vc"
    #: Placed by node count from the crossover table in
    #: ``benchmarks/results/engine_scaling.txt`` (vck/vc check time,
    #: best of 5, three seeds per shape, 2-core x86-64, Python 3.11,
    #: numpy 2.4): 1.3–1.6 at 265 nodes and 1.0–1.4 at 500 nodes on
    #: 4 CPUs; 0.8–1.0 at 1000–1300 nodes on 4 CPUs; 0.5–0.9 at about
    #: 1300 nodes on 8 and 16 CPUs; 0.3–0.4 at 10k nodes (16×400).
    #: Campaign checks (4×80, under 800 nodes) stay on the scalar path.
    kernel_min_nodes = 1000
