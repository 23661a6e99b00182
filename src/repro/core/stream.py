"""The streaming online checker: check operations as the machine emits them.

TSOtool's pipeline (PAPER.md Sec. 2) is run-to-completion-then-check:
the simulator finishes, the whole :class:`~repro.model.trace.Execution`
is expanded, and only then does analysis start.  That caps soak-run
length twice over — the trace must fit in memory, and a violation in the
first minute is reported only after the last.  The vc engine
(:mod:`repro.core.vc`) removed the algorithmic obstacle: per-chain
frontier vectors plus Pearce–Kelly online topological reordering are
*already* incremental.  This module restructures them into a checker
that consumes one dynamic record at a time:

* a :class:`StreamSession` accepts ``feed(pid, record)`` calls (wired to
  the simulator through :class:`~repro.sim.machine.TsoMachine`'s
  ``observer`` hook — see :func:`stream_check_machine`), expands each
  record incrementally (:class:`~repro.model.expansion.StreamExpander`),
  and appends the resulting nodes and static/observed edges to the live
  :class:`~repro.core.graph.ConstraintGraph`;
* R6/R7 inference runs as a *dirty-set* fixed point: a work item re-runs
  only when something that can grow its candidate set changed (its
  frontier vector improved, an observer arrived, a same-address store
  was admitted).  Because the rules are monotone, draining the dirty set
  to quiescence reaches the same least fixed point as the batch engines'
  iterate-everything passes;
* a cycle is reported **at the op that closes it** — ``feed`` returns
  the violation the moment the closing edge is inserted, with the same
  cycle witness the batch engines produce — instead of at end of run.

The rules, chains and edge insert are the batch engines' (see
``docs/engines.md``); the admission order, the dirty-set fixed point,
retirement and the guarded frontier floods are this module's own.

**Frontier retirement** is what bounds live state (the windowed
verification idea of Bui et al., PAPERS.md).  Once a node is ``window``
admitted-ops old and no future R6/R7 candidate interval can be required
to reach back to it, its two O(k) frontier vectors are dropped:

* roots never retire (their initial value stays observable forever);
* the newest store to each address is pinned while it remains newest
  (its value is still observable); a superseded store retires only once
  its superseder is a full window old (a straggling load may still
  legally observe the old value until then);
* an unresolved load (no matching store fed yet) is pinned until it
  resolves, then gets a fresh window;
* everything else retires at window age.

Only the vectors are dropped.  The graph adjacency, edge reasons, chain
positions and topological order are kept, so cycle *detection* and the
witness stay exact across retired epochs — a violation whose closing
edge reaches back arbitrarily far is still caught and explained.  Where
inference would need a retired vector, the checker substitutes a
conservative bound (an unknown R6 interval floor widens to "everything";
an unknown R7 suppression check admits the edge).  Both substitutions
can only add edges the batch engines would also derive transitively, so
the engine stays sound: it never flags an execution the batch engines
pass.  What retirement *can* lose is multi-hop inference chains flowing
through dropped frontiers, so ``ok=True`` from a streamed run is
windowed verification — the same sound-but-incomplete contract as the
paper's algorithm, with the window as an extra knob.  With the default
window (larger than whole test runs) nothing retires and the verdict
matches the vc engine exactly; ``tests/test_properties.py`` enforces
that agreement.

Batch use (``--engine stream``) goes through :meth:`StreamingChecker.run`,
which replays a completed analysis program through the same incremental
core, record by record, after the usual up-front precheck — so verdict
*and* violation kind agree with the other engines.  A live session
differs in one documented way: it reports a cycle the moment it closes,
even if a later record would also have failed the unmapped-value
precheck.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.engine import (
    Checker,
    cycle_violation,
    precheck_violation,
    value_axiom_edges,
)
from repro.core.graph import ConstraintGraph, CycleDetected
from repro.core.policy import MemoryModel, ProgramOrder, TSO
from repro.core.prep import chain_key, chain_keys
from repro.core.result import (
    CheckResult,
    CheckStats,
    EdgeReason,
    InferredReason,
    Violation,
    program_order_reason,
)
from repro.model.expansion import (
    NO_GROUP,
    AnalysisProgram,
    StreamExpander,
)
from repro.model.trace import DynRecord

#: Default frontier-retirement window, in admitted analysis ops.  Far
#: larger than any agreement-suite run (so batch verdicts are exact),
#: far smaller than a soak run (so live state stays bounded).
DEFAULT_WINDOW = 4096

#: Frontier sentinel for "no position reachable" (the vc engine uses
#: ``n + 1``, but a stream does not know its final ``n``).
_INF = 1 << 60

#: An admitted op awaiting resolution, with its R5 ``S'`` (or ``None``).
_Unsettled = Tuple[int, Optional[int]]


class _StreamState:
    """The incremental checker core over a (possibly growing) program.

    Nodes must be admitted in id order; the expander guarantees that.
    ``settle()`` must be called at dynamic-record boundaries — atomic
    groups never span records, so by settle time every admitted group is
    complete and redirection endpoints are final.
    """

    def __init__(
        self,
        aprog: AnalysisProgram,
        model: MemoryModel,
        stats: CheckStats,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        self.aprog = aprog
        self.model = model
        self.stats = stats
        self.window = max(1, int(window))
        full_po = (
            model.load_load and model.load_store
            and model.store_store and model.store_load
        )
        if not full_po and not model.load_load:
            raise ValueError(
                "the stream engine needs a chain decomposition of bounded "
                "width known up front; models without load_load order are "
                "not supported (all shipped models have it)"
            )
        if not model.store_store and not model.same_addr_store_store:
            raise ValueError(
                "the stream engine does not support models relaxing "
                "same-address store order (all shipped models keep it)"
            )
        self.graph = ConstraintGraph(aprog)

        # --- chain decomposition: every chain up front, so k is fixed --
        addresses = sorted(aprog.roots)
        keys = chain_keys(model, aprog.nprocs, addresses)
        self._chain_index = {key: chain for chain, key in enumerate(keys)}
        self._chain_members: List[List[int]] = [[] for _ in keys]
        self._k = len(keys)

        # --- per-node state (lists indexed by node id, grown on admit) -
        self._chain_of: List[int] = []
        self._pos_of: List[int] = []
        self._vec_to: List[Optional[List[int]]] = []
        self._vec_from: List[Optional[List[int]]] = []
        self._ord: List[int] = []
        self._admit_stamp: List[int] = []
        self._admitted = 0

        # --- rule bookkeeping -----------------------------------------
        self._orders = [ProgramOrder(model) for _ in range(aprog.nprocs)]
        self._group_prev: Dict[int, int] = {}
        #: addr -> chain -> sorted store positions (the R6/R7 index).
        self._addr_stores: Dict[int, Dict[int, List[int]]] = {}
        #: (addr, value) -> loads awaiting their store, each with its
        #: R5 ``S'`` as captured at admit time.
        self._pending: Dict[Tuple[int, int], List[_Unsettled]] = {}
        self._unresolved: Set[int] = set()
        #: R6 items: load -> [addr, target, target_first, per-chain
        #: [lo_floor, hi_seen] of the already-examined interval].  Edges
        #: are permanent and suppression only strengthens, so every
        #: (item, candidate) pair is examined at most once; a dirty item
        #: scans only the delta its trigger exposed.
        self._r6_items: Dict[int, List] = {}
        #: R7 items: store -> [addr, [(load, load_last), ...], count of
        #: fully-processed observers, per-chain [lo_seen, tail_idx] of
        #: the already-examined candidate region].
        self._r7_items: Dict[int, List] = {}
        self._r7_by_addr: Dict[int, Set[int]] = {}
        self._dirty_r6: Set[int] = set()
        self._dirty_r7: Set[int] = set()
        #: Ops admitted since the last settle, each with its R5 ``S'``.
        self._unsettled: List[_Unsettled] = []

        # --- retirement -----------------------------------------------
        self._live = 0
        self._retire_q: Deque[int] = deque()
        self._delayed: List[Tuple[int, int]] = []  # (wake stamp, node) heap
        self._parked_pending: Set[int] = set()
        self._parked_last: Dict[int, int] = {}
        self._last_store: Dict[int, int] = {}
        self._superseded_at: Dict[int, int] = {}

        for addr in addresses:
            self._admit_root(aprog.roots[addr], addr)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def _grow_node(self, node: int, chain: int) -> None:
        """Append per-node state for ``node`` on ``chain``."""
        assert node == len(self._chain_of), "nodes must be admitted in id order"
        members = self._chain_members[chain]
        pos = len(members)
        members.append(node)
        self._chain_of.append(chain)
        self._pos_of.append(pos)
        vec_to = [-1] * self._k
        vec_to[chain] = pos
        vec_from = [_INF] * self._k
        vec_from[chain] = pos
        self._vec_to.append(vec_to)
        self._vec_from.append(vec_from)
        self._ord.append(len(self._ord))
        self._admitted += 1
        self._admit_stamp.append(self._admitted)
        self._live += 1
        if self._live > self.stats.live_peak:
            self.stats.live_peak = self._live

    def _admit_root(self, node: int, addr: int) -> None:
        self._grow_node(node, self._chain_index[(0, addr)])
        self._register_store_position(node, addr)
        self._last_store[addr] = node

    def _register_store_position(self, node: int, addr: int) -> None:
        chain = self._chain_of[node]
        per_chain = self._addr_stores.setdefault(addr, {})
        per_chain.setdefault(chain, []).append(self._pos_of[node])

    def admit(self, op_id: int) -> None:
        """Admit one analysis op: node, static edges, retirement entry.

        Raises:
            CycleDetected: a static edge closed a cycle.
        """
        op = self.aprog.ops[op_id]
        if self.graph.n <= op_id:
            self.graph.grow()
        self._grow_node(op_id, self._chain_index[chain_key(self.model, op)])
        self._retire_q.append(op_id)
        order = self._orders[op.proc]
        static = order.in_edges(op)
        if op.group != NO_GROUP:
            prev = self._group_prev.get(op.group)
            if prev is not None:
                static.append((prev, "atomic"))
            self._group_prev[op.group] = op_id
        if op.is_store:
            static.append((self.aprog.roots[op.addr], "init"))
        for u, rule in static:
            if self._add_edge(u, op_id, program_order_reason(rule)):
                self.stats.static_edges += 1
        # Only now, with the store's program-order in-edges in place,
        # can the targeted R7 scan see which observers already reach it.
        if op.is_store:
            self._register_store_position(op_id, op.addr)
            self._note_new_store(op_id, op.addr)
        s_prime = order.last_store_to.get(op.addr) if op.is_load else None
        self._unsettled.append((op_id, s_prime))

    def _note_new_store(self, store: int, addr: int) -> None:
        """Retirement + R7 bookkeeping for a newly admitted store."""
        prev = self._last_store.get(addr)
        self._last_store[addr] = store
        if prev is not None and not self.aprog.ops[prev].is_root:
            self._superseded_at[prev] = self._admitted
            if self._parked_last.get(addr) == prev:
                del self._parked_last[addr]
                heapq.heappush(
                    self._delayed, (self._admitted + self.window, prev)
                )
        # A new same-address store can extend any live R7 item's candidate
        # set without improving a frontier.  (R6 needs no such trigger:
        # the new chain position is larger than every existing vec_to
        # entry, so no current interval covers it.)  The append touches
        # exactly one chain, and the appended store is that chain's new
        # tail — so an item whose scan state for the chain is current
        # needs only a single targeted scan of the one new candidate
        # against its settled observers, not a re-examination of every
        # chain.  Items that never looked at this chain, or with older
        # appends still pending, fall back to the dirty set and the
        # general scan.
        live = self._r7_by_addr.get(addr)
        if not live:
            return
        c_new = self._chain_of[store]
        positions = self._addr_stores[addr][c_new]
        tail = len(positions)
        queries = 0
        for item_store in live:
            item = self._r7_items.get(item_store)
            if item is None or self._vec_from[item_store] is None:
                continue  # retired; the next settle's sweep drops it
            state = item[3].get(c_new)
            if state is None:
                self._dirty_r7.add(item_store)
            elif state[1] == tail - 1:
                state[1] = tail
                obs_done = item[2]
                if obs_done:
                    queries += self._scan_r7(
                        item_store, item[1][:obs_done], positions,
                        tail - 1, tail, c_new,
                    )
            else:
                self._dirty_r7.add(item_store)
        self.stats.vc_queries += queries

    # ------------------------------------------------------------------
    # Settling: value resolution + the dirty-set fixed point
    # ------------------------------------------------------------------

    def settle(self) -> None:
        """Resolve the ops admitted since the last record boundary, drain
        the R6/R7 dirty set to quiescence, then sweep retirement.

        Raises:
            CycleDetected: an observed or inferred edge closed a cycle.
        """
        unsettled, self._unsettled = self._unsettled, []
        admitted_limit = len(self._ord)
        for op_id, s_prime in unsettled:
            op = self.aprog.ops[op_id]
            if op.is_load:
                key = (op.addr, op.value)
                target = self.aprog.value_map.get(key)
                if target is not None and target < admitted_limit:
                    self._resolve(op_id, target, s_prime)
                else:
                    self._pending.setdefault(key, []).append((op_id, s_prime))
                    self._unresolved.add(op_id)
            elif op.is_store:
                pending = self._pending.pop((op.addr, op.value), ())
                for load, load_s_prime in pending:
                    self._unresolved.discard(load)
                    if load in self._parked_pending:
                        # Give the late-resolving load a fresh window.
                        self._parked_pending.discard(load)
                        self._admit_stamp[load] = self._admitted
                        self._retire_q.append(load)
                    self._resolve(load, op_id, load_s_prime)
        self._drain()
        self._retire_sweep()

    def _resolve(
        self, load: int, target: int, s_prime: Optional[int]
    ) -> None:
        """A load's observed store is known: R4/R5 edges, R6/R7 items."""
        aprog = self.aprog
        op = aprog.ops[load]
        for u, v, reason in value_axiom_edges(aprog, load, target, s_prime):
            if self._add_edge(u, v, reason):
                self.stats.observed_edges += 1
        self._r6_items[load] = [op.addr, target, aprog.group_first(target), {}]
        self._dirty_r6.add(load)
        if self._vec_from[target] is not None:
            item = self._r7_items.setdefault(target, [op.addr, [], 0, {}])
            item[1].append((load, aprog.group_last(load)))
            self._r7_by_addr.setdefault(item[0], set()).add(target)
            self._dirty_r7.add(target)

    def _drain(self) -> None:
        """Run R6/R7 work items until the dirty set is empty.

        The rules are monotone, and every way a candidate set can grow
        re-dirties its item (frontier improvement, new observer, new
        same-address store), so quiescence here is the batch fixed point.
        """
        worked = False
        while self._dirty_r6 or self._dirty_r7:
            worked = True
            while self._dirty_r6:
                self._process_r6(self._dirty_r6.pop())
            while self._dirty_r7:
                self._process_r7(self._dirty_r7.pop())
        if worked:
            self.stats.iterations += 1

    def _process_r6(self, load: int) -> None:
        """R6: same-address store predecessors of the load precede its
        observed store.

        Only the candidate interval delta since the last run is scanned:
        ``hi`` (the load's frontier) grows monotonically and already
        examined candidates got their permanent edge, so the scan resumes
        at ``hi_seen``.  ``lo_floor`` is the highest value the target's
        frontier was ever seen at — candidates at or below it reach the
        target in the graph, so their edge is transitively implied
        forever; freezing the floor when the target's vector retires is
        therefore exact, not a fallback.
        """
        item = self._r6_items.get(load)
        if item is None:
            return
        addr, target, target_first, chain_state = item
        vt_load = self._vec_to[load]
        if vt_load is None:  # retired without its item being dropped
            del self._r6_items[load]
            return
        vt_target = self._vec_to[target_first]
        queries = 0
        for chain, positions in self._addr_stores.get(addr, {}).items():
            state = chain_state.get(chain)
            if state is None:
                state = chain_state[chain] = [-1, -1]
            if vt_target is not None and vt_target[chain] > state[0]:
                state[0] = vt_target[chain]
            hi = vt_load[chain]
            start = state[0] if state[0] > state[1] else state[1]
            if hi <= start:
                continue
            state[1] = hi
            members = self._chain_members[chain]
            span = positions[bisect_right(positions, start):
                             bisect_right(positions, hi)]
            queries += 1 + len(span)
            for pos in span:
                node = members[pos]
                if node == target:
                    continue
                reason = InferredReason("R6", node, load, target)
                if self._add_edge(node, target, reason):
                    self.stats.inferred_edges += 1
        self.stats.vc_queries += queries

    def _process_r7(self, store: int) -> None:
        """R7: observers of a store precede its same-address store
        successors.

        Scans only what the dirtying trigger exposed: a frontier
        improvement opens candidates below the old ``lo_seen``, a newly
        admitted same-address store appends past ``tail_idx``, and a new
        observer must sweep the full current region once.  A pair that
        was suppressed stays suppressed (``vec_from`` only improves), so
        like R6 every (observer, candidate) pair is examined at most
        once.
        """
        item = self._r7_items.get(store)
        if item is None:
            return
        addr, observers, obs_done, chain_state = item
        vf = self._vec_from[store]
        if vf is None:
            self._drop_r7_item(store, addr)
            return
        new_obs = obs_done < len(observers)
        queries = 0
        for chain, positions in self._addr_stores.get(addr, {}).items():
            lo = vf[chain]
            if lo >= _INF:
                continue
            state = chain_state.get(chain)
            # Fast path: the frontier did not improve on this chain, no
            # store was appended to it, and there is no new observer —
            # nothing to scan, and no bisect needed to know that.
            if (state is not None and not new_obs
                    and lo >= state[0] and len(positions) == state[1]):
                continue
            start = bisect_left(positions, lo)
            if state is None:
                # First look at this chain: everything is new; the
                # new-observer sweep below covers it for all observers.
                chain_state[chain] = [lo, len(positions)]
                if obs_done:
                    queries += self._scan_r7(
                        store, observers[:obs_done], positions,
                        start, len(positions), chain,
                    )
            else:
                prev_start = bisect_left(positions, state[0])
                prev_tail = state[1]
                state[0] = min(state[0], lo)
                state[1] = len(positions)
                old = observers[:obs_done]
                if old:
                    if start < prev_start:  # frontier improved
                        queries += self._scan_r7(
                            store, old, positions, start, prev_start, chain,
                        )
                    if prev_tail < len(positions):  # stores appended
                        queries += self._scan_r7(
                            store, old, positions,
                            max(prev_tail, start), len(positions), chain,
                        )
            if obs_done < len(observers):  # new observers: full region
                queries += self._scan_r7(
                    store, observers[obs_done:], positions,
                    start, len(positions), chain,
                )
        item[2] = len(observers)
        self.stats.vc_queries += queries

    def _scan_r7(
        self,
        store: int,
        observers: List[Tuple[int, int]],
        positions: List[int],
        begin: int,
        end: int,
        chain: int,
    ) -> int:
        """Examine R7 pairs: ``observers`` x ``positions[begin:end]``."""
        aprog = self.aprog
        vec_from = self._vec_from
        members = self._chain_members[chain]
        queries = 0
        for pos in positions[begin:end]:
            s_prime = members[pos]
            if s_prime == store:
                continue
            s_prime_first = aprog.group_first(s_prime)
            sp_chain = self._chain_of[s_prime_first]
            sp_pos = self._pos_of[s_prime_first]
            queries += len(observers)
            for load, load_last in observers:
                vf_load = vec_from[load_last]
                # A retired observer frontier means the implied-edge
                # suppression test cannot run; adding the (true, possibly
                # redundant) edge is the sound fallback.
                if vf_load is not None and vf_load[sp_chain] <= sp_pos:
                    continue
                reason = InferredReason("R7", load, store, s_prime)
                if self._add_edge(load, s_prime, reason):
                    self.stats.inferred_edges += 1
        return queries

    # ------------------------------------------------------------------
    # Incremental edge insertion
    # ------------------------------------------------------------------

    def _add_edge(self, u: int, v: int, reason: EdgeReason) -> bool:
        """Insert ``u -> v`` in the graph and its online order, then
        flood both frontiers from the stored edge.

        The order covers every node ever admitted — retirement drops
        vectors, never order indices — so detection stays exact across
        retired epochs.

        Raises:
            CycleDetected: the redirected edge closes a cycle.
        """
        edge = self.graph.insert(u, v, reason, self._ord, self.stats)
        if edge is None:
            return False
        self._push_forward(*edge)
        self._push_backward(*edge)
        return True

    def _push_forward(self, u: int, v: int) -> None:
        """Propagate ``u``'s backward frontier into ``v``'s descendants.

        Nodes whose vectors were retired are opaque to propagation: the
        delta stops there (their descendants keep whatever they had).
        An R6 item whose frontier improves goes back on the dirty set.
        """
        vec_to = self._vec_to
        succ = self.graph.succ
        source = vec_to[u]
        if source is None:
            return
        r6_items = self._r6_items
        dirty = self._dirty_r6
        entries = [(chain, pos) for chain, pos in enumerate(source) if pos >= 0]
        stack = [(v, entries)]
        while stack:
            node, candidate = stack.pop()
            vec = vec_to[node]
            if vec is None:
                continue
            improved = [
                (chain, pos) for chain, pos in candidate if pos > vec[chain]
            ]
            if not improved:
                continue
            for chain, pos in improved:
                vec[chain] = pos
            if node in r6_items:
                dirty.add(node)
            for child in succ[node]:
                stack.append((child, improved))

    def _push_backward(self, u: int, v: int) -> None:
        """Propagate ``v``'s forward frontier into ``u``'s ancestors."""
        vec_from = self._vec_from
        pred = self.graph.pred
        source = vec_from[v]
        if source is None:
            return
        r7_items = self._r7_items
        dirty = self._dirty_r7
        entries = [(chain, pos) for chain, pos in enumerate(source) if pos < _INF]
        stack = [(u, entries)]
        while stack:
            node, candidate = stack.pop()
            vec = vec_from[node]
            if vec is None:
                continue
            improved = [
                (chain, pos) for chain, pos in candidate if pos < vec[chain]
            ]
            if not improved:
                continue
            for chain, pos in improved:
                vec[chain] = pos
            if node in r7_items:
                dirty.add(node)
            for parent in pred[node]:
                stack.append((parent, improved))

    # ------------------------------------------------------------------
    # Retirement
    # ------------------------------------------------------------------

    def _retire_sweep(self) -> None:
        """Drop frontier vectors of every node past the window whose
        pin conditions have cleared."""
        admitted = self._admitted
        window = self.window
        q = self._retire_q
        stamp = self._admit_stamp
        while q and admitted - stamp[q[0]] >= window:
            self._classify(q.popleft(), admitted)
        while self._delayed and self._delayed[0][0] <= admitted:
            _, node = heapq.heappop(self._delayed)
            self._retire(node)

    def _classify(self, node: int, admitted: int) -> None:
        """Window-old node: retire it now, or park it on its pin."""
        op = self.aprog.ops[node]
        if op.is_load:
            if node in self._unresolved:
                self._parked_pending.add(node)  # re-queued on resolution
                return
            self._retire(node)
            return
        if op.is_store:
            addr = op.addr
            if self._last_store.get(addr) == node:
                # Newest store to its address: value still observable.
                self._parked_last[addr] = node
                return
            wake = self._superseded_at[node] + self.window
            if admitted >= wake:
                self._retire(node)
            else:
                heapq.heappush(self._delayed, (wake, node))
            return
        self._retire(node)  # membar

    def _retire(self, node: int) -> None:
        """Drop the node's vectors (graph, order and positions are kept)."""
        if self._vec_to[node] is None:
            return
        self._vec_to[node] = None
        self._vec_from[node] = None
        self._live -= 1
        self.stats.retired_nodes += 1
        self._superseded_at.pop(node, None)
        self._r6_items.pop(node, None)
        self._dirty_r6.discard(node)
        item = self._r7_items.get(node)
        if item is not None:
            self._drop_r7_item(node, item[0])

    def _drop_r7_item(self, store: int, addr: int) -> None:
        self._r7_items.pop(store, None)
        self._dirty_r7.discard(store)
        by_addr = self._r7_by_addr.get(addr)
        if by_addr is not None:
            by_addr.discard(store)

    # ------------------------------------------------------------------

    def flush_unresolved(self) -> None:
        """Record still-unresolved loads as unmapped-value precheck
        failures on the program (end-of-session bookkeeping)."""
        aprog = self.aprog
        for load in sorted(self._unresolved):
            op = aprog.ops[load]
            aprog.precheck_failures.append((
                "unmapped",
                f"{aprog.describe(load)}: value {op.value} was never "
                f"written to {aprog.name_of(op.addr)} (unmapped load value)",
            ))


class StreamSession:
    """One live checking session: feed dynamic records, get the verdict.

    Create via :meth:`StreamingChecker.open_session`.  ``feed`` returns
    the :class:`Violation` as soon as one exists — at the op that closes
    the cycle — and every later ``feed`` is a no-op returning the same
    violation.  ``finish`` runs the end-of-stream checks (unresolved
    loads, expansion failures) and returns the full
    :class:`CheckResult`.
    """

    def __init__(
        self,
        checker: "StreamingChecker",
        addresses: Sequence[int],
        initial: Optional[Dict[int, int]] = None,
        word_names: Optional[Dict[int, str]] = None,
        nprocs: int = 0,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        self._checker = checker
        self._start = time.perf_counter()
        self._expander = StreamExpander(
            addresses, initial=initial, word_names=word_names, nprocs=nprocs
        )
        self.aprog = self._expander.aprog
        self.stats = CheckStats()
        self._state = _StreamState(
            self.aprog, checker.model, self.stats, window=window
        )
        self._rec_counts: Dict[int, int] = {}
        self.violation: Optional[Violation] = None
        self._finished: Optional[CheckResult] = None

    def feed(
        self, pid: int, rec: DynRecord, rec_idx: Optional[int] = None
    ) -> Optional[Violation]:
        """Check one dynamic record; return the violation if one is known."""
        if self.violation is not None:
            return self.violation
        if rec_idx is None:
            rec_idx = self._rec_counts.get(pid, 0)
        self._rec_counts[pid] = rec_idx + 1
        new_ops = self._expander.feed(pid, rec_idx, rec)
        try:
            for op_id in new_ops:
                self._state.admit(op_id)
            self._state.settle()
        except CycleDetected as exc:
            self.violation = cycle_violation(self.aprog, self._state.graph, exc)
        return self.violation

    def finish(self) -> CheckResult:
        """End the stream: final prechecks, stats, telemetry, result."""
        if self._finished is not None:
            return self._finished
        if self.violation is None:
            self._state.flush_unresolved()
            self.violation = precheck_violation(self.aprog)
        self.stats.nodes = self.aprog.n
        self._finished = self._checker.conclude(
            self.aprog, self.stats, self._start, self.violation,
            self._state.graph,
        )
        return self._finished


class StreamingChecker(Checker):
    """Fig. 2 as an online algorithm: bounded live state, early verdicts."""

    name = "stream"

    def __init__(
        self,
        model: MemoryModel = TSO,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        """Args:
            model: memory-model ordering policy.
            window: frontier-retirement window in admitted analysis ops;
                live checker state is O(window), verdicts are windowed
                (see the module docstring).
        """
        super().__init__(model)
        self.window = window

    def open_session(
        self,
        addresses: Sequence[int],
        initial: Optional[Dict[int, int]] = None,
        word_names: Optional[Dict[int, str]] = None,
        nprocs: int = 0,
        window: Optional[int] = None,
    ) -> StreamSession:
        """Open a live session fed record-by-record (the true streaming
        path; :meth:`run` is the batch shim over the same core)."""
        return StreamSession(
            self, addresses,
            initial=initial, word_names=word_names, nprocs=nprocs,
            window=self.window if window is None else window,
        )

    def _analyze(
        self, aprog: AnalysisProgram, stats: CheckStats
    ) -> Optional[Violation]:
        """Replay a completed analysis program through the incremental
        core, one dynamic record at a time.

        :meth:`run` has already applied the up-front precheck, exactly
        like the batch engines, so verdict *and* violation kind agree
        with them even on traces that contain both an unmapped value and
        a cycle.
        """
        state = _StreamState(aprog, self.model, stats, window=self.window)
        self._graph = state.graph
        try:
            current_rec: Optional[Tuple[int, object]] = None
            for op in aprog.ops:
                if op.is_root:
                    continue
                key = (op.proc, op.origin)
                if current_rec is not None and key != current_rec:
                    state.settle()
                current_rec = key
                state.admit(op.id)
            state.settle()
        except CycleDetected as exc:
            return cycle_violation(aprog, state.graph, exc)
        return None


def stream_check_machine(
    machine,
    model: MemoryModel = TSO,
    window: int = DEFAULT_WINDOW,
    on_record: Optional[Callable[[int, int], None]] = None,
):
    """Run a :class:`~repro.sim.machine.TsoMachine`, checking its observed
    records *as they are emitted* — simulation and analysis pipelined.

    Args:
        machine: a constructed, not-yet-run machine.  Its ``observer``
            hook must be free (this function installs one).
        model: memory model to check against.
        window: frontier-retirement window (see :data:`DEFAULT_WINDOW`).
        on_record: optional ``(pid, rec_idx)`` progress callback, invoked
            after each record is checked.

    Returns:
        ``(result, execution)`` — the :class:`CheckResult` and the full
        observed :class:`~repro.model.trace.Execution`.
    """
    program = machine.program
    session = StreamingChecker(model, window=window).open_session(
        addresses=machine.shared_words,
        initial=program.initial,
        word_names=program.word_names,
        nprocs=len(machine.cpus),
    )

    def observer(pid: int, rec_idx: int, rec: DynRecord) -> None:
        session.feed(pid, rec, rec_idx)
        if on_record is not None:
            on_record(pid, rec_idx)

    machine.observer = observer
    try:
        execution = machine.run()
    finally:
        machine.observer = None
    return session.finish(), execution
