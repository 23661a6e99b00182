"""The analysis constraint graph (Sec. 4).

Nodes are word-sized memory operations; a directed edge ``u -> v`` records
the inferred relation ``u <= v`` in the global memory order.  Since ``<=``
is transitive, any *path* implies the relation; a *cycle* implies the
relations cannot form a valid order — a memory-model violation.

Atomic groups are modelled exactly as the paper describes: "incoming edges
incident to any node in the set [are forced] to point to its first node;
outgoing edges from any node in the set similarly leave from its last
node."  :meth:`ConstraintGraph.insert`, the one insert path, performs
that redirection, except for edges internal to a single group (the
``L <= S`` chain of a swap).

Every explicit edge carries an :class:`~repro.core.result.EdgeReason` so
failures can be explained edge by edge (Sec. 3.4).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.result import CheckStats, EdgeReason
from repro.model.expansion import AnalysisProgram


class CycleDetected(Exception):
    """Raised internally when an added edge immediately closes a cycle.

    Carries the offending edge; the checker turns it into a
    :class:`~repro.core.result.Violation` with a full cycle witness.
    """

    def __init__(self, u: int, v: int) -> None:
        super().__init__(f"edge {u}->{v} closes a cycle")
        self.u = u
        self.v = v


class ConstraintGraph:
    """Adjacency-list constraint graph with atomic-group redirection."""

    def __init__(self, aprog: AnalysisProgram) -> None:
        self.aprog = aprog
        self.n = 0
        self.succ: List[List[int]] = []
        self.pred: List[List[int]] = []
        # Redirection tables: _group[i] is node i's atomic group (-1 if
        # none), _red_src[i]/_red_dst[i] its group-last/group-first.
        # insert() redirects every prospective edge — several per node
        # per round — so three list reads beat the op/group dict walk
        # it would otherwise repeat millions of times.
        self._group: List[int] = []
        self._red_src: List[int] = []
        self._red_dst: List[int] = []
        # One entry per explicit edge: its keys are the edge set that
        # has_edge() and insert() test membership against.
        self.reasons: Dict[Tuple[int, int], EdgeReason] = {}
        self.edge_count = 0
        self.grow()

    def grow(self) -> None:
        """Extend adjacency storage to cover ops appended to the program.

        The streaming checker feeds a *live* ``AnalysisProgram`` whose op
        list grows as the simulator emits records; batch engines never
        need this (their program is complete at construction).  A newly
        appended op extends its atomic group, moving the group's last
        node — the redirection table is patched for every member.
        """
        aprog = self.aprog
        while self.n < aprog.n:
            i = self.n
            self.succ.append([])
            self.pred.append([])
            group = aprog.ops[i].group
            self._group.append(group)
            if group == -1:
                self._red_src.append(i)
                self._red_dst.append(i)
            else:
                members = aprog.groups[group]
                last = members[-1]
                self._red_src.append(last)
                self._red_dst.append(members[0])
                for member in members:
                    if member < i:
                        self._red_src[member] = last
            self.n += 1

    def has_edge(self, u: int, v: int) -> bool:
        """True if the explicit (non-transitive) edge ``u -> v`` exists."""
        return (u, v) in self.reasons

    def add_edge(self, u: int, v: int, reason: EdgeReason) -> bool:
        """Add ``u -> v`` (after redirection); return True if it is new.

        Raises:
            CycleDetected: if the redirected edge is a self-loop, which is
                an immediate one-node cycle.
        """
        return self.insert(u, v, reason) is not None

    def insert(
        self,
        u: int,
        v: int,
        reason: EdgeReason,
        order: Optional[List[int]] = None,
        stats: Optional[CheckStats] = None,
    ) -> Optional[Tuple[int, int]]:
        """Insert the redirected ``u -> v``; return it, or ``None`` if it
        already exists.

        ``order`` is a topological order of the graph as per-node
        indices, kept by the incremental engines; an edge against it is
        placed by :func:`reorder`, whose visits go to ``stats``.

        Raises:
            CycleDetected: the edge is a self-loop, or closes a cycle
                against ``order``; a closing edge is recorded first, so
                the witness can name its rule.
        """
        gu = self._group[u]
        if gu == -1 or gu != self._group[v]:
            u = self._red_src[u]
            v = self._red_dst[v]
        if u == v:
            raise CycleDetected(u, v)
        key = (u, v)
        reasons = self.reasons
        if key in reasons:
            return None
        closes = (
            order is not None
            and order[u] >= order[v]
            and reorder(self, order, u, v, stats)
        )
        reasons[key] = reason
        self.succ[u].append(v)
        self.pred[v].append(u)
        self.edge_count += 1
        if closes:
            raise CycleDetected(u, v)
        return key

    def reason_of(self, u: int, v: int) -> EdgeReason:
        """The reason recorded for explicit edge ``u -> v``."""
        return self.reasons[(u, v)]

    # ------------------------------------------------------------------
    # Cycle detection / witness extraction
    # ------------------------------------------------------------------

    def find_cycle(self) -> Optional[List[int]]:
        """Find any cycle; return its node sequence or ``None`` if acyclic.

        Iterative three-colour DFS (white/grey/black); a back edge to a
        grey node closes a cycle, which is read off the DFS stack.
        """
        WHITE, GREY, BLACK = 0, 1, 2
        color = [WHITE] * self.n
        for start in range(self.n):
            if color[start] != WHITE:
                continue
            # stack holds (node, iterator position)
            stack: List[Tuple[int, int]] = [(start, 0)]
            color[start] = GREY
            path = [start]
            while stack:
                node, idx = stack[-1]
                if idx < len(self.succ[node]):
                    stack[-1] = (node, idx + 1)
                    child = self.succ[node][idx]
                    if color[child] == GREY:
                        at = path.index(child)
                        return path[at:]
                    if color[child] == WHITE:
                        color[child] = GREY
                        stack.append((child, 0))
                        path.append(child)
                else:
                    color[node] = BLACK
                    stack.pop()
                    path.pop()
        return None

    def shortest_path(self, src: int, dst: int) -> Optional[List[int]]:
        """BFS shortest path from ``src`` to ``dst`` over explicit edges."""
        if src == dst:
            return [src]
        parent = {src: -1}
        frontier = [src]
        while frontier:
            nxt = []
            for node in frontier:
                for child in self.succ[node]:
                    if child in parent:
                        continue
                    parent[child] = node
                    if child == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(parent[path[-1]])
                        path.reverse()
                        return path
                    nxt.append(child)
            frontier = nxt
        return None

    def cycle_through_edge(self, u: int, v: int) -> List[int]:
        """A cycle witness containing edge ``u -> v`` (which closes it).

        Used when an engine detects, while adding ``u -> v``, that ``u``
        was already reachable from ``v``: the witness is the explicit path
        ``v ~> u`` plus the new edge.
        """
        if u == v:
            return [u]
        path = self.shortest_path(v, u)
        if path is None:
            raise ValueError(f"no path {v} ~> {u}; edge {u}->{v} closes no cycle")
        return path

    def cycle_reasons(self, cycle: List[int]) -> List[EdgeReason]:
        """Per-edge reasons around a cycle (``cycle[i] -> cycle[i+1]``)."""
        out = []
        for i, node in enumerate(cycle):
            nxt = cycle[(i + 1) % len(cycle)]
            out.append(self.reasons.get((node, nxt), EdgeReason("?", "edge of cycle")))
        return out


def topological_order(graph: ConstraintGraph) -> Optional[List[int]]:
    """Kahn's algorithm; ``None`` if the graph has a cycle."""
    indeg = [0] * graph.n
    for node in range(graph.n):
        for child in graph.succ[node]:
            indeg[child] += 1
    frontier = [node for node in range(graph.n) if indeg[node] == 0]
    order: List[int] = []
    while frontier:
        node = frontier.pop()
        order.append(node)
        for child in graph.succ[node]:
            indeg[child] -= 1
            if indeg[child] == 0:
                frontier.append(child)
    return order if len(order) == graph.n else None


def reorder(
    graph: ConstraintGraph,
    ord_: List[int],
    u: int,
    v: int,
    stats: CheckStats,
) -> bool:
    """Pearce–Kelly local reordering for the insertion of ``u -> v``;
    the order-incompatible step of :meth:`ConstraintGraph.insert`.

    ``ord_`` is a topological order of ``graph`` held as per-node
    indices, and ``u`` does not precede ``v`` in it.  The affected
    region — forward from ``v`` up to ``u``'s index, backward from
    ``u`` down to ``v``'s index — is discovered and its order indices
    are redealt, ancestors first.  Returns True, leaving the order as
    it was, when the forward search reaches ``u``: the edge closes a
    cycle.  ``u`` and ``v`` must already be redirected.
    """
    upper = ord_[u]
    succ, pred = graph.succ, graph.pred
    lower = ord_[v]
    forward = {v}
    stack = [v]
    while stack:
        node = stack.pop()
        for child in succ[node]:
            if child == u:
                return True  # path v ~> u: u -> v closes a cycle
            if child not in forward and ord_[child] <= upper:
                forward.add(child)
                stack.append(child)
    backward = {u}
    stack = [u]
    while stack:
        node = stack.pop()
        for parent in pred[node]:
            if parent not in backward and ord_[parent] >= lower:
                backward.add(parent)
                stack.append(parent)
    stats.reorder_visits += len(forward) + len(backward)
    affected = sorted(backward, key=ord_.__getitem__)
    affected += sorted(forward, key=ord_.__getitem__)
    slots = sorted(ord_[node] for node in affected)
    for node, slot in zip(affected, slots):
        ord_[node] = slot
    return False
