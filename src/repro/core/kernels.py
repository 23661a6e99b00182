"""Vectorized compute kernels for the chain-frontier checker engines.

The vc engine (``core/vc.py``) made the R1–R7 analysis incremental:
frontier vectors over a chain decomposition answer R6/R7 candidate
queries in O(k), and Pearce–Kelly keeps cycle detection local.  What is
left on the table at paper scale is pure interpreter overhead — per-item
``bisect`` calls, per-(candidate, observer) suppression tests, and
per-entry frontier merges are all tight Python loops over small numbers.
This module is the compute layer that batches those loops into a few
array operations per *address* per fixed-point round:

* :func:`build_frontiers` — both frontier matrices as row-major
  ``(n, k)`` int32 arrays via the initial closure DP: the frontier
  merge is ``np.maximum``/``np.minimum`` over parent/child chain rows,
  one row per node in topological order (scalar reference: the vc
  engine's own DP, :func:`repro.core.vc.frontier_vectors`).
* :func:`refresh_forward`/:func:`refresh_backward` — delta closure
  propagation: after a round of edge inserts, re-close the frontier
  matrices by re-merging only the rows downstream of a change, in
  topological order.  One wavefront sweep per round replaces the scalar
  engine's per-edge flood (hundreds of thousands of single-entry
  updates at paper scale).
* :class:`AddrSpanIndex` + :func:`r6_spans`/:func:`r7_spans` — batched
  R6/R7 candidate discovery.  Each address's per-chain sorted store
  positions are concatenated into one strictly increasing array by
  offsetting chain ``j``'s positions by ``j * (n + 2)``, so *all* chain
  interval queries of all work items resolve in a single
  ``np.searchsorted`` call instead of two ``bisect`` calls per (item,
  chain).  Watermark vectors make the scan a delta: every (item,
  candidate) pair is enumerated at most once across the whole fixed
  point — sound because frontiers move monotonically and inserted edges
  are permanent, so a pair once examined never needs re-examination.
* :func:`suppression_mask` — the R7 implied-edge test for a whole batch
  of (candidate, observer) pairs as one fancy-indexed compare against
  the backward-frontier view.

The consumers are the vck engine at every size and the default vc
engine (:class:`repro.core.vck.AdaptiveVectorChecker`) on programs of
at least its ``kernel_min_nodes`` nodes.

numpy is an *optional* extra (``pip install repro[fast]``).  Every
kernel has a scalar reference implementation that the randomized kernel
unit tests compare it against.  The references are not a fallback:
without numpy both engines run the vc engine's inherited scalar
methods rather than failing to import (see ``docs/performance.md``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Sequence, Tuple

try:  # pragma: no cover - exercised via the no-numpy fallback test
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False


# ---------------------------------------------------------------------------
# Frontier matrices
# ---------------------------------------------------------------------------


def build_frontiers(
    n: int,
    k: int,
    order: Sequence[int],
    pred: Sequence[Sequence[int]],
    succ: Sequence[Sequence[int]],
    chain_of: Sequence[int],
    pos_of: Sequence[int],
):
    """One-pass closure DP producing both frontier matrices.

    Returns ``(m_to, m_from)`` as ``(n, k)`` int32 arrays (positions
    never exceed the ``n + 1`` sentinel, and half the width of int64
    is most of a paper-scale check's memory): ``m_to[v][c]``
    is the highest position in chain ``c`` reaching ``v`` (-1: none),
    ``m_from[v][c]`` the lowest position reachable from ``v``
    (``n + 1``: none); both include ``v`` itself.  This is the frontier
    merge kernel — ``np.maximum``/``np.minimum`` over the already-final
    parent/child chain rows, nodes visited in topological order
    (scalar reference: :func:`repro.core.vc.frontier_vectors`).
    """
    m_to = np.full((n, k), -1, dtype=np.int32)
    m_from = np.full((n, k), n + 1, dtype=np.int32)
    for node in order:
        parents = pred[node]
        row = m_to[node]
        if len(parents) == 1:
            row[:] = m_to[parents[0]]
        elif parents:
            np.maximum.reduce(m_to[parents], axis=0, out=row)
        chain = chain_of[node]
        if pos_of[node] > row[chain]:
            row[chain] = pos_of[node]
    for node in reversed(order):
        children = succ[node]
        row = m_from[node]
        if len(children) == 1:
            row[:] = m_from[children[0]]
        elif children:
            np.minimum.reduce(m_from[children], axis=0, out=row)
        chain = chain_of[node]
        if pos_of[node] < row[chain]:
            row[chain] = pos_of[node]
    return m_to, m_from


def sweep_schedule(order, neighbors):
    """Level schedule for batched closure sweeps.

    Groups the nodes by longest-path depth from their ``neighbors``
    side (``pred`` for a forward sweep over ``order``, ``succ`` for a
    backward sweep over ``reversed(order)``) and flattens each group's
    ``[node] + neighbors[node]`` lists into reduceat-ready arrays.
    Within a level no node depends on another, so a whole level's rows
    merge in one ``np.maximum.reduceat``/``np.minimum.reduceat`` call.
    Depth-0 nodes have no neighbors and are omitted — their rows are
    already final.

    Returns a list of ``(targets, concat, starts)`` int64 array
    triples, one per level ``>= 1``.
    """
    n = len(order)
    level = [0] * n
    depth = 0
    for node in order:
        lv = 0
        for nb in neighbors[node]:
            lnb = level[nb]
            if lnb >= lv:
                lv = lnb + 1
        level[node] = lv
        if lv > depth:
            depth = lv
    targets: List[List[int]] = [[] for _ in range(depth + 1)]
    concat: List[List[int]] = [[] for _ in range(depth + 1)]
    starts: List[List[int]] = [[] for _ in range(depth + 1)]
    for node in order:
        lv = level[node]
        if lv == 0:
            continue
        starts[lv].append(len(concat[lv]))
        targets[lv].append(node)
        concat[lv].append(node)
        concat[lv].extend(neighbors[node])
    return [
        (
            np.asarray(targets[lv], dtype=np.int64),
            np.asarray(concat[lv], dtype=np.int64),
            np.asarray(starts[lv], dtype=np.int64),
        )
        for lv in range(1, depth + 1)
        if targets[lv]
    ]


def run_sweep(mat, schedule, minimize: bool = False) -> None:
    """Execute a closure sweep over a :func:`sweep_schedule`.

    For each level, gathers every target's ``[own row] + neighbor
    rows`` block and folds each block with one segmented reduce.
    Including the node's own (current) row makes the merge monotone —
    stale entries are valid bounds, so the same sweep serves both the
    from-scratch build and the post-round delta refresh.
    """
    reduce_op = np.minimum.reduceat if minimize else np.maximum.reduceat
    for targets, concat, starts in schedule:
        mat[targets] = reduce_op(mat[concat], starts, axis=0)


def refresh_forward(m_to, order, pred, succ, sources) -> int:
    """Delta closure propagation: re-close ``m_to`` after edge inserts.

    ``sources`` are the target endpoints of edges added since the last
    refresh; their rows were already improved by the insertion-time
    shallow merge, so the sweep *pushes*: each dirty node's (final) row
    is compared against every child row and merged in only where it
    improves it, marking the child dirty.  Visiting nodes in
    topological ``order`` makes each row final before it is pushed, and
    the push style propagates past pre-merged source rows — a pull
    recompute would see "no change" at the source and kill the
    wavefront one hop early.  Rows only ever move up, so the in-place
    ``np.maximum`` merge is exact — stale entries are valid lower
    bounds.  Returns the number of rows pushed (the propagation
    wavefront, for kernel accounting).
    """
    n = len(order)
    dirty = bytearray(n)
    for node in sources:
        dirty[node] = 1
    touched = 0
    maximum = np.maximum
    for node in order:
        if not dirty[node]:
            continue
        touched += 1
        row = m_to[node]
        for child in succ[node]:
            child_row = m_to[child]
            if (row > child_row).any():
                maximum(child_row, row, out=child_row)
                dirty[child] = 1
    return touched


def refresh_backward(m_from, order, pred, succ, sources) -> int:
    """Mirror of :func:`refresh_forward` for the backward frontiers:
    ``sources`` are the source endpoints of new edges, the push sweep
    runs in reverse topological order merging each dirty node's row
    upward into its parents with ``np.minimum``."""
    n = len(order)
    dirty = bytearray(n)
    for node in sources:
        dirty[node] = 1
    touched = 0
    minimum = np.minimum
    for node in reversed(order):
        if not dirty[node]:
            continue
        touched += 1
        row = m_from[node]
        for parent in pred[node]:
            parent_row = m_from[parent]
            if (row < parent_row).any():
                minimum(parent_row, row, out=parent_row)
                dirty[parent] = 1
    return touched


# ---------------------------------------------------------------------------
# Batched R6/R7 candidate discovery
# ---------------------------------------------------------------------------


class AddrSpanIndex:
    """One address's store positions, flattened for batched searches.

    Chain ``j`` of the address contributes its sorted store positions
    offset by ``j * stride`` (``stride = n + 2`` exceeds every encoded
    position *and* the ``inf`` sentinel), so the concatenation is
    strictly increasing and a single sorted search answers interval
    queries for any (item, chain) pair.  ``flat_nodes`` maps each slot
    back to its store's node id.
    """

    __slots__ = (
        "chains", "stride", "flat_enc", "flat_nodes", "seg_end",
        "chains_np", "flat_enc_np", "flat_nodes_np", "seg_end_np", "offsets_np",
    )

    def __init__(
        self,
        entries: Sequence[Tuple[int, Sequence[int]]],
        chain_nodes: Sequence[Sequence[int]],
        n: int,
    ) -> None:
        self.chains: List[int] = [chain for chain, _ in entries]
        self.stride = n + 2
        flat_enc: List[int] = []
        flat_nodes: List[int] = []
        seg_end: List[int] = []
        for j, (chain, positions) in enumerate(entries):
            offset = j * self.stride
            members = chain_nodes[chain]
            flat_enc.extend(pos + offset for pos in positions)
            flat_nodes.extend(members[pos] for pos in positions)
            seg_end.append(len(flat_enc))
        self.flat_enc = flat_enc
        self.flat_nodes = flat_nodes
        self.seg_end = seg_end
        if HAVE_NUMPY:
            self.chains_np = np.asarray(self.chains, dtype=np.int64)
            self.flat_enc_np = np.asarray(flat_enc, dtype=np.int64)
            self.flat_nodes_np = np.asarray(flat_nodes, dtype=np.int64)
            self.seg_end_np = np.asarray(seg_end, dtype=np.int64)
            self.offsets_np = (
                np.arange(len(self.chains), dtype=np.int64) * self.stride
            )


def concat_ranges(starts, counts):
    """Flatten ``[starts[i], starts[i] + counts[i])`` index ranges.

    The standard multi-range gather: the result indexes ``counts.sum()``
    elements, range ``i``'s slots appearing consecutively in order.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shifted = np.cumsum(counts) - counts
    return np.repeat(starts - shifted, counts) + np.arange(total, dtype=np.int64)


def concat_ranges_scalar(starts: Sequence[int], counts: Sequence[int]) -> List[int]:
    """Reference implementation of :func:`concat_ranges` (pure Python)."""
    out: List[int] = []
    for start, count in zip(starts, counts):
        out.extend(range(start, start + count))
    return out


def r6_spans(index: AddrSpanIndex, lo_enc, hi_enc, watermark):
    """Batched delta R6 discovery for one address.

    ``lo_enc``/``hi_enc`` are flattened (item-major) encoded interval
    bounds — chain ``j``'s frontier position plus ``j * stride`` — for
    every (item, chain) pair; candidates are the stores in
    ``(lo, hi]`` not yet scanned per the ``watermark`` (updated in
    place to the new high-water index).  Returns ``(pair, cand)``:
    the flat (item, chain) row of each discovered candidate and its
    store node id, item-major, chains in index order, positions
    ascending — the scalar engines' enumeration order.
    """
    flat = index.flat_enc_np
    lo_idx = np.searchsorted(flat, lo_enc, side="right")
    hi_idx = np.searchsorted(flat, hi_enc, side="right")
    starts = np.maximum(lo_idx, watermark)
    counts = np.maximum(hi_idx - starts, 0)
    np.maximum(watermark, hi_idx, out=watermark)
    if not counts.any():
        return None, None
    pair = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    cand = index.flat_nodes_np[concat_ranges(starts, counts)]
    return pair, cand


def r7_spans(index: AddrSpanIndex, lo_enc, watermark):
    """Batched delta R7 discovery for one address.

    Candidates are the stores at encoded position ``>= lo`` not yet
    scanned: the scanned region is a *suffix* ``[watermark, seg_end)``
    per (item, chain), because R7's lower bound only ever moves down as
    backward frontiers improve.  ``watermark`` starts at each chain's
    segment end and is updated in place to the new low-water index.
    """
    flat = index.flat_enc_np
    lo_idx = np.searchsorted(flat, lo_enc, side="left")
    counts = np.maximum(watermark - lo_idx, 0)
    np.minimum(watermark, lo_idx, out=watermark)
    if not counts.any():
        return None, None
    pair = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    cand = index.flat_nodes_np[concat_ranges(lo_idx, counts)]
    return pair, cand


def r6_spans_scalar(
    index: AddrSpanIndex,
    lo: Sequence[Sequence[int]],
    hi: Sequence[Sequence[int]],
    watermark: List[List[int]],
) -> Tuple[List[int], List[int]]:
    """Reference implementation of :func:`r6_spans`: per-(item, chain)
    ``bisect`` interval queries with the same watermark delta."""
    pairs: List[int] = []
    cands: List[int] = []
    flat_enc, flat_nodes = index.flat_enc, index.flat_nodes
    stride = index.stride
    m = len(index.chains)
    for i, (lo_row, hi_row) in enumerate(zip(lo, hi)):
        marks = watermark[i]
        for j in range(m):
            offset = j * stride
            lo_idx = bisect_right(flat_enc, lo_row[j] + offset)
            hi_idx = bisect_right(flat_enc, hi_row[j] + offset)
            start = max(lo_idx, marks[j])
            if hi_idx > marks[j]:
                marks[j] = hi_idx
            for slot in range(start, hi_idx):
                pairs.append(i * m + j)
                cands.append(flat_nodes[slot])
    return pairs, cands


def r7_spans_scalar(
    index: AddrSpanIndex,
    lo: Sequence[Sequence[int]],
    watermark: List[List[int]],
) -> Tuple[List[int], List[int]]:
    """Reference implementation of :func:`r7_spans`."""
    pairs: List[int] = []
    cands: List[int] = []
    flat_enc, flat_nodes = index.flat_enc, index.flat_nodes
    stride = index.stride
    m = len(index.chains)
    for i, lo_row in enumerate(lo):
        marks = watermark[i]
        for j in range(m):
            lo_idx = bisect_left(flat_enc, lo_row[j] + j * stride)
            end = marks[j]
            if lo_idx < end:
                marks[j] = lo_idx
            for slot in range(lo_idx, end):
                pairs.append(i * m + j)
                cands.append(flat_nodes[slot])
    return pairs, cands


def suppression_mask(from_mat, nodes, chains, limits):
    """Batched R7 implied-edge test.

    Element ``t`` asks whether observer ``nodes[t]`` already reaches the
    candidate's group entry point — i.e. whether its backward frontier
    in ``chains[t]`` is at or below ``limits[t]``.  Returns the boolean
    *keep* mask (True: not suppressed, the edge must be inserted).
    """
    return from_mat[nodes, chains] > limits


def suppression_mask_scalar(
    from_rows: Sequence[Sequence[int]],
    nodes: Sequence[int],
    chains: Sequence[int],
    limits: Sequence[int],
) -> List[bool]:
    """Reference implementation of :func:`suppression_mask` over
    row-major frontier lists."""
    return [
        from_rows[node][chain] > limit
        for node, chain, limit in zip(nodes, chains, limits)
    ]
