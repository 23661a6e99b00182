"""Randomized kernel-vs-scalar unit tests for ``repro.core.kernels``.

Every vectorized kernel ships with a pure-Python reference (for the
frontier DP that is the vc engine's own ``frontier_vectors``).  These tests drive both over the same randomly
generated DAGs, chain decompositions, and query batches and demand
bit-identical results — the contract that lets the vck engine swap the
scalar loops for array calls without changing a single verdict.
"""

import random

import pytest

from repro.core.kernels import (
    HAVE_NUMPY,
    AddrSpanIndex,
    build_frontiers,
    concat_ranges,
    concat_ranges_scalar,
    r6_spans,
    r6_spans_scalar,
    r7_spans,
    r7_spans_scalar,
    refresh_backward,
    refresh_forward,
    run_sweep,
    suppression_mask,
    suppression_mask_scalar,
    sweep_schedule,
)
from repro.core.vc import frontier_vectors

np = pytest.importorskip("numpy") if HAVE_NUMPY else pytest.skip(
    "numpy not installed; kernel fast paths unavailable", allow_module_level=True
)

SEEDS = range(8)


def _random_dag(rng, n):
    """A random DAG over ``0..n-1`` whose identity order is topological."""
    pred = [[] for _ in range(n)]
    succ = [[] for _ in range(n)]
    for v in range(1, n):
        for u in rng.sample(range(v), min(v, rng.randrange(0, 4))):
            pred[v].append(u)
            succ[u].append(v)
    return pred, succ


def _random_chains(rng, n, k):
    """Assign every node a (chain, position) with positions increasing
    along the identity (topological) order within each chain."""
    chain_of = [rng.randrange(k) for _ in range(n)]
    counters = [0] * k
    pos_of = [0] * n
    for node in range(n):
        pos_of[node] = counters[chain_of[node]]
        counters[chain_of[node]] += 1
    return chain_of, pos_of


@pytest.mark.parametrize("seed", SEEDS)
def test_build_frontiers_matches_scalar(seed):
    rng = random.Random(seed)
    n, k = rng.randrange(2, 40), rng.randrange(1, 6)
    pred, succ = _random_dag(rng, n)
    chain_of, pos_of = _random_chains(rng, n, k)
    order = list(range(n))
    m_to, m_from = build_frontiers(n, k, order, pred, succ, chain_of, pos_of)
    rows_to, rows_from = frontier_vectors(
        n, k, order, pred, succ, chain_of, pos_of
    )
    assert m_to.tolist() == rows_to
    assert m_from.tolist() == rows_from


@pytest.mark.parametrize("seed", SEEDS)
def test_refresh_matches_rebuild_after_edge_inserts(seed):
    # The delta refresh (per-node wavefront) and the level-scheduled
    # sweep must both reproduce exactly what a from-scratch build of the
    # post-insert graph computes.
    rng = random.Random(seed)
    n, k = rng.randrange(4, 40), rng.randrange(1, 6)
    pred, succ = _random_dag(rng, n)
    chain_of, pos_of = _random_chains(rng, n, k)
    order = list(range(n))
    m_to, m_from = build_frontiers(n, k, order, pred, succ, chain_of, pos_of)
    sweep_to = m_to.copy()
    sweep_from = m_from.copy()

    fwd_dirty, bwd_dirty = [], []
    for _ in range(rng.randrange(1, 5)):
        u = rng.randrange(n - 1)
        v = rng.randrange(u + 1, n)
        if v in succ[u]:
            continue
        succ[u].append(v)
        pred[v].append(u)
        # Mirror the vck engine: insertion does the shallow row merge
        # immediately; the refresh must still propagate past the merged
        # row even though its recompute shows no further change.
        np.maximum(m_to[v], m_to[u], out=m_to[v])
        np.minimum(m_from[u], m_from[v], out=m_from[u])
        np.maximum(sweep_to[v], sweep_to[u], out=sweep_to[v])
        np.minimum(sweep_from[u], sweep_from[v], out=sweep_from[u])
        fwd_dirty.append(v)
        bwd_dirty.append(u)

    want_to, want_from = build_frontiers(
        n, k, order, pred, succ, chain_of, pos_of
    )

    refresh_forward(m_to, order, pred, succ, fwd_dirty)
    refresh_backward(m_from, order, pred, succ, bwd_dirty)
    assert (m_to == want_to).all()
    assert (m_from == want_from).all()

    run_sweep(sweep_to, sweep_schedule(order, pred))
    rev = list(reversed(order))
    run_sweep(sweep_from, sweep_schedule(rev, succ), minimize=True)
    assert (sweep_to == want_to).all()
    assert (sweep_from == want_from).all()


@pytest.mark.parametrize("seed", SEEDS)
def test_concat_ranges_matches_scalar(seed):
    rng = random.Random(seed)
    m = rng.randrange(0, 12)
    starts = [rng.randrange(0, 50) for _ in range(m)]
    counts = [rng.randrange(0, 6) for _ in range(m)]
    got = concat_ranges(
        np.asarray(starts, dtype=np.int64), np.asarray(counts, dtype=np.int64)
    )
    assert got.tolist() == concat_ranges_scalar(starts, counts)


def _random_span_index(rng, n, k):
    """A fabricated per-address span index: each chain gets synthetic
    node ids at increasing positions, a random subset of chains holds
    stores of the address."""
    chain_nodes = []
    node = 0
    for _ in range(k):
        members = []
        for _ in range(rng.randrange(1, 8)):
            members.append(node)
            node += 1
        chain_nodes.append(members)
    entries = []
    for chain in rng.sample(range(k), rng.randrange(1, k + 1)):
        npos = len(chain_nodes[chain])
        positions = sorted(rng.sample(range(npos), rng.randrange(1, npos + 1)))
        entries.append((chain, positions))
    return AddrSpanIndex(entries, chain_nodes, n)


def _encode(index, rows):
    flat = []
    for row in rows:
        for j in range(len(index.chains)):
            flat.append(row[j] + j * index.stride)
    return np.asarray(flat, dtype=np.int64)


@pytest.mark.parametrize("seed", SEEDS)
def test_r6_spans_matches_scalar_across_rounds(seed):
    rng = random.Random(seed)
    n, k = 64, rng.randrange(2, 6)
    index = _random_span_index(rng, n, k)
    m = len(index.chains)
    items = rng.randrange(1, 5)
    marks_np = np.zeros(items * m, dtype=np.int64)
    marks_sc = [[0] * m for _ in range(items)]
    # Monotonically widen the (lo, hi] windows round over round, the way
    # moving frontiers do; the watermark must make each candidate appear
    # exactly once across the whole sequence.
    lo = [[-1] * m for _ in range(items)]
    hi = [[-1] * m for _ in range(items)]
    for _ in range(4):
        for row in hi:
            for j in range(m):
                row[j] = min(n, row[j] + rng.randrange(0, 4))
        for i, row in enumerate(lo):
            for j in range(m):
                row[j] = min(hi[i][j], max(row[j], rng.randrange(-1, 3)))
        pair, cand = r6_spans(index, _encode(index, lo), _encode(index, hi), marks_np)
        pairs_sc, cands_sc = r6_spans_scalar(index, lo, hi, marks_sc)
        got = ([], []) if pair is None else (pair.tolist(), cand.tolist())
        assert got == (pairs_sc, cands_sc)
    assert marks_np.tolist() == [x for row in marks_sc for x in row]


@pytest.mark.parametrize("seed", SEEDS)
def test_r7_spans_matches_scalar_across_rounds(seed):
    rng = random.Random(seed)
    n, k = 64, rng.randrange(2, 6)
    index = _random_span_index(rng, n, k)
    m = len(index.chains)
    items = rng.randrange(1, 5)
    seg_start = [0] + index.seg_end[:-1]
    marks_np = np.asarray(index.seg_end * items, dtype=np.int64).reshape(
        items, m
    ).flatten()
    marks_sc = [list(index.seg_end) for _ in range(items)]
    # R7 windows only extend downward (backward frontiers improve).
    lo = [[n + 1] * m for _ in range(items)]
    for _ in range(4):
        for row in lo:
            for j in range(m):
                row[j] = max(0, row[j] - rng.randrange(0, 4))
        pair, cand = r7_spans(index, _encode(index, lo), marks_np)
        pairs_sc, cands_sc = r7_spans_scalar(index, lo, marks_sc)
        got = ([], []) if pair is None else (pair.tolist(), cand.tolist())
        assert got == (pairs_sc, cands_sc)
    assert marks_np.tolist() == [x for row in marks_sc for x in row]
    assert all(
        mark >= start
        for row in marks_sc
        for mark, start in zip(row, seg_start)
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_suppression_mask_matches_scalar(seed):
    rng = random.Random(seed)
    n, k, t = 30, 4, 25
    from_rows = [[rng.randrange(0, n + 2) for _ in range(k)] for _ in range(n)]
    nodes = [rng.randrange(n) for _ in range(t)]
    chains = [rng.randrange(k) for _ in range(t)]
    limits = [rng.randrange(-1, n + 2) for _ in range(t)]
    got = suppression_mask(
        np.asarray(from_rows, dtype=np.int64),
        np.asarray(nodes, dtype=np.int64),
        np.asarray(chains, dtype=np.int64),
        np.asarray(limits, dtype=np.int64),
    )
    assert got.tolist() == suppression_mask_scalar(from_rows, nodes, chains, limits)
