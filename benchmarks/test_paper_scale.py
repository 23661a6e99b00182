"""Paper-scale end-to-end run (Sec. 3.2 / 5.2 operating point).

"On physical systems, we typically run TSOtool on configurations of up
to 16 processors with a few thousand memory operations per processor",
and "our analysis algorithm runs in the order of minutes on programs
with about 100,000 operations" on a 450 MHz UltraSPARC-II.

This bench drives the full pipeline once at 16 processors x 400
instructions (≈10k analysis nodes after multi-word expansion) and checks
the whole thing stays in single-digit seconds on a modern laptop — the
scaled-down equivalent of the paper's operating point.
"""

import pytest

from repro.analysis.runtime import measure_runtime
from repro.core.api import ENGINES
from repro.core.vc import VectorClockChecker

NPROCS = 16
SHARED_WORDS = 16
TOTAL_OPS = 6400


def test_sixteen_processor_run(benchmark, record, monkeypatch):
    point = measure_runtime(
        NPROCS, SHARED_WORDS, TOTAL_OPS, seed=12, repeats=1
    )
    # The default (vc) engine takes vck's kernel path at this size, so
    # the scalar vc loops (VectorClockChecker) ride along as the
    # reference the kernels must beat, and the per-pass closure engine
    # shows the structural difference: its rebuild count tracks the
    # fixed-point iteration count, while the frontier engines' stays at
    # one however many passes run.
    vck_point = measure_runtime(
        NPROCS, SHARED_WORDS, TOTAL_OPS, seed=12, repeats=1, engine="vck"
    )
    with monkeypatch.context() as patch:
        # The registry has no scalar-only entry; swap the class in.
        patch.setitem(ENGINES, "vc", VectorClockChecker)
        scalar_point = measure_runtime(
            NPROCS, SHARED_WORDS, TOTAL_OPS, seed=12, repeats=1
        )
    closure_point = measure_runtime(
        NPROCS, SHARED_WORDS, TOTAL_OPS, seed=12, repeats=1, engine="closure"
    )
    record(
        "paper_scale",
        "Paper-scale operating point (16 CPUs, 400 instructions each)\n"
        f"  vc (default) {point.row()}\n"
        f"  vck          {vck_point.row()}\n"
        f"  vc scalar    {scalar_point.row()}\n"
        f"  closure      {closure_point.row()}",
    )
    assert point.nodes > 8_000
    assert point.seconds < 60.0, "analysis fell off a cliff at paper scale"
    assert point.closure_rebuilds == 1
    assert closure_point.closure_rebuilds >= closure_point.iterations
    assert vck_point.closure_rebuilds == 1
    # The kernel path's reason to exist: >= 3x over the scalar vc loops
    # at paper scale (with slack for shared-runner noise — the measured
    # gap is comfortably above the bound).
    assert vck_point.seconds * 2.5 < scalar_point.seconds, (
        f"vck lost its batching edge: {vck_point.seconds:.2f}s vs "
        f"scalar vc {scalar_point.seconds:.2f}s"
    )

    benchmark.pedantic(
        lambda: measure_runtime(NPROCS, SHARED_WORDS, TOTAL_OPS, seed=12),
        rounds=1, iterations=1,
    )
