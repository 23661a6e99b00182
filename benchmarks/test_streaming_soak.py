"""Streaming-checker soak: bounded live state over a million-op run.

The point of the streaming engine is that checking a run needs memory
proportional to the retirement *window*, not to the run length.  This
soak streams a machine run through ``stream_check_machine`` — checking
each record as the simulator emits it — and asserts the claim
directly: ``live_peak`` (the high-water mark of nodes holding frontier
vectors) must sit at the window cap — orders of
magnitude below the node count — while the verdict stays PASS (golden
runs, any window: retirement may lose inference, never invent edges).

The run is checkpointed from the ``on_record`` hook into a throughput
trend line: if retirement leaked, per-interval ops/s would decay as the
live set grew; bounded memory shows up as a flat trend.

Defaults to >= 1M executed ops (~several minutes).  Set
``TSOTOOL_SOAK_OPS_PER_PROC`` to shrink it — CI's smoke job runs the
classic 100k-op size.

A short window sweep at a smaller size shows the other half of the
claim: the peak tracks the window, not the program.
"""

import os
import time

from repro.core.stream import stream_check_machine
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.sim.machine import TsoMachine

#: 4 procs x 260k ops: comfortably past the >=1M executed-op soak
#: target even after control flow trims some static slots.
SOAK_OPS_PER_PROC = int(os.environ.get("TSOTOOL_SOAK_OPS_PER_PROC", 260_000))
SOAK_CONFIG = GeneratorConfig(
    nprocs=4, ops_per_proc=SOAK_OPS_PER_PROC, shared_words=16
)
SOAK_WINDOW = 4096
#: Pinned nodes (per-address newest stores, roots, in-flight loads) sit
#: outside the retirement queue, so the peak overshoots the window by a
#: small config-dependent margin — but never by another window's worth.
PIN_MARGIN = 512
#: Ten trend-line intervals across the run.
CHECKPOINTS = 10

SWEEP_CONFIG = GeneratorConfig(nprocs=4, ops_per_proc=6_000, shared_words=16)
SWEEP_WINDOWS = (512, 2048)


def _stream(config, seed, window, on_record=None):
    program = generate_program(config, seed=seed)
    machine = TsoMachine(program, seed=seed)
    t0 = time.perf_counter()
    result, execution = stream_check_machine(
        machine, window=window, on_record=on_record
    )
    wall = time.perf_counter() - t0
    ops = sum(len(p) for p in execution.records)
    return result, ops, wall


def test_streaming_soak(record):
    interval = max(1, SOAK_OPS_PER_PROC * SOAK_CONFIG.nprocs // CHECKPOINTS)
    marks = []  # (checked_records, elapsed_s) at each interval boundary
    state = {"checked": 0, "t0": None}

    def checkpoint(pid, rec_idx):
        state["checked"] += 1
        if state["checked"] % interval == 0:
            marks.append((state["checked"], time.perf_counter() - state["t0"]))

    state["t0"] = time.perf_counter()
    result, ops, wall = _stream(
        SOAK_CONFIG, seed=1, window=SOAK_WINDOW, on_record=checkpoint
    )
    stats = result.stats

    assert result.ok, result.explain()
    # Control flow trims a few static slots; the executed count stays
    # within a few percent of nprocs * ops_per_proc.
    assert ops >= int(SOAK_OPS_PER_PROC * SOAK_CONFIG.nprocs * 0.9)
    assert stats.retired_nodes > 0
    # The memory bound: live state capped by the window, not the run.
    assert stats.live_peak <= SOAK_WINDOW + PIN_MARGIN
    assert stats.live_peak < stats.nodes // 10

    rows = [
        f"  ops={ops}  nodes={stats.nodes}  window={SOAK_WINDOW}",
        f"  retired={stats.retired_nodes}  live_peak={stats.live_peak}"
        f"  (cap {SOAK_WINDOW} + pin margin {PIN_MARGIN})",
        f"  verdict=PASS  wall={wall:.1f}s"
        f"  throughput={ops / wall:,.0f} ops/s",
    ]

    # Throughput trend: a retirement leak would show as decay here.
    rows.append("throughput trend (checked records, per-interval ops/s):")
    prev_ops, prev_t = 0, 0.0
    interval_rates = []
    for checked, elapsed in marks:
        rate = (checked - prev_ops) / (elapsed - prev_t)
        interval_rates.append(rate)
        rows.append(f"  {checked:>9,d} checked  {rate:8,.0f} ops/s")
        prev_ops, prev_t = checked, elapsed
    if len(interval_rates) >= 3:
        # Flat, not decaying: the tail interval holds at least half the
        # opening interval's rate (generous slack for host noise).
        assert interval_rates[-1] >= 0.5 * interval_rates[0], (
            "streaming throughput decayed across the soak: "
            f"{interval_rates[0]:,.0f} -> {interval_rates[-1]:,.0f} ops/s"
        )

    # The peak follows the window, not the program: same program, two
    # windows, two proportional peaks.
    rows.append("window sweep (fixed 24k-op program):")
    for window in SWEEP_WINDOWS:
        result, sweep_ops, sweep_wall = _stream(SWEEP_CONFIG, seed=1,
                                                window=window)
        assert result.ok, (window, result.explain())
        assert result.stats.live_peak <= window + PIN_MARGIN
        rows.append(
            f"  window={window:<5d} ops={sweep_ops}"
            f"  live_peak={result.stats.live_peak}"
            f"  retired={result.stats.retired_nodes}"
            f"  wall={sweep_wall:.1f}s"
        )

    record(
        "streaming_soak",
        "Streaming checker soak (live state bounded by the window)\n"
        + "\n".join(rows),
    )
