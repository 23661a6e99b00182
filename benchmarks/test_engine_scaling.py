"""Engine scaling: the batch R1–R7 implementations across problem sizes.

Complements ``test_ablation_checkers.py`` (one size) with a sweep,
recording where each engine's cost structure bites: the traversal
baseline's per-iteration BFS cost, the int-bitset closure's word ops,
the incremental vector-clock engine's frontier maintenance (which buys it
exactly one closure build regardless of iteration count), and the
kernel-batched vck engine, whose round-at-a-time array math is pure
constant-factor overhead at tiny sizes and the clear winner as the
per-round batches grow.

A second table measures the vck/vc time ratio per (CPUs x ops-per-CPU)
shape on both sides of the default engine's kernel threshold
(``AdaptiveVectorChecker.kernel_min_nodes``); it is where that
threshold is read from.
"""

import statistics

import pytest

from repro.core.checker import BaselineChecker
from repro.core.closure import ClosureChecker
from repro.core.vc import VectorClockChecker
from repro.core.vck import AdaptiveVectorChecker, KernelVectorChecker
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.model.expansion import expand
from repro.sim.machine import TsoMachine

ENGINES = {
    "baseline": BaselineChecker,
    "closure": ClosureChecker,
    "vc": VectorClockChecker,  # the scalar loops at every size
    "vck": KernelVectorChecker,
}

#: Total-op sweep; the slower engines are capped at the smaller sizes
#: (the traversal engine's cost at 1600 ops is tens of seconds — the
#: point of the ablation — and the per-pass rebuild engines take tens
#: of seconds at 3200).  The upper sizes exist to separate vc from
#: vck, whose batches only amortize once rounds are big enough.
SIZES = (200, 400, 800, 1600, 3200)
BASELINE_MAX = 400
REBUILD_MAX = 800
_CAPS = {"baseline": BASELINE_MAX, "closure": REBUILD_MAX}


#: (CPUs, ops per CPU) shapes around the kernel threshold.  The
#: vck/vc ratio depends on the chain count (about two per CPU) as well
#: as the node count, so 4-, 8- and 16-CPU shapes sit on both sides.
CROSSOVER_SHAPES = (
    (4, 40), (4, 80), (4, 120), (4, 160), (4, 200),
    (8, 50), (8, 100), (8, 200),
    (16, 25), (16, 50), (16, 100), (16, 400),
)
CROSSOVER_SEEDS = (31, 32, 33)
CROSSOVER_REPEATS = 5


def _aprog(total_ops: int, seed: int = 31, nprocs: int = 4):
    from repro.analysis.runtime import _MEASURE_MIX

    config = GeneratorConfig(
        nprocs=nprocs, ops_per_proc=total_ops // nprocs, shared_words=16,
        mix=_MEASURE_MIX, loop_prob=0.0,
    )
    program = generate_program(config, seed=seed)
    execution = TsoMachine(program, seed=seed).run()
    return expand(execution, initial=program.initial)


@pytest.mark.parametrize("total_ops", SIZES)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_scaling_point(benchmark, engine, total_ops):
    if total_ops > _CAPS.get(engine, max(SIZES)):
        pytest.skip("slow engine capped to keep the bench quick")
    aprog = _aprog(total_ops)
    checker = ENGINES[engine]()
    result = benchmark.pedantic(
        lambda: checker.run(aprog), rounds=2, iterations=1, warmup_rounds=1
    )
    assert result.ok
    benchmark.extra_info.update(engine=engine, total_ops=total_ops,
                                nodes=aprog.n)


def _best_seconds(cls, aprog) -> float:
    best = None
    for _ in range(CROSSOVER_REPEATS):
        result = cls().run(aprog)
        assert result.ok
        if best is None or result.stats.seconds < best:
            best = result.stats.seconds
    return best


def _crossover_rows():
    """One row per shape: nodes and vck/vc time ratio for each seed,
    and the path the default engine takes there."""
    threshold = AdaptiveVectorChecker.kernel_min_nodes
    rows = []
    large_ratios = []
    for nprocs, per_cpu in CROSSOVER_SHAPES:
        nodes, ratios = [], []
        for seed in CROSSOVER_SEEDS:
            aprog = _aprog(nprocs * per_cpu, seed=seed, nprocs=nprocs)
            nodes.append(aprog.n)
            ratios.append(
                _best_seconds(KernelVectorChecker, aprog)
                / _best_seconds(VectorClockChecker, aprog)
            )
            if aprog.n >= 2 * threshold:
                large_ratios.append(ratios[-1])
        paths = {"kernel" if n >= threshold else "scalar" for n in nodes}
        rows.append(
            f"  {nprocs:>2d}x{per_cpu:<4d} nodes="
            + "/".join(f"{n:<5d}" for n in nodes)
            + " vck/vc="
            + " ".join(f"{r:4.2f}" for r in ratios)
            + f"  default vc path={'/'.join(sorted(paths))}"
        )
    return rows, large_ratios


def test_engine_scaling_series(benchmark, record):
    rows = []
    verdicts = set()
    for total_ops in SIZES:
        aprog = _aprog(total_ops)
        cells = [f"  ops={total_ops:<6d} nodes={aprog.n:<6d}"]
        for name, cls in sorted(ENGINES.items()):
            if total_ops > _CAPS.get(name, max(SIZES)):
                cells.append(f"{name}=--")
                continue
            result = cls().run(aprog)
            verdicts.add(result.ok)
            cells.append(f"{name}={result.stats.seconds * 1e3:8.1f}ms")
        rows.append(" ".join(cells))
    crossover, large_ratios = _crossover_rows()
    record(
        "engine_scaling",
        "Engine scaling (same rules, four batch implementations)\n"
        + "\n".join(rows)
        + "\n\nKernel crossover: vck/vc check time, best of "
        f"{CROSSOVER_REPEATS}, seeds {'/'.join(map(str, CROSSOVER_SEEDS))}"
        " (vc = scalar VectorClockChecker); the default vc engine takes "
        f"the kernel path from {AdaptiveVectorChecker.kernel_min_nodes} "
        "nodes\n"
        + "\n".join(crossover),
    )
    assert verdicts == {True}
    # Well past the threshold the kernel path must win.
    assert statistics.median(large_ratios) < 1.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
