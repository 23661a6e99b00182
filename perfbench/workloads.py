"""The benchmark's workloads.

Each workload is a closed loop of *rounds* driven from this process: the
next round starts only when the previous one has returned.  A round is
one call into the program's public API on inputs derived from the
workload seed; :meth:`Workload.check_round` then verifies its outputs
outside the timed region.

* ``campaign`` — the default six-CPU roster at ``tests_per_bug=3``
  through ``run_campaign`` in-process (``workers=1``).  Every round
  repeats the same campaign seed, so every round after the first checks
  that the hunt digests repeat exactly.
* ``paper-scale`` — one fault-free 16-CPU x 400-op trace per round,
  generated, simulated and checked; every trace must PASS.
* ``service-drain`` — a manifest of 2120 tiny 2x2-op hunts (20 seeds,
  all six CPUs, ``batch=16``) drained by ``JobRunner`` into a fresh
  store at up to two workers; its hunt digests must equal those
  ``run_campaign`` produces for the same manifest.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, List, Optional, Sequence

from repro.analysis.campaign import CampaignConfig, run_campaign
from repro.core.api import check
from repro.generator.config import GeneratorConfig, InstructionMix
from repro.generator.generator import generate_program
from repro.service.manifest import CampaignManifest
from repro.service.queue import JobRunner
from repro.service.store import ResultStore, hunt_digest
from repro.sim.cpus import CPU_CONFIGS
from repro.sim.machine import MachineConfig, TsoMachine

#: Loads, stores and atomics only, as in ``measure_runtime`` and the
#: paper-scale benchmark, so the node count tracks the op count.
PAPER_MIX = InstructionMix(
    load=40.0, store=40.0, swap=3.0, cas=3.0, membar=3.0,
    block_load=0.0, block_store=0.0, nonfaulting_load=0.0,
    prefetch=0.0, flush=0.0, branch=0.0, interrupt=0.0,
)


@dataclass
class RoundOutcome:
    """What one round resolved, checked outside the timed region."""

    items: int
    ops: int
    failed: int
    #: Wall seconds per resolved item (hunt or trace).
    latencies: List[float] = field(default_factory=list)
    #: Digest of the round's outputs (equal rounds, equal digests).
    digest: str = ""


def _digest(parts: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _mismatches(got: Sequence[str], want: Sequence[str]) -> int:
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


class Workload:
    """One named workload; ``size`` is ``full`` or ``tiny`` (smoke test)."""

    name = ""

    def __init__(self, seed: int, size: str, work_dir: str) -> None:
        self.seed = seed
        self.size = size
        self.work_dir = work_dir

    def inputs(self) -> str:
        """The inputs the program receives, as text."""
        raise NotImplementedError

    def setup(self) -> None:
        """Warm-up before timing: a small run through the same path."""
        raise NotImplementedError

    def prepare_round(self, index: int) -> None:
        """Untimed per-round preparation."""

    def run_round(self, index: int) -> Any:
        """The timed call into the program."""
        raise NotImplementedError

    def check_round(self, index: int, raw: Any) -> RoundOutcome:
        """Verify a round's outputs (untimed)."""
        raise NotImplementedError


class CampaignWorkload(Workload):
    name = "campaign"

    def __init__(self, seed: int, size: str, work_dir: str) -> None:
        super().__init__(seed, size, work_dir)
        if size == "tiny":
            self.cpus = list(CPU_CONFIGS[:1])
            base = CampaignConfig()
            self.config = CampaignConfig(
                tests_per_bug=1, seed=seed,
                generator=replace(base.generator, nprocs=2, ops_per_proc=8),
            )
        else:
            self.cpus = list(CPU_CONFIGS)
            self.config = CampaignConfig(tests_per_bug=3, seed=seed)
        self.reference: Optional[List[str]] = None

    def inputs(self) -> str:
        return f"cpus={[c.name for c in self.cpus]} config={self.config!r}"

    def setup(self) -> None:
        run_campaign(
            cpus=self.cpus[:1], config=replace(self.config, tests_per_bug=1)
        )

    def run_round(self, index: int) -> Any:
        events: List[Any] = []
        result = run_campaign(
            cpus=self.cpus, config=self.config, progress=events.append
        )
        return result, events

    def check_round(self, index: int, raw: Any) -> RoundOutcome:
        result, events = raw
        digests = [hunt_digest(h) for h in result.hunts]
        if self.reference is None:
            self.reference = digests
        failed = sum(h.hung for h in result.hunts)
        failed += _mismatches(digests, self.reference)
        return RoundOutcome(
            items=len(result.hunts),
            ops=sum(h.ops for h in result.hunts),
            failed=min(failed, len(result.hunts)),
            latencies=[e.seconds for e in events if e.kind == "done"],
            digest=_digest(digests),
        )


class PaperScaleWorkload(Workload):
    name = "paper-scale"

    def __init__(self, seed: int, size: str, work_dir: str) -> None:
        super().__init__(seed, size, work_dir)
        if size == "tiny":
            shape = dict(nprocs=4, ops_per_proc=25, shared_words=4)
        else:
            shape = dict(nprocs=16, ops_per_proc=400, shared_words=16)
        self.config = GeneratorConfig(mix=PAPER_MIX, loop_prob=0.0, **shape)

    def trace_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def inputs(self) -> str:
        return f"config={self.config!r} seeds={self.trace_seed(0)}+i"

    def _trace(self, config: GeneratorConfig, seed: int) -> Any:
        program = generate_program(config, seed=seed)
        start = perf_counter()
        machine = TsoMachine(program, seed=seed, config=MachineConfig())
        execution = machine.run()
        result = check(program, execution)
        return program, machine, result, perf_counter() - start

    def setup(self) -> None:
        small = replace(
            self.config, nprocs=4, ops_per_proc=min(100, self.config.ops_per_proc)
        )
        self._trace(small, self.trace_seed(999))

    def run_round(self, index: int) -> Any:
        return self._trace(self.config, self.trace_seed(index))

    def check_round(self, index: int, raw: Any) -> RoundOutcome:
        program, machine, result, verdict_s = raw
        return RoundOutcome(
            items=1,
            ops=sum(len(cpu.records) for cpu in machine.cpus),
            # The machine has no faults: a FAIL flags a TSO-valid run.
            failed=0 if result.ok else 1,
            latencies=[verdict_s],
            digest=_digest([repr(program)]),
        )


class ServiceDrainWorkload(Workload):
    name = "service-drain"

    def __init__(self, seed: int, size: str, work_dir: str) -> None:
        super().__init__(seed, size, work_dir)
        tiny_gen = replace(CampaignConfig().generator, nprocs=2, ops_per_proc=2)
        nseeds, cpus, batch = (2, ("CPU1",), 4) if size == "tiny" else (20, (), 16)
        self.manifest = CampaignManifest(
            name="perfbench-drain",
            seeds=tuple(seed * 100 + i for i in range(nseeds)),
            cpus=cpus, tests_per_bug=1, generator=tiny_gen, batch=batch,
        )
        self.workers = min(2, os.cpu_count() or 1)
        self.reference: Optional[List[str]] = None
        self._root = ""

    def inputs(self) -> str:
        return f"manifest={self.manifest.to_json()} workers={self.workers}"

    def _store_dir(self, tag: str) -> str:
        path = os.path.join(self.work_dir, f"store-{tag}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _drain(self, manifest: CampaignManifest, root: str, events: list) -> Any:
        store = ResultStore(root)
        try:
            return JobRunner(
                manifest, store, workers=self.workers, progress=events.append
            ).run()
        finally:
            store.close()

    def setup(self) -> None:
        warm = replace(
            self.manifest, name="perfbench-warm", seeds=self.manifest.seeds[:1],
            cpus=("CPU1",),
        )
        root = self._store_dir("warm")
        self._drain(warm, root, [])
        shutil.rmtree(root, ignore_errors=True)

    def prepare_round(self, index: int) -> None:
        self._root = self._store_dir(str(index))

    def run_round(self, index: int) -> Any:
        events: List[Any] = []
        return self._drain(self.manifest, self._root, events), events

    def _reference(self) -> List[str]:
        if self.reference is None:
            cpus = self.manifest.cpu_configs()
            self.reference = [
                hunt_digest(h)
                for seed in self.manifest.seeds
                for h in run_campaign(
                    cpus=cpus, config=self.manifest.campaign_config(seed)
                ).hunts
            ]
        return self.reference

    def check_round(self, index: int, raw: Any) -> RoundOutcome:
        result, events = raw
        shutil.rmtree(self._root, ignore_errors=True)
        digests = [hunt_digest(h) for h in result.hunts]
        failed = sum(h.hung for h in result.hunts)
        failed += _mismatches(digests, self._reference())
        latencies: List[float] = []
        for event in events:
            if event.kind != "done":
                continue
            # A batched task's label ends in "(+k)" for its k extra hunts.
            label = event.label
            hunts = 1
            if label.endswith(")") and "(+" in label:
                hunts += int(label[label.rindex("(+") + 2 : -1])
            latencies.extend([event.seconds / hunts] * hunts)
        return RoundOutcome(
            items=len(result.hunts),
            ops=sum(h.ops for h in result.hunts),
            failed=min(failed, len(result.hunts)),
            latencies=latencies,
            digest=_digest(digests),
        )


WORKLOADS = {
    cls.name: cls
    for cls in (CampaignWorkload, PaperScaleWorkload, ServiceDrainWorkload)
}
