"""Batched dispatch: determinism regressions.

The contract under test is the invariant of batched dispatch: ``batch``
and ``workers`` change *how* a campaign's hunts execute — task
granularity and process fan-out — never *which* hunts run or what they
record.  Hunt-digest equality (the store's resume witness, schedule and
ops excluded) is the observable, pinned to golden values so that a
change to the one dispatch path cannot move every cell at once.
"""

import dataclasses

import pytest

from repro import telemetry
from repro.analysis.campaign import (
    BugHunt,
    CampaignConfig,
    HuntScratch,
    hunt_batch,
    hunt_bug,
    run_campaign,
)
from repro.generator.config import GeneratorConfig
from repro.service.manifest import CampaignManifest
from repro.service.queue import JobRunner
from repro.service.store import ResultStore, hunt_digest
from repro.sim.cpus import CPU_CONFIGS
from repro.telemetry import MemorySink

#: Small but non-trivial: one CPU roster (three seeded bugs), two
#: attempts each, short racy programs — every (batch, workers) cell
#: below re-runs the identical hunts.
SMALL = CampaignConfig(
    tests_per_bug=2,
    generator=GeneratorConfig(nprocs=2, ops_per_proc=30, shared_words=4),
)
CPUS = CPU_CONFIGS[:1]

#: The ordered hunt digests of ``run_campaign(CPU_CONFIGS[:2], SMALL)``
#: (CPU1's three seeded bugs, then CPU2's seven).  Every batch size,
#: worker count and service drain must reproduce them exactly.
GOLDEN_DIGESTS = [
    "dcfeb211acf4f838", "4e010c8efefbec92", "24d472c949c55797",
    "e41a48b1baafc58b", "ffba0136c610c052", "bcab1e242bb78c18",
    "cf388274b090b70f", "c2eb2d1b280a4a05", "552ee947ff8d32bd",
    "509c58656a5e920d",
]


@pytest.fixture(autouse=True)
def _reset_global_telemetry():
    yield
    telemetry.reset()


def _digests(result):
    return sorted(hunt_digest(h) for h in result.hunts)


class TestBatchDeterminism:
    def test_digest_set_invariant_across_batch_and_workers(self):
        """The satellite regression: batch x workers never changes the
        hunt-digest set."""
        baseline = _digests(run_campaign(CPUS, SMALL, workers=1))
        assert baseline  # the campaign actually ran hunts
        for batch in (4, 16):
            for workers in (1, 4):
                config = dataclasses.replace(SMALL, batch=batch)
                result = run_campaign(CPUS, config, workers=workers)
                assert _digests(result) == baseline, (
                    f"batch={batch} workers={workers} changed the hunts"
                )

    def test_batch_one_with_workers_matches_sequential(self):
        baseline = _digests(run_campaign(CPUS, SMALL, workers=1))
        parallel = _digests(run_campaign(CPUS, SMALL, workers=4))
        assert parallel == baseline

    def test_hunt_batch_matches_individual_hunts(self):
        """One shared scratch across a batch reproduces solo hunts."""
        cpu = CPUS[0]
        work = [(spec, cpu.name, i) for i, spec in enumerate(cpu.bugs)]
        batched = hunt_batch(work, SMALL, scratch=HuntScratch())
        solo = [
            hunt_bug(spec, cpu.name, SMALL, bug_index=i)
            for spec, _, i in work
        ]
        assert [hunt_digest(h) for h in batched] == [
            hunt_digest(h) for h in solo
        ]

    def test_batch_validation(self):
        with pytest.raises(ValueError, match="batch"):
            CampaignConfig(batch=0)


class TestGoldenDigests:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("batch", [1, 4, 16])
    def test_campaign_matches_golden(self, batch, workers):
        config = dataclasses.replace(SMALL, batch=batch)
        result = run_campaign(CPU_CONFIGS[:2], config, workers=workers)
        assert [hunt_digest(h) for h in result.hunts] == GOLDEN_DIGESTS

    @pytest.mark.parametrize("batch", [1, 4])
    def test_job_runner_drain_matches_golden(self, tmp_path, batch):
        manifest = CampaignManifest(
            name="golden", seeds=(SMALL.seed,),
            cpus=tuple(cpu.name for cpu in CPU_CONFIGS[:2]),
            tests_per_bug=SMALL.tests_per_bug, generator=SMALL.generator,
            batch=batch,
        )
        store = ResultStore(str(tmp_path / "job"))
        try:
            result = JobRunner(manifest, store, workers=2).run()
        finally:
            store.close()
        assert [hunt_digest(h) for h in result.hunts] == GOLDEN_DIGESTS


class TestHungChunks:
    def test_hung_chunk_tombstones_every_member(self, monkeypatch):
        """A crashed/timed-out batch task yields one hung tombstone per
        member hunt — batching never silently drops work."""

        def fake_run_tasks(fn, tasks, **kwargs):
            from repro.core.result import PoolStats

            return [None for _ in tasks], PoolStats(tasks=len(tasks))

        import repro.analysis.campaign as campaign

        monkeypatch.setattr(campaign, "run_tasks", fake_run_tasks)
        config = dataclasses.replace(SMALL, batch=4)
        result = run_campaign(CPUS, config, workers=1)
        assert len(result.hunts) == len(CPUS[0].bugs)
        assert all(h.hung and not h.detected for h in result.hunts)
        assert result.exit_code() == 2


class TestBatchTelemetry:
    def test_batch_size_histogram_recorded(self):
        sink = MemorySink()
        tel = telemetry.configure(sinks=[sink])
        cpu = CPUS[0]
        work = [(spec, cpu.name, i) for i, spec in enumerate(cpu.bugs)]
        hunt_batch(work, SMALL)
        hist = tel.snapshot()["histograms"]["pool.batch_size"]
        assert hist["count"] == 1
        assert hist["max"] == len(work)

    def test_machine_resets_counted(self):
        tel = telemetry.configure()
        cpu = CPUS[0]
        work = [(spec, cpu.name, i) for i, spec in enumerate(cpu.bugs)]
        hunt_batch(work, SMALL, scratch=HuntScratch())
        counters = tel.snapshot()["counters"]
        # The first attempt builds the machine; every later attempt in
        # the batch reuses it via reset().
        assert counters["sim.machine_resets"] >= len(work) - 1


class TestOpsAccounting:
    def test_ops_counted_and_digest_excluded(self):
        hunt = hunt_bug(CPUS[0].bugs[0], CPUS[0].name, SMALL)
        assert hunt.ops > 0
        stripped = dataclasses.replace(hunt, ops=0)
        assert hunt_digest(hunt) == hunt_digest(stripped)

    def test_ops_round_trips(self):
        hunt = hunt_bug(CPUS[0].bugs[0], CPUS[0].name, SMALL)
        assert BugHunt.from_dict(hunt.to_dict()).ops == hunt.ops
