"""Tests for the crash-safe result store: recording, dedup, recovery."""

import json
import os
import sys
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.campaign import BugHunt
from repro.sched.spec import SchedSpec
from repro.sched.trace import ScheduleTrace
from repro.service.manifest import CampaignManifest
from repro.service.store import ResultStore, failure_digest, hunt_digest
from repro.sim.cpus import cpu_by_name


def manifest(**kwargs):
    defaults = dict(name="s", seeds=(1,), cpus=("CPU1",), tests_per_bug=2)
    defaults.update(kwargs)
    return CampaignManifest(**defaults)


def make_hunt(bug_index=0, detected=True, schedule=None, via="TSO violation"):
    spec = cpu_by_name("CPU1").bugs[bug_index]
    return BugHunt(
        spec=spec, cpu="CPU1", detected=detected,
        tests_run=1 if detected else 2,
        detected_on_seed=11 if detected else None,
        via=via if detected else "", schedule=schedule,
    )


def make_schedule(choices=(("c", 1),)):
    trace = ScheduleTrace(policy="random")
    trace.choices.extend(choices)
    trace.meta.update({
        "kind": "hunt",
        "fault": {"mechanism": "StaleForwardFault", "unit": "LSU"},
    })
    return trace.to_json()


class TestDigests:
    def test_hunt_digest_ignores_schedule(self):
        with_trace = make_hunt(schedule=make_schedule())
        without = make_hunt(schedule=None)
        assert hunt_digest(with_trace) == hunt_digest(without)

    def test_hunt_digest_sensitive_to_outcome(self):
        assert hunt_digest(make_hunt(detected=True)) != \
            hunt_digest(make_hunt(detected=False))

    def test_failure_digest_none_without_detection_or_trace(self):
        assert failure_digest(make_hunt(detected=False)) is None
        assert failure_digest(make_hunt(detected=True, schedule=None)) is None

    def test_failure_digest_keys_on_behavior(self):
        a = make_hunt(schedule=make_schedule())
        b = make_hunt(schedule=make_schedule())
        assert failure_digest(a) == failure_digest(b)
        different_choices = make_hunt(
            schedule=make_schedule(choices=(("c", 0),))
        )
        assert failure_digest(a) != failure_digest(different_choices)
        different_verdict = make_hunt(
            schedule=make_schedule(), via="spurious alarm"
        )
        assert failure_digest(a) != failure_digest(different_verdict)


class TestRecording:
    def test_record_and_reload(self, tmp_path):
        store = ResultStore(str(tmp_path))
        hunt = make_hunt()
        digest, dedup = store.record_hunt("shard-a", 0, hunt)
        assert dedup is None
        store.mark_shard_done("shard-a")
        store.close()

        fresh = ResultStore(str(tmp_path))
        assert fresh.completed_hunts("shard-a") == {0: hunt}
        assert fresh.shard_done("shard-a")
        assert fresh.hunt_digests() == {digest}

    def test_identical_duplicate_record_is_idempotent(self, tmp_path):
        """A duplicate delivery of the *same* hunt (a late pool reply, a
        fleet overlap) is a no-op: no second line, same return value."""
        store = ResultStore(str(tmp_path))
        digest, dedup = store.record_hunt("shard-a", 0, make_hunt())
        again = store.record_hunt("shard-a", 0, make_hunt())
        assert again == (digest, dedup)
        path = os.path.join(str(tmp_path), "shards", "shard-a.jsonl")
        lines = [json.loads(x) for x in open(path) if x.strip()]
        assert sum(1 for d in lines if d["kind"] == "hunt") == 1

    def test_conflicting_record_raises(self, tmp_path):
        """Two *different* real outcomes for one (shard, bug) is a
        scheduler bug, never silently absorbed."""
        store = ResultStore(str(tmp_path))
        store.record_hunt("shard-a", 0, make_hunt(detected=True))
        with pytest.raises(ValueError, match="already"):
            store.record_hunt("shard-a", 0, make_hunt(detected=False))

    def test_real_result_supersedes_hung_tombstone(self, tmp_path):
        store = ResultStore(str(tmp_path))
        hung = BugHunt(
            spec=cpu_by_name("CPU1").bugs[0], cpu="CPU1", detected=False,
            tests_run=0, via="worker crashed or timed out", hung=True,
        )
        store.record_hunt("shard-a", 0, hung)
        real = make_hunt()
        store.record_hunt("shard-a", 0, real)
        assert store.completed_hunts("shard-a") == {0: real}
        store.close()
        # The replacement wins on replay too (later line supersedes).
        fresh = ResultStore(str(tmp_path))
        assert fresh.completed_hunts("shard-a") == {0: real}
        assert not fresh.completed_hunts("shard-a")[0].hung

    def test_late_hung_tombstone_never_clobbers_a_real_result(self, tmp_path):
        store = ResultStore(str(tmp_path))
        real = make_hunt()
        digest, _ = store.record_hunt("shard-a", 0, real)
        hung = BugHunt(
            spec=cpu_by_name("CPU1").bugs[0], cpu="CPU1", detected=False,
            tests_run=0, via="worker crashed or timed out", hung=True,
        )
        assert store.record_hunt("shard-a", 0, hung)[0] == digest
        assert store.completed_hunts("shard-a") == {0: real}

    def test_dedup_buckets_identical_detections(self, tmp_path):
        store = ResultStore(str(tmp_path))
        first = make_hunt(schedule=make_schedule())
        digest_a, dedup_a = store.record_hunt("shard-a", 0, first)
        digest_b, dedup_b = store.record_hunt("shard-b", 0, first)
        assert dedup_a is None              # first occurrence keeps trace
        assert dedup_b is not None          # duplicate was bucketed
        assert store.completed_hunts("shard-a")[0].schedule is not None
        assert store.completed_hunts("shard-b")[0].schedule is None
        # The stored duplicate digests identically to the original —
        # the digest excludes the schedule by design.
        assert digest_a == digest_b
        assert store.buckets() == {dedup_b: 2}
        assert store.schedule_for(dedup_b) == first.schedule

    def test_bucket_counts_survive_reload(self, tmp_path):
        store = ResultStore(str(tmp_path))
        hunt = make_hunt(schedule=make_schedule())
        store.record_hunt("a", 0, hunt)
        store.record_hunt("b", 0, hunt)
        store.record_hunt("c", 0, hunt)
        store.close()
        fresh = ResultStore(str(tmp_path))
        assert list(fresh.buckets().values()) == [3]
        assert fresh.schedule_for(failure_digest(hunt)) == hunt.schedule


class TestCrashRecovery:
    """Satellite: the store survives a SIGKILL's torn trailing line."""

    def _torn_store(self, tmp_path, keep_bytes=None):
        """A store with hunts 0 and 1 recorded, then the file torn
        mid-way through hunt 1's line (no shard-done marker)."""
        m = manifest()
        shard = m.shards()[0]
        store = ResultStore(str(tmp_path))
        store.record_hunt(shard.shard_id, 0, make_hunt(0))
        store.record_hunt(shard.shard_id, 1, make_hunt(1))
        store.close()
        path = os.path.join(str(tmp_path), "shards",
                            f"{shard.shard_id}.jsonl")
        lines = open(path).read().splitlines(True)
        torn = lines[1][: len(lines[1]) // 2] if keep_bytes is None else \
            lines[1][:keep_bytes]
        with open(path, "w") as fh:
            fh.write(lines[0])
            fh.write(torn)
        return m, shard, path

    def test_torn_trailing_line_skipped_with_warning(self, tmp_path):
        m, shard, path = self._torn_store(tmp_path)
        with pytest.warns(RuntimeWarning, match="torn append"):
            store = ResultStore(str(tmp_path))
        # The intact hunt is kept; only the torn one is lost.
        assert set(store.completed_hunts(shard.shard_id)) == {0}

    def test_resume_requeues_only_the_torn_hunt(self, tmp_path):
        m, shard, _ = self._torn_store(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            store = ResultStore(str(tmp_path))
        pending = store.pending(m)
        assert [(s.shard_id, missing) for s, missing in pending] == [
            (shard.shard_id, [1, 2])  # torn hunt 1 + never-run hunt 2
        ]

    def test_completed_shard_is_never_requeued(self, tmp_path):
        m = manifest()
        shard = m.shards()[0]
        store = ResultStore(str(tmp_path))
        for i in range(shard.hunt_count()):
            store.record_hunt(shard.shard_id, i, make_hunt(i))
        store.mark_shard_done(shard.shard_id)
        store.close()
        fresh = ResultStore(str(tmp_path))
        assert fresh.pending(m) == []

    def test_empty_trailing_junk_is_harmless(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.record_hunt("a", 0, make_hunt())
        store.close()
        path = os.path.join(str(tmp_path), "shards", "a.jsonl")
        with open(path, "a") as fh:
            fh.write("\n\n{not json")
        with pytest.warns(RuntimeWarning):
            fresh = ResultStore(str(tmp_path))
        assert set(fresh.completed_hunts("a")) == {0}


class TestMarkerValidation:
    """Satellite: a done marker outliving a torn mid-file hunt line must
    not wedge the job (pending() skipping it while merged() raises)."""

    def _done_store(self, tmp_path):
        m = manifest()
        shard = m.shards()[0]
        store = ResultStore(str(tmp_path))
        for i in range(shard.hunt_count()):
            store.record_hunt(shard.shard_id, i, make_hunt(i))
        store.mark_shard_done(shard.shard_id)
        store.close()
        path = os.path.join(str(tmp_path), "shards",
                            f"{shard.shard_id}.jsonl")
        return m, shard, path

    def test_marker_with_missing_hunts_demotes_shard(self, tmp_path):
        m, shard, path = self._done_store(tmp_path)
        lines = open(path).read().splitlines(True)
        # Corrupt a *mid-file* hunt line; the done marker survives.
        with open(path, "w") as fh:
            fh.write(lines[0])
            fh.write(lines[1][: len(lines[1]) // 2] + "\n")
            for line in lines[2:]:
                fh.write(line)
        with pytest.warns(RuntimeWarning, match="demoting"):
            store = ResultStore(str(tmp_path))
        assert not store.shard_done(shard.shard_id)
        # The missing hunt is re-queued; intact ones are reused.
        pending = store.pending(m)
        assert [(s.shard_id, missing) for s, missing in pending] == [
            (shard.shard_id, [1])
        ]

    def test_demoted_shard_completes_on_resume(self, tmp_path):
        m, shard, path = self._done_store(tmp_path)
        lines = open(path).read().splitlines(True)
        with open(path, "w") as fh:
            fh.write(lines[0])
            fh.write(lines[1][: len(lines[1]) // 2] + "\n")
            for line in lines[2:]:
                fh.write(line)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            store = ResultStore(str(tmp_path))
        # Resume records the missing hunt and re-marks the shard: the
        # wedge (pending empty + merged raising forever) is gone.
        store.record_hunt(shard.shard_id, 1, make_hunt(1))
        store.mark_shard_done(shard.shard_id)
        assert store.pending(m) == []
        store.close()
        fresh = ResultStore(str(tmp_path))
        assert fresh.shard_done(shard.shard_id)
        assert fresh.pending(m) == []

    def test_pending_checks_marker_against_manifest_hunt_count(
        self, tmp_path
    ):
        """A marker consistent with its *loaded* records but short of the
        manifest's hunt count still re-queues the difference."""
        m = manifest()
        shard = m.shards()[0]
        store = ResultStore(str(tmp_path))
        store.record_hunt(shard.shard_id, 0, make_hunt(0))
        store.mark_shard_done(shard.shard_id)  # marker says 1 hunt
        assert shard.hunt_count() > 1
        pending = store.pending(m)
        assert [(s.shard_id, missing) for s, missing in pending] == [
            (shard.shard_id, list(range(1, shard.hunt_count())))
        ]


class TestHungRequeue:
    """Satellite: a hung record is a tombstone, not a completion —
    resume retries it by default instead of pinning exit code 2."""

    def _hung(self, bug_index=0):
        return BugHunt(
            spec=cpu_by_name("CPU1").bugs[bug_index], cpu="CPU1",
            detected=False, tests_run=0,
            via="worker crashed or timed out", hung=True,
        )

    def test_pending_requeues_hung_hunts(self, tmp_path):
        m = manifest()
        shard = m.shards()[0]
        store = ResultStore(str(tmp_path))
        for i in range(shard.hunt_count()):
            store.record_hunt(
                shard.shard_id, i, self._hung(i) if i == 1 else make_hunt(i)
            )
        store.mark_shard_done(shard.shard_id)
        store.close()
        fresh = ResultStore(str(tmp_path))
        pending = fresh.pending(m)
        assert [(s.shard_id, missing) for s, missing in pending] == [
            (shard.shard_id, [1])
        ]

    def test_requeue_hung_false_keeps_tombstones_final(self, tmp_path):
        m = manifest()
        shard = m.shards()[0]
        store = ResultStore(str(tmp_path))
        for i in range(shard.hunt_count()):
            store.record_hunt(
                shard.shard_id, i, self._hung(i) if i == 1 else make_hunt(i)
            )
        store.mark_shard_done(shard.shard_id)
        store.close()
        fresh = ResultStore(str(tmp_path), requeue_hung=False)
        assert fresh.pending(m) == []


class TestCompaction:
    """Satellite: compaction preserves the hunt-digest set, the stored
    dedup references and schedule_for resolution."""

    def test_compact_preserves_digests_and_dedup(self, tmp_path):
        store = ResultStore(str(tmp_path))
        first = make_hunt(schedule=make_schedule())
        store.record_hunt("shard-a", 0, first)
        store.record_hunt("shard-b", 0, first)   # bucketed duplicate
        store.record_hunt("shard-a", 1, make_hunt(1, detected=False))
        # Lease churn + a superseded tombstone: all compacted away.
        store.append_lease("shard-a", "claim", "h1-1", time=1.0, expires=9.0)
        hung = BugHunt(
            spec=cpu_by_name("CPU1").bugs[2], cpu="CPU1", detected=False,
            tests_run=0, via="worker crashed or timed out", hung=True,
        )
        store.record_hunt("shard-a", 2, hung)
        store.record_hunt("shard-a", 2, make_hunt(2))
        store.append_lease("shard-a", "release", "h1-1", time=2.0, expires=2.0)
        store.mark_shard_done("shard-a")
        store.mark_shard_done("shard-b")
        digests = store.hunt_digests()
        bucket = failure_digest(first)

        deltas = store.compact()
        assert set(deltas) == {"shard-a", "shard-b"}
        before, after = deltas["shard-a"]
        assert after == 4  # three winning hunts + one marker
        assert before > after
        store.close()

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a torn rewrite would warn
            fresh = ResultStore(str(tmp_path))
        assert fresh.hunt_digests() == digests
        assert fresh.shard_done("shard-a") and fresh.shard_done("shard-b")
        assert not fresh.completed_hunts("shard-a")[2].hung
        # The bucketed duplicate still resolves to the canonical trace.
        assert fresh.completed_hunts("shard-b")[0].schedule is None
        assert fresh.schedule_for(bucket) == first.schedule

    def test_compact_refuses_live_shards(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.record_hunt("shard-a", 0, make_hunt())
        with pytest.raises(ValueError, match="not done"):
            store.compact_shard("shard-a")
        assert store.compact() == {}

    def test_append_after_compact_lands_in_the_new_file(self, tmp_path):
        """The cached O_APPEND fd must not keep writing to the unlinked
        pre-compaction inode."""
        store = ResultStore(str(tmp_path))
        store.record_hunt("shard-a", 0, make_hunt(0))
        store.mark_shard_done("shard-a")
        store.compact_shard("shard-a")
        store.record_hunt("shard-a", 1, make_hunt(1))
        store.close()
        fresh = ResultStore(str(tmp_path))
        assert set(fresh.completed_hunts("shard-a")) == {0, 1}


class TestSummary:
    def test_summary_counts(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.record_hunt("a", 0, make_hunt(0))
        store.record_hunt("a", 1, make_hunt(1, detected=False))
        store.mark_shard_done("a")
        hung = BugHunt(
            spec=cpu_by_name("CPU1").bugs[0], cpu="CPU1", detected=False,
            tests_run=0, via="worker crashed or timed out", hung=True,
        )
        store.record_hunt("b", 0, hung)
        summary = store.summary()
        assert summary["hunts_recorded"] == 3
        assert summary["hunts_detected"] == 1
        assert summary["hunts_hung"] == 1
        assert summary["shards_done"] == 1
        assert summary["shards"]["a"]["done"] is True
        assert summary["shards"]["b"]["done"] is False
        assert json.loads(json.dumps(summary)) == summary  # JSON-safe


# ---------------------------------------------------------------------------
# Tail-read equivalence: a refreshed handle equals a freshly opened store
# ---------------------------------------------------------------------------

_TAIL_MANIFEST = manifest(seeds=(1, 2))
_TAIL_SHARDS = [s.shard_id for s in _TAIL_MANIFEST.shards()]
_OWNERS = ("h1-1", "h2-2")


def _tail_hunt(shard_pos, bug_index, kind):
    """The hunt a (shard, bug) pair records: one real outcome per pair
    (so two handles never record conflicting results) or a tombstone.
    Detected hunts share schedules across shards, exercising dedup."""
    if kind == "hung":
        return BugHunt(
            spec=cpu_by_name("CPU1").bugs[bug_index], cpu="CPU1",
            detected=False, tests_run=0,
            via="worker crashed or timed out", hung=True,
        )
    detected = (shard_pos + bug_index) % 2 == 0
    return make_hunt(
        bug_index, detected=detected,
        schedule=make_schedule(choices=(("c", bug_index),))
        if detected else None,
    )


_handle = st.integers(0, 1)
_shard = st.integers(0, len(_TAIL_SHARDS) - 1)
_tail_ops = st.lists(
    st.one_of(
        st.tuples(st.just("hunt"), _handle, _shard, st.integers(0, 2),
                  st.sampled_from(["real", "hung"])),
        st.tuples(st.just("lease"), _handle, _shard,
                  st.sampled_from(["claim", "renew", "release"]),
                  st.sampled_from(_OWNERS), st.integers(0, 20)),
        st.tuples(st.just("done"), _handle, _shard),
        st.tuples(st.just("compact"), _handle, _shard),
        st.tuples(st.just("torn"), _shard, st.integers(1, 200)),
        st.tuples(st.just("truncate"), _shard, st.floats(0.0, 1.0)),
        st.tuples(st.just("refresh"), _handle),
    ),
    max_size=30,
)


def _view(store, m):
    """Everything a runner or the status endpoint reads from a store."""
    return {
        "summary": store.summary(),
        "pending": [(s.shard_id, missing) for s, missing in store.pending(m)],
        "digests": store.hunt_digests(),
        "buckets": store.buckets(),
        "leases": {
            sid: (store.lease_state(sid), store.lease_history(sid))
            for sid in _TAIL_SHARDS
        },
    }


class TestTailReadEquivalence:
    """``refresh()`` folds only the bytes past each file's offset, with
    a whole re-read on compaction (inode change), truncation, a folded
    unterminated tail, or an own append that landed behind unread peer
    lines.  Whatever two handles append, interleaved, after a refresh
    each must read exactly what a freshly opened store reads."""

    @settings(
        max_examples=120, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=_tail_ops)
    def test_refreshed_handles_equal_a_fresh_store(self, ops):
        with tempfile.TemporaryDirectory() as root, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            handles = [ResultStore(root), ResultStore(root)]
            try:
                for op in ops:
                    self._apply(root, handles, op)
                for handle in handles:
                    handle.refresh()
                fresh = ResultStore(root)
                expected = _view(fresh, _TAIL_MANIFEST)
                fresh.close()
                for handle in handles:
                    assert _view(handle, _TAIL_MANIFEST) == expected
            finally:
                for handle in handles:
                    handle.close()

    def test_peer_compaction_is_reread_whole(self, tmp_path):
        """A peer's compaction replaces the file; appends that grow the
        new file past this handle's old offset must not be tailed."""
        a = ResultStore(str(tmp_path))
        b = ResultStore(str(tmp_path))
        b.record_hunt("s", 0, make_hunt(0))  # b caches an append fd
        a.refresh()
        a.append_lease("s", "claim", "h1-1", time=1.0, expires=9.0)
        a.mark_shard_done("s")
        b.refresh()
        a.compact_shard("s")  # drops the lease history
        a.record_hunt("s", 1, make_hunt(1))
        a.record_hunt("s", 2, make_hunt(2))
        assert os.path.getsize(a._shard_path("s")) > b._shards["s"].offset
        b.refresh()
        fresh = ResultStore(str(tmp_path))
        assert set(b.completed_hunts("s")) == {0, 1, 2}
        assert b.lease_state("s") is None and not b.lease_history("s")
        assert b.summary() == fresh.summary()
        # b's next append goes to the new file, not the unlinked one.
        b.append_lease("s", "claim", "h2-2", time=5.0, expires=9.0)
        fresh.refresh()
        assert fresh.lease_state("s").owner == "h2-2"
        for store in (a, b, fresh):
            store.close()

    def test_folded_unterminated_tail_is_never_folded_twice(self, tmp_path):
        """A decodable line without its newline is folded, but the next
        append glues onto it and the pair becomes one corrupt line: the
        reader must drop what it folded, as a fresh open does."""
        a = ResultStore(str(tmp_path))
        b = ResultStore(str(tmp_path))
        a.record_hunt("s", 0, make_hunt(0))
        path = a._shard_path("s")
        with open(path, "ab") as fh:
            fh.write(_canonical_line("s")[:-1])
        b.refresh()
        assert b.lease_state("s").owner == "torn"
        a.record_hunt("s", 1, make_hunt(1))
        b.refresh()
        assert b.lease_state("s") is None
        assert set(b.completed_hunts("s")) == {0}
        a.close()
        b.close()

    def test_heartbeat_thread_appends_during_reads(self, tmp_path):
        """The lease heartbeat appends from its own thread while the
        runner records, a peer appends and the runner refreshes; the
        view still equals a fresh store afterwards."""
        import threading

        store = ResultStore(str(tmp_path))
        peer = ResultStore(str(tmp_path))
        stop = threading.Event()

        def beat():
            t = 0.0
            while not stop.is_set():
                t += 1.0
                store.append_lease(
                    _TAIL_SHARDS[0], "renew", "h1-1", time=t, expires=t + 5
                )

        store.append_lease(
            _TAIL_SHARDS[0], "claim", "h1-1", time=0.0, expires=5.0
        )
        thread = threading.Thread(target=beat)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-append often
        thread.start()
        try:
            for i in range(3):
                for pos, shard_id in enumerate(_TAIL_SHARDS):
                    store.record_hunt(shard_id, i, _tail_hunt(pos, i, "real"))
                    peer.append_lease(
                        shard_id, "claim", "h2-2", time=50.0, expires=60.0
                    )
                    store.refresh()
                    store.refresh_shard(shard_id)
        finally:
            stop.set()
            thread.join()
            sys.setswitchinterval(interval)
        store.refresh()
        fresh = ResultStore(str(tmp_path))
        assert _view(store, _TAIL_MANIFEST) == _view(fresh, _TAIL_MANIFEST)
        for handle in (store, peer, fresh):
            handle.close()

    @staticmethod
    def _apply(root, handles, op):
        kind = op[0]
        if kind == "hunt":
            _, h, pos, index, variant = op
            handles[h].record_hunt(
                _TAIL_SHARDS[pos], index, _tail_hunt(pos, index, variant)
            )
        elif kind == "lease":
            _, h, pos, lease_op, owner, t = op
            handles[h].append_lease(
                _TAIL_SHARDS[pos], lease_op, owner,
                time=float(t), expires=float(t + 5),
            )
        elif kind == "done":
            handles[op[1]].mark_shard_done(_TAIL_SHARDS[op[2]])
        elif kind == "compact":
            store = handles[op[1]]
            if store.shard_done(_TAIL_SHARDS[op[2]]):
                store.compact_shard(_TAIL_SHARDS[op[2]])
        elif kind == "torn":
            # A killed writer's partial line: no newline, cut anywhere
            # up to a whole decodable document.
            line = _canonical_line(_TAIL_SHARDS[op[1]])
            path = os.path.join(root, "shards", f"{_TAIL_SHARDS[op[1]]}.jsonl")
            with open(path, "ab") as fh:
                fh.write(line[: min(op[2], len(line) - 1)])
        elif kind == "truncate":
            path = os.path.join(root, "shards", f"{_TAIL_SHARDS[op[1]]}.jsonl")
            if os.path.exists(path):
                size = os.path.getsize(path)
                os.truncate(path, int(size * op[2]))
                # The shrink is observed before anyone appends again: a
                # file rewritten in place back past a reader's offset is
                # outside the append-only contract (see ResultStore).
                for handle in handles:
                    handle.refresh_shard(_TAIL_SHARDS[op[1]])
        else:
            handles[op[1]].refresh()


def _canonical_line(shard_id):
    doc = {"kind": "lease", "op": "claim", "shard": shard_id,
           "owner": "torn", "time": 0.0, "expires": 1.0, "v": 1}
    return (json.dumps(doc, separators=(",", ":"), sort_keys=True)
            + "\n").encode()


class TestTailReadCost:
    """Each hunt line is parsed once, not once per refresh."""

    def _counting(self, monkeypatch):
        calls = []
        original = BugHunt.from_dict.__func__

        def counting(cls, data):
            calls.append(1)
            return original(cls, data)

        monkeypatch.setattr(BugHunt, "from_dict", classmethod(counting))
        return calls

    @staticmethod
    def _hunt_lines(root):
        count = 0
        for name in os.listdir(os.path.join(root, "shards")):
            with open(os.path.join(root, "shards", name)) as fh:
                count += sum(1 for line in fh if '"kind":"hunt"' in line)
        return count

    def test_drain_parses_each_hunt_line_at_most_once(
        self, tmp_path, monkeypatch
    ):
        from repro.service.queue import JobRunner

        calls = self._counting(monkeypatch)
        m = manifest(seeds=(1, 2, 3), cpus=("CPU1", "CPU2"), tests_per_bug=1)
        store = ResultStore(str(tmp_path))
        observer = ResultStore(str(tmp_path))
        JobRunner(m, store, workers=2).run()
        drained = len(calls)
        lines = self._hunt_lines(str(tmp_path))
        assert lines == m.hunt_count()
        # One runner, no peers: its own lines are folded as appended and
        # no fallback re-read happens, so the drain parses nothing.
        assert drained == 0
        # A second handle picks every line up once, however often it
        # refreshes.
        for _ in range(3):
            observer.refresh()
        assert len(calls) - drained == lines
        assert observer.hunt_digests() == store.hunt_digests()
        store.close()
        observer.close()

    def test_own_append_behind_a_peer_line_forces_a_whole_reread(
        self, tmp_path, monkeypatch
    ):
        a = ResultStore(str(tmp_path))
        b = ResultStore(str(tmp_path))
        a.record_hunt("s", 0, make_hunt(0))
        b.record_hunt("s", 1, make_hunt(1))  # lands behind a's unread line
        calls = self._counting(monkeypatch)
        b.refresh()
        assert len(calls) == 2  # whole re-read: both lines
        assert set(b.completed_hunts("s")) == {0, 1}
        a.refresh()
        assert len(calls) == 3  # tail read: only b's line
        assert set(a.completed_hunts("s")) == {0, 1}
        a.close()
        b.close()
