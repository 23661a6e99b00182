"""Tests for the parallel execution engine behind campaigns and sweeps."""

import os
import time
import warnings

import pytest

from repro import telemetry
from repro.analysis import pool as pool_module
from repro.analysis.pool import PoolEvent, WorkerPool, run_tasks
from repro.core.result import PoolStats


def _square(task):
    return task * task


def _negate(task):
    return -task


def _pid(task):
    return os.getpid()


def _misbehave(task):
    """Task behaviours keyed by kind: ok / sleep / crash / raise."""
    kind, n = task
    if kind == "sleep":
        time.sleep(60)
    if kind == "crash":
        os._exit(3)
    if kind == "raise":
        raise ValueError("boom")
    return n * n


def _work_then_raise(task):
    """Burn measurable wall and CPU time, then fail."""
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.05:
        pass
    raise ValueError("boom after work")


class TestInline:
    def test_results_in_order(self):
        results, stats = run_tasks(_square, [1, 2, 3, 4])
        assert results == [1, 4, 9, 16]
        assert stats.completed == stats.tasks == 4
        assert stats.hung == stats.retries == 0
        assert stats.workers == 1

    def test_wall_and_cpu_seconds_populated(self):
        _, stats = run_tasks(_square, list(range(50)))
        assert stats.wall_seconds > 0
        assert stats.cpu_seconds >= 0

    def test_progress_events(self):
        events = []
        run_tasks(_square, [5, 6], progress=events.append)
        assert [e.kind for e in events] == ["done", "done"]
        assert [e.completed for e in events] == [1, 2]
        assert events[0].total == 2

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_tasks(_square, [1, 2], labels=["only-one"])


class TestParallel:
    def test_matches_inline_results(self):
        tasks = list(range(20))
        inline, _ = run_tasks(_square, tasks, workers=1)
        parallel, stats = run_tasks(_square, tasks, workers=4)
        assert parallel == inline
        assert stats.completed == 20
        assert sum(stats.per_worker.values()) == 20

    def test_timeout_kills_and_records_hung(self):
        tasks = [("ok", 1), ("sleep", 2), ("ok", 3)]
        results, stats = run_tasks(
            _misbehave, tasks, workers=2, task_timeout=0.5
        )
        assert results == [1, None, 9]
        assert stats.hung == 1
        assert stats.retries == 1  # retried once before giving up
        assert stats.completed == 2

    def test_worker_crash_is_retried_then_hung(self):
        tasks = [("ok", 1), ("crash", 2)]
        results, stats = run_tasks(_misbehave, tasks, workers=2)
        assert results == [1, None]
        assert stats.hung == 1
        assert stats.retries == 1

    def test_task_exception_is_not_fatal(self):
        tasks = [("raise", 1), ("ok", 2)]
        results, stats = run_tasks(_misbehave, tasks, workers=2)
        assert results == [None, 4]
        assert stats.hung == 1

    def test_progress_reports_retries_and_hangs(self):
        events = []
        run_tasks(
            _misbehave, [("sleep", 1)], workers=2,
            task_timeout=0.3, progress=events.append,
        )
        kinds = [e.kind for e in events]
        assert kinds == ["retry", "hung"]
        assert "retrying" in events[0].render()
        assert "HUNG" in events[1].render()

    def test_more_workers_than_tasks(self):
        results, stats = run_tasks(_square, [7], workers=8)
        assert results == [49]

    def test_results_deterministic_across_worker_counts(self):
        # The dispatch queue is FIFO with retries re-entering at the
        # tail; whatever the worker count or interleaving, per-task
        # outcomes (each task determines its own result) are identical.
        tasks = [
            ("raise", 1), ("ok", 2), ("raise", 3), ("ok", 4), ("ok", 5),
            ("ok", 6), ("raise", 7), ("ok", 8),
        ]
        expected = [None, 4, None, 16, 25, 36, None, 64]
        for workers in (1, 2, 4):
            results, stats = run_tasks(_misbehave, tasks, workers=workers)
            assert results == expected, workers
            assert stats.retries == 3 and stats.hung == 3, workers
            assert stats.completed == 5, workers


class TestWorkerPool:
    """One pool serves successive ``run_tasks`` calls."""

    @pytest.fixture
    def spawned(self, monkeypatch):
        """Every ``_Worker`` constructed, in order."""
        made = []

        class Counting(pool_module._Worker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(pool_module, "_Worker", Counting)
        return made

    def test_empty_batch_starts_no_worker(self, spawned):
        results, stats = run_tasks(abs, [], workers=2)
        assert results == []
        assert stats.tasks == 0 and stats.completed == 0
        assert spawned == []

    def test_workers_survive_across_calls(self, spawned):
        with WorkerPool(2) as pool:
            first, _ = run_tasks(_pid, list(range(8)), pool=pool)
            pids = {w.process.pid for w in pool.workers.values()}
            second, stats = run_tasks(_pid, list(range(8)), pool=pool)
            assert {w.process.pid for w in pool.workers.values()} == pids
        assert len(spawned) == 2
        assert set(first) | set(second) <= pids
        assert os.getpid() not in pids
        assert stats.respawns == 0 and stats.workers == 2
        # Leaving the pool shuts every worker down.
        assert not any(w.process.is_alive() for w in spawned)

    def test_each_call_runs_its_own_fn(self):
        with WorkerPool(2) as pool:
            squares, _ = run_tasks(_square, [2, 3, 4], pool=pool)
            negated, _ = run_tasks(_negate, [2, 3, 4], pool=pool)
        assert squares == [4, 9, 16]
        assert negated == [-2, -3, -4]

    def test_timeout_respawns_one_worker_and_the_pool_stays_usable(
        self, spawned
    ):
        with WorkerPool(2) as pool:
            results, stats = run_tasks(
                _misbehave, [("sleep", 1), ("ok", 3)], pool=pool,
                task_timeout=0.3, retries=0,
            )
            assert results == [None, 9]
            assert stats.hung == 1 and stats.respawns == 1
            assert len(spawned) == 3 and len(pool.workers) == 2
            results, stats = run_tasks(_square, [1, 2, 3, 4], pool=pool)
            assert results == [1, 4, 9, 16]
            assert stats.hung == 0 and stats.respawns == 0
        assert len(spawned) == 3

    def test_a_worker_that_died_between_calls_is_replaced(self, spawned):
        with WorkerPool(2) as pool:
            run_tasks(_square, [1, 2], pool=pool)
            victim = next(iter(pool.workers.values()))
            victim.process.kill()
            victim.process.join()
            results, stats = run_tasks(_square, [1, 2, 3], pool=pool)
        assert results == [1, 4, 9]
        assert stats.hung == 0 and stats.retries == 0
        assert stats.respawns == 1

    def test_an_aborted_call_leaves_no_busy_worker(self):
        def boom(index, value):
            raise RuntimeError("sink failed")

        with WorkerPool(2) as pool:
            with pytest.raises(RuntimeError, match="sink failed"):
                run_tasks(
                    _misbehave, [("ok", 1), ("sleep", 2)], pool=pool,
                    on_result=boom,
                )
            assert all(w.busy is None for w in pool.workers.values())
            results, _ = run_tasks(_square, [5, 6], pool=pool)
        assert results == [25, 36]


class TestTimeoutRequiresWorkers:
    def test_inline_timeout_warns(self):
        with pytest.warns(RuntimeWarning, match="task_timeout"):
            results, _ = run_tasks(_square, [3], workers=1, task_timeout=0.5)
        assert results == [9]  # the batch still runs, just untimed

    def test_pooled_timeout_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results, _ = run_tasks(_square, [3], workers=2, task_timeout=30.0)
        assert results == [9]


class TestFailureTiming:
    """Failed-but-measured attempts carry their elapsed time, both paths."""

    def test_inline_failure_events_carry_elapsed(self):
        events = []
        results, stats = run_tasks(
            _work_then_raise, [0], progress=events.append
        )
        assert results == [None]
        assert [e.kind for e in events] == ["retry", "hung"]
        assert all(e.seconds >= 0.05 for e in events)
        assert stats.cpu_seconds > 0.0

    def test_pooled_failure_events_carry_elapsed(self):
        events = []
        results, stats = run_tasks(
            _work_then_raise, [0], workers=2, progress=events.append
        )
        assert results == [None]
        assert [e.kind for e in events] == ["retry", "hung"]
        assert all(e.seconds >= 0.05 for e in events)
        assert stats.cpu_seconds > 0.0

    def test_failed_attempts_land_in_task_seconds_histogram(self):
        tel = telemetry.configure()
        try:
            run_tasks(_work_then_raise, [0])
            hist = tel.snapshot()["histograms"]["pool.task_seconds"]
        finally:
            telemetry.reset()
        # Both measured attempts (initial + retry) are recorded.
        assert hist["count"] == 2
        assert hist["min"] >= 0.05


class TestPoolEvent:
    def test_done_rendering(self):
        event = PoolEvent(
            kind="done", index=0, label="CPU1-bug01", worker=2,
            seconds=1.25, attempt=1, completed=3, total=10,
        )
        text = event.render()
        assert "[worker 2]" in text and "3/10" in text
        assert "CPU1-bug01" in text and "1.25s" in text


class TestPoolStats:
    def test_round_trips_through_dict(self):
        stats = PoolStats(
            tasks=10, completed=8, hung=2, retries=3, workers=4,
            wall_seconds=1.5, cpu_seconds=5.0, per_worker={0: 5, 3: 3},
        )
        assert PoolStats.from_dict(stats.to_dict()) == stats

    def test_to_dict_is_json_safe(self):
        import json

        stats = PoolStats(tasks=2, completed=2, per_worker={1: 2})
        assert json.loads(json.dumps(stats.to_dict()))["per_worker"] == {"1": 2}

    def test_throughput_line(self):
        stats = PoolStats(
            tasks=6, completed=5, hung=1, retries=2, workers=3,
            wall_seconds=2.0, cpu_seconds=5.5,
        )
        line = stats.throughput_line()
        assert "5/6 tasks" in line
        assert "2.0s wall" in line and "5.5s CPU" in line
        assert "2.50 tasks/s" in line
        assert "1 hung" in line and "2 retries" in line

    def test_worker_lines(self):
        stats = PoolStats(per_worker={2: 1, 0: 4})
        assert stats.worker_lines() == [
            "worker 0: 4 tasks", "worker 2: 1 task",
        ]

    def test_zero_wall_throughput(self):
        assert PoolStats(tasks=1, completed=1).tasks_per_second == 0.0
