"""Fault-injection tests for the process pool.

Exercises every way a task can go wrong — raising, exiting, killing its
own pipe, sleeping past the timeout — and pins the batch-level contract:
results stay in order, :class:`PoolStats` accounts for every attempt,
and the batch always terminates.  The close-pipe case runs under an
outer watchdog process because the pre-fix failure mode was an infinite
100% CPU busy-loop in the parent.
"""

import os
import sys
import time

import pytest

from repro import telemetry
from repro.analysis import pool as pool_module
from repro.analysis.pool import _mp_context, run_tasks
from repro.telemetry import MemorySink


def _raise(task):
    raise ValueError(f"boom {task}")


def _faulty(task):
    """Task behaviours keyed by kind: ok / raise / exit / close / sleep."""
    kind, n = task
    if kind == "raise":
        raise ValueError("boom")
    if kind == "exit":
        sys.exit(1)
    if kind == "die":
        # A real worker death: sys.exit would be caught and reported as
        # an in-worker error; only _exit leaves the parent a dead pipe.
        os._exit(1)
    if kind == "close":
        # Sever the worker's pipe to the parent, then stay alive: the
        # parent sees EOF on a conn whose process is still running.
        os.closerange(3, 1024)
        time.sleep(600)
    if kind == "sleep":
        time.sleep(600)
    return n * n


class TestRaisingTasks:
    """Satellite #1: inline and pooled raising tasks behave identically."""

    def test_inline_raise_does_not_crash_the_batch(self):
        results, stats = run_tasks(_raise, [1, 2, 3], workers=1)
        assert results == [None, None, None]
        assert stats.hung == 3
        assert stats.retries == 3
        assert stats.completed == 0

    def test_inline_and_pool_hung_counts_match(self):
        _, inline = run_tasks(_raise, [1, 2, 3], workers=1)
        _, pooled = run_tasks(_raise, [1, 2, 3], workers=4)
        assert inline.hung == pooled.hung == 3
        assert inline.retries == pooled.retries == 3
        assert inline.completed == pooled.completed == 0

    def test_inline_mixed_batch_results_in_order(self):
        tasks = [("ok", 2), ("raise", 0), ("ok", 3)]
        results, stats = run_tasks(_faulty, tasks, workers=1)
        assert results == [4, None, 9]
        assert stats.completed == 2 and stats.hung == 1

    def test_inline_retry_budget_respected(self):
        _, stats = run_tasks(_raise, [1], workers=1, retries=3)
        assert stats.retries == 3
        assert stats.hung == 1

    def test_inline_zero_retries(self):
        _, stats = run_tasks(_raise, [1], workers=1, retries=0)
        assert stats.retries == 0
        assert stats.hung == 1

    def test_keyboard_interrupt_still_aborts_inline(self):
        import pytest

        def interrupt(task):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_tasks(interrupt, [1], workers=1)


class TestExitingTasks:
    def test_sys_exit_in_worker_is_retried_then_hung(self):
        tasks = [("ok", 2), ("exit", 0)]
        results, stats = run_tasks(_faulty, tasks, workers=2)
        assert results == [4, None]
        assert stats.hung == 1
        assert stats.retries == 1


class TestTimeouts:
    def test_sleep_past_timeout_is_killed(self):
        tasks = [("ok", 2), ("sleep", 0), ("ok", 3)]
        results, stats = run_tasks(
            _faulty, tasks, workers=2, task_timeout=0.5
        )
        assert results == [4, None, 9]
        assert stats.hung == 1
        assert stats.completed == 2


def _broken_pipe_batch():
    """Child entry point: a close-pipe task with no task timeout.

    Pre-fix this never returns — the parent pool busy-loops on the dead
    conn (the worker process is alive, so the liveness scan never fires
    and ``task_timeout=None`` means nothing else can).  Post-fix the
    failed recv is treated as worker death and the batch finishes.
    """
    tasks = [("ok", 2), ("close", 0)]
    results, stats = run_tasks(_faulty, tasks, workers=2, task_timeout=None)
    assert results == [4, None]
    assert stats.hung == 1
    assert stats.retries == 1
    os._exit(0)


class TestBrokenPipe:
    """Satellite #2: a failed recv() is worker death, not a busy-loop."""

    def test_broken_pipe_batch_terminates(self):
        # The pool's workers are daemonic, so the batch under test runs
        # in a fresh non-daemon process; the join timeout is the
        # watchdog that converts the pre-fix infinite loop into a
        # failure instead of hanging the suite.
        ctx = _mp_context()
        child = ctx.Process(target=_broken_pipe_batch)
        child.start()
        child.join(timeout=60)
        try:
            assert child.exitcode == 0, (
                "broken-pipe batch did not terminate cleanly "
                f"(exitcode={child.exitcode})"
            )
        finally:
            if child.is_alive():
                child.kill()
                child.join(timeout=5)


class TestRespawnAccounting:
    """A worker death is visible: PoolStats.respawns + pool.respawns."""

    def test_worker_death_counts_respawns(self):
        tasks = [("ok", 2), ("die", 0)]
        _, stats = run_tasks(_faulty, tasks, workers=2)
        assert stats.respawns >= 1
        assert "respawn" in stats.throughput_line()

    def test_in_worker_error_is_not_a_respawn(self):
        # sys.exit / raise are reported over the pipe; the worker lives.
        _, stats = run_tasks(_faulty, [("ok", 2), ("exit", 0)], workers=2)
        assert stats.respawns == 0

    def test_clean_batch_has_no_respawns(self):
        _, stats = run_tasks(_faulty, [("ok", 2), ("ok", 3)], workers=2)
        assert stats.respawns == 0
        assert "respawn" not in stats.throughput_line()

    def test_inline_path_never_respawns(self):
        _, stats = run_tasks(_raise, [1, 2], workers=1)
        assert stats.respawns == 0

    def test_timeout_kill_counts_as_respawn(self):
        tasks = [("ok", 2), ("sleep", 0)]
        _, stats = run_tasks(_faulty, tasks, workers=2, task_timeout=0.5)
        assert stats.respawns >= 1

    def test_respawns_reach_the_telemetry_counter(self):
        telemetry.configure(sinks=[MemorySink()])
        try:
            run_tasks(_faulty, [("die", 0)], workers=2)
            counters = telemetry.get_telemetry().snapshot()["counters"]
            assert counters.get("pool.respawns", 0) >= 1
        finally:
            telemetry.reset()

    def test_respawns_round_trip_through_to_dict(self):
        _, stats = run_tasks(_faulty, [("die", 0)], workers=2)
        from repro.core.result import PoolStats

        back = PoolStats.from_dict(stats.to_dict())
        assert back.respawns == stats.respawns >= 1


class TestOnResult:
    """The streaming callback: every success, in the parent, no hungs."""

    def test_inline_streams_in_completion_order(self):
        seen = []
        results, _ = run_tasks(
            _faulty, [("ok", 2), ("ok", 3)], workers=1,
            on_result=lambda i, v: seen.append((i, v)),
        )
        assert seen == [(0, 4), (1, 9)]
        assert results == [4, 9]

    def test_pool_streams_every_success(self):
        seen = []
        tasks = [("ok", n) for n in range(5)]
        results, _ = run_tasks(
            _faulty, tasks, workers=2,
            on_result=lambda i, v: seen.append((i, v)),
        )
        assert sorted(seen) == [(i, n * n) for i, (_, n) in enumerate(tasks)]
        assert results == [n * n for _, n in tasks]

    def test_hung_tasks_never_reach_on_result(self):
        seen = []
        tasks = [("ok", 2), ("raise", 0), ("ok", 3)]
        run_tasks(
            _faulty, tasks, workers=1,
            on_result=lambda i, v: seen.append(i),
        )
        assert seen == [0, 2]

    def test_pool_hung_tasks_never_reach_on_result(self):
        seen = []
        tasks = [("ok", 2), ("exit", 0)]
        run_tasks(
            _faulty, tasks, workers=2,
            on_result=lambda i, v: seen.append(i),
        )
        assert seen == [0]

    def test_callback_exception_aborts_the_batch(self):
        def boom(index, value):
            raise RuntimeError("sink failed")

        with pytest.raises(RuntimeError, match="sink failed"):
            run_tasks(_faulty, [("ok", 2)], workers=1, on_result=boom)

    def test_callback_exception_aborts_the_pool_batch(self):
        def boom(index, value):
            raise RuntimeError("sink failed")

        with pytest.raises(RuntimeError, match="sink failed"):
            run_tasks(_faulty, [("ok", 2)], workers=2, on_result=boom)


def _double_send_worker_main(worker_id, conn):
    """A worker that delivers every reply twice — the duplicate/late
    delivery fault.  Pre-fix, the second copy was credited to whatever
    task the worker held next, firing ``on_result`` twice for one index
    (which the service store turned into a job-killing ValueError)."""
    telemetry.init_worker()
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        index, fn, task = item
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            value = fn(task)
        except BaseException as exc:  # noqa: BLE001 - mirror the real loop
            msg = (index, "error", time.perf_counter() - start,
                   time.process_time() - cpu_start, repr(exc))
        else:
            msg = (index, "done", time.perf_counter() - start,
                   time.process_time() - cpu_start, value)
        conn.send(msg)
        conn.send(msg)


class TestStaleResults:
    """Satellite: a late/duplicate worker reply is dropped by its echoed
    task index, never misattributed or delivered twice."""

    @pytest.fixture
    def double_send(self, monkeypatch):
        if _mp_context().get_start_method() != "fork":
            pytest.skip("double-send injection needs fork inheritance")
        monkeypatch.setattr(
            pool_module, "_worker_main", _double_send_worker_main
        )

    def test_duplicate_replies_are_dropped(self, double_send):
        seen = []
        tasks = [("ok", n) for n in range(6)]
        results, stats = run_tasks(
            _faulty, tasks, workers=2,
            on_result=lambda i, v: seen.append(i),
        )
        # Results are correct and on_result fired exactly once per task
        # — the duplicates were dropped, not credited to later tasks.
        assert results == [n * n for _, n in tasks]
        assert sorted(seen) == list(range(6))
        assert stats.completed == 6
        assert stats.hung == 0
        assert stats.stale_results >= 1

    def test_duplicate_error_replies_do_not_double_retry(self, double_send):
        tasks = [("ok", 2), ("raise", 0), ("ok", 3)]
        results, stats = run_tasks(_faulty, tasks, workers=2)
        assert results == [4, None, 9]
        assert stats.hung == 1
        # One retry per real attempt; the echoed duplicates added none.
        assert stats.retries == 1

    def test_stale_results_reach_the_telemetry_counter(self, double_send):
        telemetry.configure(sinks=[MemorySink()])
        try:
            run_tasks(_faulty, [("ok", n) for n in range(6)], workers=2)
            counters = telemetry.get_telemetry().snapshot()["counters"]
            assert counters.get("pool.stale_results", 0) >= 1
        finally:
            telemetry.reset()

    def test_stale_results_round_trip_through_to_dict(self):
        _, stats = run_tasks(_faulty, [("ok", 2)], workers=2)
        from repro.core.result import PoolStats

        back = PoolStats.from_dict(stats.to_dict())
        assert back.stale_results == stats.stale_results == 0


class TestProgressAccounting:
    """Satellite #3: ``completed`` always includes the reported event."""

    @staticmethod
    def _check_sequence(events, total):
        resolved = 0
        for event in events:
            assert event.total == total
            if event.kind in ("done", "hung"):
                resolved += 1
            assert event.completed == resolved
        return resolved

    def test_inline_sequence_counts_current_event(self):
        events = []
        tasks = [("raise", 0), ("ok", 2), ("ok", 3)]
        run_tasks(_faulty, tasks, workers=1, progress=events.append)
        assert [e.kind for e in events] == ["retry", "hung", "done", "done"]
        assert self._check_sequence(events, len(tasks)) == len(tasks)

    def test_pool_sequence_counts_current_event(self):
        events = []
        tasks = [("raise", 0), ("ok", 2), ("ok", 3), ("exit", 0)]
        run_tasks(_faulty, tasks, workers=2, progress=events.append)
        assert self._check_sequence(events, len(tasks)) == len(tasks)
        kinds = sorted(e.kind for e in events)
        assert kinds.count("done") == 2
        assert kinds.count("hung") == 2
        assert kinds.count("retry") == 2


_ORPHAN_SCRIPT = """
import sys, time
from repro.analysis.pool import WorkerPool, run_tasks
pool = WorkerPool(2)
run_tasks(abs, [-1, -2, -3, -4], pool=pool)
print(" ".join(str(w.process.pid) for w in pool.workers.values()), flush=True)
time.sleep(600)
"""


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestOrphanedWorkers:
    """A parent killed outright (SIGKILL: no sentinel, no atexit) must
    not leave its idle pool workers running forever.  Each worker forked
    after the first holds a copy of its siblings' pipe ends, so pipe EOF
    alone never reaches them."""

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="needs /proc to watch pids"
    )
    def test_workers_exit_after_the_parent_is_killed(self):
        import signal
        import subprocess

        src = os.path.dirname(
            os.path.dirname(os.path.dirname(pool_module.__file__))
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        try:
            pids = [int(p) for p in parent.stdout.readline().split()]
            assert len(pids) == 2 and all(_running(p) for p in pids)
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait()
        deadline = time.monotonic() + 10.0
        while any(_running(p) for p in pids):
            assert time.monotonic() < deadline, "orphaned workers still alive"
            time.sleep(0.05)
