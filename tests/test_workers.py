"""repro.workers: resident process worker pool + shared-memory leak check."""

import os
import signal
import time

import pytest

from repro.api.errors import JobFailedError
from repro.workers import ProcessWorkerPool, shm_bytes_in_use, worker_stats

# -- picklable worker-side task functions (module-level by protocol) ----------

_CTX = {}


def _init_ctx(value):
    _CTX["value"] = value


def _read_ctx():
    return _CTX.get("value")


def _echo(x):
    return x


def _boom():
    raise ValueError("stage exploded")


def _getpid():
    return os.getpid()


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep_echo(x, seconds):
    time.sleep(seconds)
    return x


def _unpicklable():
    return lambda: None


# -- shared-memory leak check ------------------------------------------------


class TestShmLeakCheck:
    def test_counts_repro_prefixed_segments_only(self):
        from multiprocessing import shared_memory

        before = shm_bytes_in_use()
        mine = shared_memory.SharedMemory(
            name=f"repro-test-{os.getpid()}", create=True, size=4096
        )
        other = shared_memory.SharedMemory(
            name=f"other-test-{os.getpid()}", create=True, size=4096
        )
        try:
            assert shm_bytes_in_use() == before + mine.size
        finally:
            for seg in (mine, other):
                seg.close()
                seg.unlink()
        assert shm_bytes_in_use() == before


# -- worker pool --------------------------------------------------------------


class TestProcessWorkerPool:
    def test_submit_runs_in_worker_process(self):
        with ProcessWorkerPool(2, name="t-basic") as pool:
            futures = [pool.submit(_echo, i) for i in range(8)]
            assert [f.result(timeout=60) for f in futures] == list(range(8))
            pids = {
                pool.submit(_getpid).result(timeout=60) for _ in range(8)
            }
        assert os.getpid() not in pids
        assert len(pids) <= 2

    def test_initializer_runs_once_per_worker(self):
        with ProcessWorkerPool(
            2, initializer=_init_ctx, initargs=("warmed",), name="t-init"
        ) as pool:
            values = {
                pool.submit(_read_ctx).result(timeout=60) for _ in range(6)
            }
        assert values == {"warmed"}

    def test_task_error_propagates_and_worker_survives(self):
        with ProcessWorkerPool(1, name="t-err") as pool:
            future = pool.submit(_boom, label="boom")
            with pytest.raises(ValueError, match="stage exploded"):
                future.result(timeout=60)
            # Same worker keeps serving.
            assert pool.submit(_echo, "ok").result(timeout=60) == "ok"
            assert worker_stats()["worker_restarts_total"] >= 0

    def test_unpicklable_result_degrades_to_described_error(self):
        with ProcessWorkerPool(1, name="t-pickle") as pool:
            future = pool.submit(_unpicklable, label="lambda")
            with pytest.raises(RuntimeError, match="not transferable"):
                future.result(timeout=60)
            assert pool.submit(_echo, 1).result(timeout=60) == 1

    def test_sigkilled_worker_fails_task_and_pool_refills(self):
        before = worker_stats()["worker_restarts_total"]
        with ProcessWorkerPool(1, name="t-crash") as pool:
            future = pool.submit(_kill_self, label="crash")
            with pytest.raises(JobFailedError, match="worker process died"):
                future.result(timeout=60)
            assert "crash" in str(future.exception())
            # The pool refilled: the next task runs on a fresh worker.
            assert pool.submit(_echo, "alive").result(timeout=60) == "alive"
        assert worker_stats()["worker_restarts_total"] == before + 1

    def test_close_cancel_fails_queued_and_inflight_tasks(self):
        pool = ProcessWorkerPool(1, name="t-cancel")
        slow = pool.submit(_sleep_echo, "slow", 30.0, label="slow")
        queued = pool.submit(_echo, "queued", label="queued")
        pool.close(cancel=True, timeout=10.0)
        with pytest.raises(JobFailedError):
            queued.result(timeout=10)
        with pytest.raises(JobFailedError):
            slow.result(timeout=10)
        assert pool.closed

    def test_submit_after_close_raises(self):
        pool = ProcessWorkerPool(1, name="t-closed")
        pool.close()
        with pytest.raises(JobFailedError, match="closed"):
            pool.submit(_echo, 1)

    def test_worker_stats_shape(self):
        with ProcessWorkerPool(2, name="t-stats"):
            stats = worker_stats()
            assert stats["pools"] >= 1
            assert stats["pool_size"] >= 2
        stats = worker_stats()
        assert set(stats) == {
            "pools", "pool_size", "busy", "shm_bytes_in_use",
            "stage_tasks_total", "worker_restarts_total",
        }

    def test_future_timeout(self):
        with ProcessWorkerPool(1, name="t-timeout") as pool:
            future = pool.submit(_sleep_echo, "x", 5.0, label="slow")
            with pytest.raises(TimeoutError):
                future.result(timeout=0.05)
            assert future.result(timeout=60) == "x"

    def test_future_wait_reports_completion(self):
        with ProcessWorkerPool(1, name="t-wait") as pool:
            future = pool.submit(_sleep_echo, "x", 1.0, label="slow")
            assert future.wait(0.01) is False
            assert future.wait(60) is True
            assert future.done() and future.result() == "x"
