"""repro.workers: the process pool (a ProcessPoolExecutor wrapper) and the
shared-memory leak check."""

import multiprocessing as mp
import os
import pickle
import signal
import time
from concurrent.futures import CancelledError, wait
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.obs.metrics import registry
from repro.workers import ProcessWorkerPool, shm_bytes_in_use, worker_stats

# -- picklable worker-side task functions (module-level by protocol) ----------

_CTX = {}


def _init_ctx(value):
    _CTX["value"] = value
    _CTX["inits"] = _CTX.get("inits", 0) + 1


def _read_ctx():
    return os.getpid(), _CTX.get("value"), _CTX.get("inits")


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


def _is_daemon():
    return mp.current_process().daemon


def _gauge(name):
    return registry().gauge(name).value()


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

    def test_workers_are_daemonic(self):
        with ProcessWorkerPool(1, name="t-daemon") as pool:
            assert pool.submit(_is_daemon).result(timeout=60) is True

    def test_initializer_runs_once_per_worker(self):
        with ProcessWorkerPool(
            2, initializer=_init_ctx, initargs=("warmed",), name="t-init"
        ) as pool:
            seen = {
                pool.submit(_read_ctx).result(timeout=60) for _ in range(6)
            }
        assert {value for _, value, _ in seen} == {"warmed"}
        assert {inits for _, _, inits in seen} == {1}

    def test_task_error_propagates_and_worker_survives(self):
        with ProcessWorkerPool(1, name="t-err") as pool:
            pid = pool.submit(_getpid).result(timeout=60)
            with pytest.raises(ValueError, match="stage exploded"):
                pool.submit(_boom).result(timeout=60)
            # Same worker keeps serving.
            assert pool.submit(_getpid).result(timeout=60) == pid

    def test_unpicklable_result_degrades_to_described_error(self):
        with ProcessWorkerPool(1, name="t-pickle") as pool:
            pid = pool.submit(_getpid).result(timeout=60)
            future = pool.submit(_unpicklable)
            # AttributeError up to 3.13, PicklingError from 3.14.
            with pytest.raises(
                (pickle.PicklingError, AttributeError), match="pickle"
            ):
                future.result(timeout=60)
            assert pool.submit(_getpid).result(timeout=60) == pid

    def test_sigkilled_worker_fails_task_promptly(self):
        with ProcessWorkerPool(1, name="t-crash") as pool:
            future = pool.submit(_kill_self)
            t0 = time.monotonic()
            with pytest.raises(BrokenProcessPool):
                future.result(timeout=60)
            assert time.monotonic() - t0 < 10.0
            # Nothing restarts: the broken pool refuses new work.
            with pytest.raises(BrokenProcessPool):
                pool.submit(_echo, "late")
        assert mp.active_children() == []

    def test_close_cancel_fails_queued_and_inflight_tasks(self):
        pool = ProcessWorkerPool(1, name="t-cancel")
        slow = pool.submit(_sleep_echo, "slow", 30.0)
        queued = [pool.submit(_echo, i) for i in range(4)]
        time.sleep(0.2)  # let the worker pick up the slow task
        t0 = time.monotonic()
        pool.close(cancel=True)
        assert time.monotonic() - t0 < 10.0
        with pytest.raises(BrokenProcessPool):
            slow.result(timeout=10)
        for future in queued:
            with pytest.raises((BrokenProcessPool, CancelledError)):
                future.result(timeout=10)
        assert mp.active_children() == []

    def test_submit_after_close_raises(self):
        pool = ProcessWorkerPool(1, name="t-closed")
        pool.close()
        with pytest.raises(RuntimeError, match="shutdown"):
            pool.submit(_echo, 1)

    def test_worker_stats_shape(self):
        with ProcessWorkerPool(2, name="t-stats") as pool:
            pool.submit(_echo, 1).result(timeout=60)
            stats = worker_stats()
            assert stats["pools"] >= 1
            assert stats["pool_size"] >= 2
            assert _gauge("repro_worker_pool_size") >= 2
        stats = worker_stats()
        assert set(stats) == {
            "pools", "pool_size", "busy", "shm_bytes_in_use",
            "stage_tasks_total",
        }

    def test_future_timeout(self):
        with ProcessWorkerPool(1, name="t-timeout") as pool:
            future = pool.submit(_sleep_echo, "x", 5.0)
            with pytest.raises(FutureTimeout):
                future.result(timeout=0.05)
            assert future.result(timeout=60) == "x"

    def test_future_wait_reports_completion(self):
        with ProcessWorkerPool(1, name="t-wait") as pool:
            future = pool.submit(_sleep_echo, "x", 1.0)
            assert not wait([future], timeout=0.01).done
            assert wait([future], timeout=60).done == {future}
            assert future.done() and future.result() == "x"
