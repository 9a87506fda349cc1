"""CacheManager facade: policies, two-tier lookup, stats, resolution."""

import pickle
import time

import numpy as np
import pytest

from repro.cache import (
    CacheManager,
    CacheStats,
    compose_key,
    reset_cache_registry,
    resolve_manager,
)


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_cache_registry()
    yield
    reset_cache_registry()


class TestPolicies:
    def test_off_bypasses_everything(self):
        mgr = CacheManager(policy="off")
        assert not mgr.enabled
        mgr.put("ns/k", 123)
        assert mgr.get("ns/k") is None
        assert mgr.stats.lookups == 0                 # off = invisible
        calls = []
        assert mgr.get_or_compute("ns/k", lambda: calls.append(1) or 42) == 42
        assert mgr.get_or_compute("ns/k", lambda: calls.append(1) or 42) == 42
        assert len(calls) == 2                        # computed every time

    def test_memory_policy_hits(self):
        mgr = CacheManager(policy="memory")
        assert mgr.get("ns/k") is None
        mgr.put("ns/k", {"v": 1})
        assert mgr.get("ns/k") == {"v": 1}
        assert (mgr.stats.hits, mgr.stats.misses, mgr.stats.puts) == (1, 1, 1)
        assert mgr.stats.memory_hits == 1

    def test_disk_policy_requires_directory(self):
        with pytest.raises(ValueError, match="directory"):
            CacheManager(policy="disk")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            CacheManager(policy="turbo")

    def test_disk_tier_survives_new_manager(self, tmp_path):
        """A second manager on the same directory serves the first one's
        artifacts — the cross-process story, minus the fork."""
        a = CacheManager(policy="disk", directory=tmp_path)
        arr = np.arange(16.0)
        a.put("ns/k", arr, codec="npz")
        b = CacheManager(policy="disk", directory=tmp_path)
        out = b.get("ns/k")
        assert np.array_equal(out, arr)
        assert b.stats.disk_hits == 1
        # Promoted into b's memory tier: second lookup is a memory hit.
        b.get("ns/k")
        assert b.stats.memory_hits == 1

    def test_disk_write_failure_degrades_not_raises(self, tmp_path, monkeypatch):
        """A full/unwritable cache directory must never abort the pipeline:
        the value still lands in the memory tier and the failure is counted."""
        mgr = CacheManager(policy="disk", directory=tmp_path)

        def refuse(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(mgr.disk, "put", refuse)
        mgr.put("ns/k", {"v": 1})
        assert mgr.stats.disk_write_failures == 1
        assert mgr.get("ns/k") == {"v": 1}             # memory tier still serves

    def test_get_or_compute_caches(self):
        mgr = CacheManager(policy="memory")
        calls = []
        key = compose_key("ns", ["x"])
        assert mgr.get_or_compute(key, lambda: calls.append(1) or 7) == 7
        assert mgr.get_or_compute(key, lambda: calls.append(1) or 7) == 7
        assert len(calls) == 1


class TestSingleFlight:
    @staticmethod
    def _await_waiters(mgr, n, timeout=30.0):
        import time

        deadline = time.monotonic() + timeout
        while mgr.singleflight_waits < n:
            if time.monotonic() > deadline:  # pragma: no cover - hang guard
                raise AssertionError(
                    f"only {mgr.singleflight_waits}/{n} waiters registered"
                )
            time.sleep(0.002)

    def test_sixteen_concurrent_misses_compute_once(self):
        """The acceptance shape: 16 threads miss the same key at once —
        exactly one computes, the rest wait and share the value."""
        import threading

        mgr = CacheManager(policy="memory")
        computes = []
        release = threading.Event()
        results = [None] * 16

        def compute():
            computes.append(1)
            # Hold the flight open until every follower is waiting on it.
            release.wait(30)
            return {"value": 42}

        def racer(i):
            results[i] = mgr.get_or_compute("ns/grid", compute)

        threads = [
            threading.Thread(target=racer, args=(i,)) for i in range(16)
        ]
        for t in threads:
            t.start()
        self._await_waiters(mgr, 15)
        release.set()
        for t in threads:
            t.join(timeout=60)
        assert len(computes) == 1
        assert all(r == {"value": 42} for r in results)
        assert mgr.singleflight_waits == 15

    def test_singleflight_counter_metric_exported(self):
        import threading

        from repro.obs.metrics import registry

        mgr = CacheManager(policy="memory")
        release = threading.Event()
        counter = registry().counter(
            "repro_cache_singleflight_waits_total",
            help="Lookups that waited on another in-flight computation.",
        )
        before = counter.value()  # metrics registry is process-global

        def compute():
            release.wait(30)
            return 7

        threads = [
            threading.Thread(
                target=lambda: mgr.get_or_compute("ns/k", compute)
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        self._await_waiters(mgr, 3)
        release.set()
        for t in threads:
            t.join(timeout=60)
        assert counter.value() - before == float(mgr.singleflight_waits)
        assert mgr.singleflight_waits == 3

    def test_leader_failure_wakes_followers_one_takes_over(self):
        """A leader whose compute raises must not strand the waiters:
        they wake, re-check, and one of them computes."""
        import threading

        mgr = CacheManager(policy="memory")
        attempts = []
        entered = threading.Event()
        release = threading.Event()

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                entered.set()
                release.wait(30)
                raise RuntimeError("leader died")
            return "recovered"

        outcomes = []

        def leader():
            try:
                mgr.get_or_compute("ns/k", flaky)
            except RuntimeError as exc:
                outcomes.append(str(exc))

        def follower():
            entered.wait(30)
            outcomes.append(mgr.get_or_compute("ns/k", flaky))

        t_lead = threading.Thread(target=leader)
        t_follow = threading.Thread(target=follower)
        t_lead.start()
        entered.wait(30)
        t_follow.start()
        release.set()
        t_lead.join(60)
        t_follow.join(60)
        assert sorted(outcomes) == ["leader died", "recovered"]
        assert len(attempts) == 2

    def test_distinct_keys_do_not_serialize(self):
        mgr = CacheManager(policy="memory")
        assert mgr.get_or_compute("ns/a", lambda: "a") == "a"
        assert mgr.get_or_compute("ns/b", lambda: "b") == "b"
        assert mgr.singleflight_waits == 0

    def test_disk_tier_lock_serializes_cross_manager_compute(self, tmp_path):
        """Two managers on one directory (the two-service acceptance
        shape): B's miss waits for A's in-flight compute via the disk
        lockfile, then reads A's artifact instead of recomputing."""
        import threading

        a = CacheManager(policy="disk", directory=tmp_path)
        b = CacheManager(policy="disk", directory=tmp_path)
        a_entered = threading.Event()
        a_release = threading.Event()
        computes = []

        def slow_compute():
            computes.append("a")
            a_entered.set()
            a_release.wait(30)
            return {"grid": [1, 2, 3]}

        def fast_compute():
            computes.append("b")
            return {"grid": [1, 2, 3]}

        results = {}

        def run_a():
            results["a"] = a.get_or_compute("ns/grid", slow_compute)

        def run_b():
            a_entered.wait(30)
            results["b"] = b.get_or_compute("ns/grid", fast_compute)

        t_a = threading.Thread(target=run_a)
        t_b = threading.Thread(target=run_b)
        t_a.start()
        t_b.start()
        a_entered.wait(30)
        # Hold A's compute open until B waits on the lockfile (generously
        # bounded): released at once, A can finish before B's first
        # lookup on a single CPU, and B then reads a plain disk hit.
        deadline = time.monotonic() + 30.0
        while b.singleflight_waits < 1 and time.monotonic() < deadline:
            time.sleep(0.002)
        a_release.set()
        t_a.join(60)
        t_b.join(60)
        assert computes == ["a"]                      # B never computed
        assert results["a"] == results["b"] == {"grid": [1, 2, 3]}
        assert b.singleflight_waits >= 1

    def test_cold_miss_on_a_is_warm_hit_on_b(self, tmp_path):
        """Fleet acceptance: a cold miss filled through service A's
        manager is a warm disk hit for service B sharing the directory."""
        a = CacheManager(policy="disk", directory=tmp_path)
        b = CacheManager(policy="disk", directory=tmp_path)
        calls = []
        value = a.get_or_compute(
            "ns/grid", lambda: calls.append("a") or {"v": 9}, codec="pickle"
        )
        assert value == {"v": 9}
        out = b.get_or_compute(
            "ns/grid", lambda: calls.append("b") or {"v": 9}, codec="pickle"
        )
        assert out == {"v": 9}
        assert calls == ["a"]
        assert b.stats.disk_hits == 1

    def test_policy_off_never_enters_flight_table(self):
        mgr = CacheManager(policy="off")
        assert mgr.get_or_compute("ns/k", lambda: 5) == 5
        assert mgr.singleflight_waits == 0
        assert mgr._sf_inflight == {}


class TestStats:
    def test_snapshot_delta(self):
        mgr = CacheManager(policy="memory")
        mgr.put("ns/a", 1)
        before = mgr.snapshot()
        mgr.get("ns/a")
        mgr.get("ns/b")
        delta = mgr.snapshot() - before
        assert (delta.hits, delta.misses) == (1, 1)
        assert delta.hit_rate == 0.5

    def test_hit_rate_idle(self):
        assert CacheStats().hit_rate == 0.0

    def test_eviction_counted(self):
        mgr = CacheManager(policy="memory", memory_bytes=2048)
        for i in range(4):
            mgr.put(f"ns/{i}", np.zeros(128))         # 1024 bytes each
        assert mgr.stats.evictions >= 2
        assert mgr.memory.total_bytes <= 2048


class TestClear:
    def test_namespace_clear_scoped(self, tmp_path):
        mgr = CacheManager(policy="disk", directory=tmp_path)
        mgr.put("spectra-fft/a", np.zeros(4), codec="npz")
        mgr.put("dock/b", np.zeros(4), codec="npz")
        mgr.clear(namespace="spectra-fft")
        assert mgr.get("spectra-fft/a") is None
        assert mgr.get("dock/b") is not None

    def test_full_clear(self):
        mgr = CacheManager(policy="memory")
        mgr.put("ns/a", 1)
        mgr.clear()
        assert mgr.get("ns/a") is None


class TestResolution:
    def test_same_config_same_instance(self):
        a = resolve_manager("memory")
        b = resolve_manager("memory")
        assert a is b

    def test_different_budgets_different_instances(self):
        a = resolve_manager("memory", memory_bytes=1024)
        b = resolve_manager("memory", memory_bytes=2048)
        assert a is not b

    def test_inherit_reads_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_POLICY", "disk")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        mgr = resolve_manager("inherit")
        assert mgr.policy == "disk"
        assert mgr.directory == str(tmp_path)

    def test_inherit_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_POLICY", raising=False)
        assert resolve_manager("inherit").policy == "off"


class TestPickling:
    def test_manager_pickles_as_configuration(self, tmp_path):
        """Crossing a fork boundary ships policy/budget/directory, never
        the live tiers (workers re-share through the disk directory)."""
        mgr = CacheManager(policy="disk", directory=tmp_path)
        mgr.put("ns/a", np.zeros(4), codec="npz")
        clone = pickle.loads(pickle.dumps(mgr))
        assert clone.policy == "disk"
        assert clone.directory == str(tmp_path)
        assert len(clone) == 0                        # memory tier is fresh
        assert clone.get("ns/a") is not None          # disk tier is shared


class TestStatsScopes:
    """Request-scoped stats: deltas attribute to the request, not the
    manager-global counters (which race once requests overlap)."""

    def test_scope_counts_only_own_activity(self):
        mgr = CacheManager(policy="memory")
        mgr.put("ns/pre", 1)                         # outside any scope
        with mgr.stats_scope() as scope:
            assert mgr.get("ns/absent") is None      # miss
            mgr.put("ns/k", 2)
            assert mgr.get("ns/k") == 2              # hit
        assert (scope.hits, scope.misses, scope.puts) == (1, 1, 1)
        assert scope.memory_hits == 1
        # Global counters include the out-of-scope put too.
        assert mgr.stats.puts == 2

    def test_idle_nested_scopes_detach_by_identity(self):
        """Regression: two idle scopes are equal dataclasses, so exit must
        detach by identity — equality-based removal dropped the outer
        scope and crashed its own exit."""
        mgr = CacheManager(policy="memory")
        with mgr.stats_scope() as outer:
            with mgr.stats_scope() as inner:
                pass                          # both still all-zero here
            mgr.put("ns/k", 1)                # after inner detached
        assert outer.puts == 1
        assert inner.puts == 0

    def test_merge_lands_in_globals_and_attached_scopes(self):
        """A worker process's delta folds in as if the lookups ran here."""
        mgr = CacheManager(policy="memory")
        with mgr.stats_scope() as scope:
            mgr.merge(CacheStats(hits=3, misses=1, puts=1, memory_hits=3,
                                 evictions=2))
        assert (scope.hits, scope.misses, scope.puts) == (3, 1, 1)
        assert scope.evictions == 2
        assert (mgr.stats.hits, mgr.stats.evictions) == (3, 2)

    def test_merged_evictions_do_not_skew_local_attribution(self):
        """Local evictions are counted against the store's own total, so
        evictions merged in from elsewhere never turn a later local
        delta negative."""
        mgr = CacheManager(policy="memory", memory_bytes=16)
        mgr.merge(CacheStats(evictions=5))
        with mgr.stats_scope() as scope:
            for key in ("ns/a", "ns/b", "ns/c"):        # the third evicts
                mgr.put(key, 1, nbytes=8)
        assert scope.evictions == mgr.memory.evictions == 1
        assert mgr.stats.evictions == 6

    def test_nested_scopes_both_accumulate(self):
        mgr = CacheManager(policy="memory")
        with mgr.stats_scope() as outer:
            mgr.put("ns/a", 1)
            with mgr.stats_scope() as inner:
                assert mgr.get("ns/a") == 1
            assert mgr.get("ns/a") == 1
        assert (outer.hits, outer.puts) == (2, 1)
        assert (inner.hits, inner.puts) == (1, 0)

    def test_interleaved_requests_attribute_independently(self):
        """Regression: two overlapped requests on one manager.  Snapshot
        subtraction would charge each request with the other's lookups;
        scopes must keep the deltas disjoint."""
        import threading

        mgr = CacheManager(policy="memory")
        barrier = threading.Barrier(2, timeout=10)
        scopes = {}

        def request(name, n_ops):
            with mgr.stats_scope() as scope:
                scopes[name] = scope
                for i in range(n_ops):
                    key = f"ns/{name}-{i}"
                    assert mgr.get(key) is None       # miss
                    mgr.put(key, i)
                    assert mgr.get(key) == i          # hit
                    barrier.wait()                    # force interleaving
        a = threading.Thread(target=request, args=("a", 3))
        b = threading.Thread(target=request, args=("b", 3))
        a.start(); b.start(); a.join(); b.join()

        for name in ("a", "b"):
            scope = scopes[name]
            assert (scope.hits, scope.misses, scope.puts) == (3, 3, 3)
            assert scope.hit_rate == 0.5
        # The global counters saw everything.
        assert mgr.stats.hits == 6
        assert mgr.stats.misses == 6
        assert mgr.stats.puts == 6

    def test_scope_sees_own_evictions(self):
        mgr = CacheManager(policy="memory", memory_bytes=256)
        with mgr.stats_scope() as scope:
            mgr.put("ns/a", np.zeros(24))            # ~192 bytes + overhead
            mgr.put("ns/b", np.zeros(24))            # evicts a
        assert scope.evictions >= 1
        assert mgr.stats.evictions == scope.evictions

    def test_scope_with_policy_off_stays_zero(self):
        mgr = CacheManager(policy="off")
        with mgr.stats_scope() as scope:
            mgr.put("ns/k", 1)
            assert mgr.get("ns/k") is None
        assert scope.lookups == 0
        assert scope.puts == 0
