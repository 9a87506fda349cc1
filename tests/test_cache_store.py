"""Storage tiers: LRU byte budget, disk integrity, concurrent writers."""

import json
import multiprocessing as mp

import numpy as np
import pytest

from repro.cache.store import (
    CODECS,
    MISS,
    DiskStore,
    MemoryStore,
    NpzCodec,
    PickleCodec,
    estimate_nbytes,
)


class TestCodecs:
    def test_pickle_roundtrip(self):
        value = {"poses": [1, 2, 3], "label": "x"}
        assert PickleCodec.decode(PickleCodec.encode(value)) == value

    def test_npz_single_array_roundtrip(self):
        arr = np.random.default_rng(0).normal(size=(3, 4)).astype(np.complex128)
        out = NpzCodec.decode(NpzCodec.encode(arr))
        assert np.array_equal(out, arr)

    def test_npz_dict_roundtrip(self):
        arrays = {"a": np.arange(5), "b": np.ones((2, 2), dtype=np.float32)}
        out = NpzCodec.decode(NpzCodec.encode(arrays))
        assert set(out) == {"a", "b"}
        assert np.array_equal(out["a"], arrays["a"])
        assert out["b"].dtype == np.float32

    def test_npz_rejects_objects(self):
        with pytest.raises(TypeError):
            NpzCodec.encode(["not", "arrays"])

    def test_registry(self):
        assert CODECS["pickle"] is PickleCodec
        assert CODECS["npz"] is NpzCodec

    def test_estimate_nbytes_arrays_exact(self):
        arr = np.zeros((10, 10), dtype=np.float64)
        assert estimate_nbytes(arr) == 800
        assert estimate_nbytes({"a": arr}) >= 800
        assert estimate_nbytes([arr, arr]) >= 1600


class TestMemoryStore:
    def test_lru_eviction_under_byte_budget(self):
        """Filling past the budget evicts least-recently-used entries and
        keeps total_bytes within budget."""
        store = MemoryStore(budget_bytes=3000)
        a, b, c = (np.zeros(128) for _ in range(3))   # 1024 bytes each
        store.put("k/a", a)
        store.put("k/b", b)
        store.get("k/a")                              # a is now most recent
        store.put("k/c", c)                           # evicts b (LRU)
        assert store.get("k/b") is MISS
        assert store.get("k/a") is not MISS
        assert store.get("k/c") is not MISS
        assert store.evictions == 1
        assert store.total_bytes <= store.budget_bytes

    def test_oversized_value_not_stored(self):
        store = MemoryStore(budget_bytes=100)
        store.put("k/huge", np.zeros(1000))
        assert store.get("k/huge") is MISS
        assert store.evictions == 0                   # skipped, not thrashed

    def test_replacement_updates_accounting(self):
        store = MemoryStore(budget_bytes=10_000)
        store.put("k/a", np.zeros(128))
        store.put("k/a", np.zeros(256))
        assert len(store) == 1
        assert store.total_bytes == 2048

    def test_prefix_clear(self):
        store = MemoryStore(budget_bytes=10_000)
        store.put("spectra-fft/a", np.zeros(8))
        store.put("dock/a", np.zeros(8))
        store.clear(prefix="spectra-fft/")
        assert store.get("spectra-fft/a") is MISS
        assert store.get("dock/a") is not MISS

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryStore(budget_bytes=0)


class TestDiskStore:
    def test_roundtrip_both_codecs(self, tmp_path):
        store = DiskStore(tmp_path)
        arr = np.random.default_rng(1).normal(size=(4, 4))
        store.put("ns/abc123", arr, codec="npz")
        store.put("ns/def456", {"x": [1, 2]}, codec="pickle")
        assert np.array_equal(store.get("ns/abc123"), arr)
        assert store.get("ns/def456") == {"x": [1, 2]}
        assert len(store) == 2

    def test_missing_key_is_miss(self, tmp_path):
        assert DiskStore(tmp_path).get("ns/nothing") is MISS

    def test_truncated_entry_reads_as_miss_and_is_removed(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("ns/abc", np.arange(100.0), codec="npz")
        path = store._path("ns/abc")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])      # simulate a torn write
        assert store.get("ns/abc") is MISS
        assert store.corrupt_entries == 1
        assert not path.exists()                      # bad entry dropped

    def test_bitflip_corruption_detected_by_checksum(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("ns/abc", np.arange(100.0), codec="npz")
        path = store._path("ns/abc")
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF                             # flip a payload bit
        path.write_bytes(bytes(data))
        assert store.get("ns/abc") is MISS
        assert store.corrupt_entries == 1

    def test_garbage_file_reads_as_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        path = store._path("ns/abc")
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a cache entry at all")
        assert store.get("ns/abc") is MISS

    def test_format_version_mismatch_invalidates(self, tmp_path):
        """Entries written under another format version read as misses."""
        store = DiskStore(tmp_path)
        store.put("ns/abc", {"v": 1}, codec="pickle")
        path = store._path("ns/abc")
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["format"] = header["format"] + 1       # future format
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        assert store.get("ns/abc") is MISS
        assert not path.exists()

    def test_codec_version_mismatch_invalidates(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("ns/abc", {"v": 1}, codec="pickle")
        path = store._path("ns/abc")
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["codec_version"] = 999
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        assert store.get("ns/abc") is MISS

    def test_namespace_clear(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("spectra-fft/a1", np.zeros(4), codec="npz")
        store.put("dock/b2", np.zeros(4), codec="npz")
        store.clear(prefix="spectra-fft")
        assert store.get("spectra-fft/a1") is MISS
        assert store.get("dock/b2") is not MISS


def _write_same_key(worker_id):
    """Concurrent-writer task: everyone writes the same key, atomically."""
    store = DiskStore(_write_same_key.root)
    value = {"worker": worker_id, "payload": list(range(2000))}
    for _ in range(10):
        store.put("race/samekey", value, codec="pickle")
    return worker_id


class TestConcurrentWriters:
    def test_forked_writers_same_key_leave_one_valid_entry(self, tmp_path):
        """Two forked workers hammering one key (the dual of two probe
        workers caching the same receptor artifact) must leave a complete,
        checksum-valid entry — os.replace makes each write atomic."""
        _write_same_key.root = str(tmp_path)
        # Fork: the workers inherit the task's root attribute.
        with mp.get_context("fork").Pool(processes=2) as pool:
            results = pool.map(_write_same_key, [1, 2])
        assert sorted(results) == [1, 2]
        store = DiskStore(tmp_path)
        value = store.get("race/samekey")
        assert value is not MISS
        assert value["worker"] in (1, 2)              # one writer won, intact
        assert value["payload"] == list(range(2000))
        assert store.corrupt_entries == 0
        # No stranded temp files from the losing writer.
        assert not list(tmp_path.rglob("*.tmp"))


class TestComputeLocks:
    def test_try_lock_is_exclusive_until_unlocked(self, tmp_path):
        store = DiskStore(tmp_path)
        assert store.try_lock("ns/key") is True
        assert store.try_lock("ns/key") is False      # held
        store.unlock("ns/key")
        assert store.try_lock("ns/key") is True       # free again
        store.unlock("ns/key")
        store.unlock("ns/key")                        # idempotent

    def test_second_store_sees_the_lock(self, tmp_path):
        """Two services sharing one directory contend on the same file."""
        a, b = DiskStore(tmp_path), DiskStore(tmp_path)
        assert a.try_lock("ns/key") is True
        assert b.try_lock("ns/key") is False
        a.unlock("ns/key")
        assert b.try_lock("ns/key") is True
        b.unlock("ns/key")

    def test_stale_lock_is_stolen(self, tmp_path):
        import os as _os
        import time as _time

        store = DiskStore(tmp_path)
        assert store.try_lock("ns/key") is True
        lock_path = store._lock_path("ns/key")
        old = _time.time() - 2 * DiskStore.LOCK_STALE_S
        _os.utime(lock_path, (old, old))              # orphan of a dead pid
        assert store.try_lock("ns/key") is True       # stolen
        store.unlock("ns/key")

    def test_lockfiles_are_not_cache_entries(self, tmp_path):
        store = DiskStore(tmp_path)
        store.try_lock("ns/key")
        assert store.get("ns/key") is MISS
        assert len(store) == 0
        store.unlock("ns/key")


class TestSweep:
    def _aged_put(self, store, key, value, age_s):
        import os as _os
        import time as _time

        store.put(key, value, codec="pickle")
        old = _time.time() - age_s
        _os.utime(store._path(key), (old, old))

    def test_ttl_sweep_removes_only_old_entries(self, tmp_path):
        store = DiskStore(tmp_path)
        self._aged_put(store, "ns/old", {"v": 1}, age_s=7200)
        store.put("ns/new", {"v": 2}, codec="pickle")
        stats = store.sweep(ttl_s=3600)
        assert stats.scanned == 2
        assert stats.removed == 1
        assert stats.remaining == 1
        assert store.get("ns/old") is MISS
        assert store.get("ns/new") == {"v": 2}

    def test_byte_budget_evicts_oldest_first(self, tmp_path):
        store = DiskStore(tmp_path)
        payload = {"blob": list(range(500))}
        self._aged_put(store, "ns/oldest", payload, age_s=300)
        self._aged_put(store, "ns/middle", payload, age_s=200)
        self._aged_put(store, "ns/newest", payload, age_s=100)
        per_entry = store.total_bytes() // 3
        stats = store.sweep(max_bytes=2 * per_entry)
        assert stats.removed == 1
        assert store.get("ns/oldest") is MISS         # LRU by write age
        assert store.get("ns/middle") is not MISS
        assert store.get("ns/newest") is not MISS
        assert store.total_bytes() <= 2 * per_entry

    def test_sweep_without_criteria_only_counts(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("ns/a", {"v": 1}, codec="pickle")
        stats = store.sweep()
        assert stats.scanned == 1
        assert stats.removed == 0
        assert stats.remaining == 1
        assert stats.remaining_bytes == store.total_bytes()

    def test_sweep_cleans_orphaned_tmp_and_lock_files(self, tmp_path):
        import os as _os
        import time as _time

        store = DiskStore(tmp_path)
        store.put("ns/keep", {"v": 1}, codec="pickle")
        orphan_tmp = tmp_path / "ns" / "writer.tmp"
        orphan_tmp.write_bytes(b"half a write")
        store.try_lock("ns/dead")
        old = _time.time() - 7200
        _os.utime(orphan_tmp, (old, old))
        _os.utime(store._lock_path("ns/dead"), (old, old))
        # A *fresh* lock must survive the sweep.
        store.try_lock("ns/live")
        stats = store.sweep()
        assert stats.removed_tmp == 1
        assert stats.removed_locks == 1
        assert not orphan_tmp.exists()
        assert store.try_lock("ns/live") is False     # still held
        store.unlock("ns/live")
        assert store.get("ns/keep") == {"v": 1}

    def test_concurrent_sweeps_are_safe(self, tmp_path):
        """Two sweeps of one directory: removals race benignly — each
        file is freed exactly once, nothing raises."""
        store = DiskStore(tmp_path)
        for i in range(6):
            self._aged_put(store, f"ns/e{i}", {"v": i}, age_s=7200)
        stats_a = store.sweep(ttl_s=3600)
        stats_b = DiskStore(tmp_path).sweep(ttl_s=3600)
        assert stats_a.removed == 6
        assert stats_b.removed == 0
        assert len(store) == 0

    def test_stats_to_dict_shape(self, tmp_path):
        stats = DiskStore(tmp_path).sweep()
        assert stats.to_dict() == {
            "scanned": 0, "removed": 0, "freed_bytes": 0,
            "remaining": 0, "remaining_bytes": 0,
            "removed_tmp": 0, "removed_locks": 0,
        }
