"""Cache storage tiers: in-process LRU with a byte budget + on-disk store.

The memory tier holds live objects behind an LRU with a byte budget, so a
long sweep can keep its hot artifacts (receptor grids, dock
results) resident without growing unboundedly.  The disk tier persists
encoded payloads with atomic writes (``os.replace`` of a unique temp
file, safe under concurrent forked writers), versioned codecs and an
integrity checksum; *any* defect on read — truncation, bit corruption, a
stale format or codec version — degrades to a miss (and removes the bad
entry) instead of raising, so a damaged cache can only cost recompute
time, never correctness.

The disk tier is also the *fleet* coordination point: many processes —
worker processes, gateway replicas, whole services on one host — may share
one cache directory.  Per-key lockfiles (:meth:`DiskStore.try_lock`,
``O_CREAT | O_EXCL`` with stale-steal) give cross-process single-flight
to :meth:`CacheManager.get_or_compute`, and :meth:`DiskStore.sweep`
bounds the directory by age (TTL) and total bytes — concurrent sweeps
and writers are safe against each other because every removal tolerates
losing the race (``FileNotFoundError`` is a no-op) and every write is an
atomic replace.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.cache.keys import CACHE_FORMAT_VERSION, hash_parts

__all__ = [
    "MISS",
    "PickleCodec",
    "NpzCodec",
    "CODECS",
    "estimate_nbytes",
    "MemoryStore",
    "DiskStore",
    "SweepStats",
]

#: Sentinel distinguishing "no entry" from a stored falsy value.
MISS = object()

#: Magic tag opening every disk entry's header line.
_MAGIC = "repro-cache"


# -- codecs -------------------------------------------------------------------------


class PickleCodec:
    """General object payloads (pose lists, EnergyGrids, dataclasses)."""

    name = "pickle"
    version = 1

    @staticmethod
    def encode(value) -> bytes:
        return pickle.dumps(value, protocol=4)

    @staticmethod
    def decode(payload: bytes):
        return pickle.loads(payload)


class NpzCodec:
    """Pure-array payloads: one ndarray or a flat dict of ndarrays.

    Refuses object arrays on both ends (``allow_pickle=False``), so an
    npz entry can never smuggle arbitrary pickled state.
    """

    name = "npz"
    version = 1

    _SINGLE = "__array__"

    @classmethod
    def encode(cls, value) -> bytes:
        if isinstance(value, np.ndarray):
            arrays = {cls._SINGLE: value}
        elif isinstance(value, dict):
            arrays = value
        else:
            raise TypeError(f"npz codec stores arrays, got {type(value).__name__}")
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        return buf.getvalue()

    @classmethod
    def decode(cls, payload: bytes):
        with np.load(io.BytesIO(payload), allow_pickle=False) as data:
            if set(data.files) == {cls._SINGLE}:
                return data[cls._SINGLE]
            return {k: data[k] for k in data.files}


CODECS = {PickleCodec.name: PickleCodec, NpzCodec.name: NpzCodec}


def estimate_nbytes(value) -> int:
    """Approximate in-memory footprint of a cached value.

    Arrays report exactly; array containers sum their parts; anything else
    falls back to its pickled length (close enough for budget accounting).
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sum(estimate_nbytes(v) for v in value.values()) + 64 * len(value)
    if isinstance(value, (list, tuple)):
        return sum(estimate_nbytes(v) for v in value) + 16 * len(value)
    channels = getattr(value, "channels", None)
    if isinstance(channels, np.ndarray):  # EnergyGrids-shaped
        weights = getattr(value, "weights", None)
        extra = int(weights.nbytes) if isinstance(weights, np.ndarray) else 0
        return int(channels.nbytes) + extra + 256
    try:
        return len(pickle.dumps(value, protocol=4))
    except Exception:
        return 1024


# -- memory tier --------------------------------------------------------------------


class MemoryStore:
    """LRU mapping of key -> live object under a byte budget.

    Thread-safe; eviction pops least-recently-used entries until the
    budget holds.  A value larger than the whole budget is simply not
    stored (storing it would evict everything for a single entry).
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes < 1:
            raise ValueError("memory budget must be >= 1 byte")
        self.budget_bytes = int(budget_bytes)
        self.evictions = 0
        self.total_bytes = 0
        self._entries: "OrderedDict[str, Tuple[object, int]]" = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key: str):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return MISS
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: str, value, nbytes: Optional[int] = None) -> None:
        size = int(nbytes) if nbytes is not None else estimate_nbytes(value)
        if size > self.budget_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.total_bytes -= old[1]
            self._entries[key] = (value, size)
            self.total_bytes += size
            while self.total_bytes > self.budget_bytes:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.total_bytes -= dropped
                self.evictions += 1

    def clear(self, prefix: Optional[str] = None) -> None:
        with self._lock:
            if prefix is None:
                self._entries.clear()
                self.total_bytes = 0
                return
            for key in [k for k in self._entries if k.startswith(prefix)]:
                _, size = self._entries.pop(key)
                self.total_bytes -= size

    def keys(self):
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# -- disk tier ----------------------------------------------------------------------


@dataclass
class SweepStats:
    """Outcome of one :meth:`DiskStore.sweep` pass."""

    scanned: int = 0
    removed: int = 0
    freed_bytes: int = 0
    remaining: int = 0
    remaining_bytes: int = 0
    removed_tmp: int = 0
    removed_locks: int = 0

    def to_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "removed": self.removed,
            "freed_bytes": self.freed_bytes,
            "remaining": self.remaining,
            "remaining_bytes": self.remaining_bytes,
            "removed_tmp": self.removed_tmp,
            "removed_locks": self.removed_locks,
        }


class DiskStore:
    """One file per entry under ``root``, written atomically.

    Entry layout: one JSON header line (magic, format + codec versions,
    payload SHA-256 and length) followed by the raw codec payload.  Reads
    re-verify length and checksum; any mismatch or decode failure counts
    as corruption, unlinks the entry and reads as a miss.  Writers encode
    to a unique temp file in the destination directory and ``os.replace``
    it into place, so two forked workers racing on the same key leave one
    complete entry, never an interleaved one.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.corrupt_entries = 0

    def _path(self, key: str) -> Path:
        namespace, _, digest = key.rpartition("/")
        safe_ns = "".join(
            c if (c.isalnum() or c in "-_/.") else "_" for c in namespace
        ) or "default"
        return self.root / safe_ns / digest[:2] / f"{digest}.bin"

    def put(
        self, key: str, value, codec: str = "pickle",
        payload: Optional[bytes] = None,
    ) -> None:
        """Write one entry; ``payload`` skips re-encoding when the caller
        already serialized ``value`` (the manager encodes once and reuses
        the byte length for memory-tier accounting)."""
        enc = CODECS[codec]
        if payload is None:
            payload = enc.encode(value)
        header = json.dumps(
            {
                "magic": _MAGIC,
                "format": CACHE_FORMAT_VERSION,
                "codec": enc.name,
                "codec_version": enc.version,
                "sha256": hash_parts(payload),
                "nbytes": len(payload),
            }
        ).encode("ascii")
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header + b"\n" + payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get(self, key: str):
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                header_line = fh.readline()
                payload = fh.read()
        except OSError:
            return MISS
        try:
            header = json.loads(header_line)
            if header.get("magic") != _MAGIC:
                raise ValueError("bad magic")
            if header.get("format") != CACHE_FORMAT_VERSION:
                raise ValueError("stale format version")
            codec = CODECS[header["codec"]]
            if header.get("codec_version") != codec.version:
                raise ValueError("stale codec version")
            if header.get("nbytes") != len(payload):
                raise ValueError("truncated payload")
            if header.get("sha256") != hash_parts(payload):
                raise ValueError("checksum mismatch")
            return codec.decode(payload)
        except Exception:
            # Corrupt, truncated or outdated: drop the entry and recompute.
            self.corrupt_entries += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return MISS

    def clear(self, prefix: Optional[str] = None) -> None:
        if prefix is None:
            shutil.rmtree(self.root, ignore_errors=True)
            return
        # Prefixes are namespaces; their sanitized directory holds all keys.
        probe = self._path(prefix + "/x")
        shutil.rmtree(probe.parent.parent, ignore_errors=True)

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob("*.bin"))

    # -- shared-directory coordination -------------------------------------------

    #: A lockfile older than this is presumed orphaned (its holder died)
    #: and may be stolen.  Generously above any real compute-and-put of
    #: the artifacts cached here; a stolen lock can only cost a duplicate
    #: computation, never correctness (writes stay atomic).
    LOCK_STALE_S = 300.0

    #: A ``*.tmp`` file older than this is an orphan of a crashed writer
    #: (live ones exist only for the duration of one encode + replace).
    TMP_STALE_S = 3600.0

    def _lock_path(self, key: str) -> Path:
        return self._path(key).with_suffix(".lock")

    def try_lock(self, key: str, stale_s: Optional[float] = None) -> bool:
        """Try to take the cross-process compute lock for ``key``.

        Non-blocking: ``O_CREAT | O_EXCL`` either creates the lockfile
        (lock acquired — caller must :meth:`unlock`) or fails because
        another process holds it.  A lockfile older than ``stale_s``
        (default :data:`LOCK_STALE_S`) is treated as orphaned by a dead
        holder and stolen.  This is advisory serialization for
        single-flight *efficiency*; correctness never depends on it —
        two computing processes still converge through atomic writes.
        """
        stale = self.LOCK_STALE_S if stale_s is None else float(stale_s)
        path = self._lock_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        for attempt in range(2):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - path.stat().st_mtime
                except OSError:
                    continue  # holder just released: retry the create
                if attempt == 0 and age > stale:
                    try:  # steal the orphan, then retry the create
                        os.unlink(path)
                    except OSError:
                        pass
                    continue
                return False
            with os.fdopen(fd, "w") as fh:
                fh.write(str(os.getpid()))
            return True
        return False

    def unlock(self, key: str) -> None:
        """Release ``key``'s compute lock (idempotent, missing-file safe)."""
        try:
            os.unlink(self._lock_path(key))
        except OSError:
            pass

    # -- maintenance --------------------------------------------------------------

    def total_bytes(self) -> int:
        """Total payload bytes currently stored (entries only)."""
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def _entries(self) -> List[Path]:
        if not self.root.exists():
            return []
        return list(self.root.rglob("*.bin"))

    def sweep(
        self,
        ttl_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> SweepStats:
        """Evict by age and/or total size; returns what happened.

        Entries whose mtime is older than ``ttl_s`` are removed; if the
        survivors still exceed ``max_bytes``, the oldest are removed
        (LRU by mtime — reads do not touch mtime, so this is strictly
        write-age eviction) until the budget holds.  Orphaned writer
        temp files and stale lockfiles are cleaned up along the way.
        Safe under concurrent readers, writers and *other sweeps*: every
        stat/unlink tolerates the file vanishing first, and a concurrent
        put lands atomically either before or after the pass.
        """
        t_now = time.time() if now is None else float(now)
        stats = SweepStats()
        entries: List[Tuple[float, int, Path]] = []
        for path in self._entries():
            try:
                st = path.stat()
            except OSError:
                continue  # lost a race with a concurrent sweep/clear
            stats.scanned += 1
            entries.append((st.st_mtime, st.st_size, path))

        def remove(mtime: float, size: int, path: Path) -> None:
            try:
                os.unlink(path)
            except OSError:
                return  # another sweep got it first: not freed by us
            stats.removed += 1
            stats.freed_bytes += size

        survivors: List[Tuple[float, int, Path]] = []
        for mtime, size, path in entries:
            if ttl_s is not None and t_now - mtime > float(ttl_s):
                remove(mtime, size, path)
            else:
                survivors.append((mtime, size, path))
        if max_bytes is not None:
            survivors.sort()  # oldest first
            excess = sum(size for _, size, _ in survivors) - int(max_bytes)
            while excess > 0 and survivors:
                mtime, size, path = survivors.pop(0)
                remove(mtime, size, path)
                excess -= size
        stats.remaining = len(survivors)
        stats.remaining_bytes = sum(size for _, size, _ in survivors)
        if self.root.exists():
            for pattern, attr, horizon in (
                ("*.tmp", "removed_tmp", self.TMP_STALE_S),
                ("*.lock", "removed_locks", self.LOCK_STALE_S),
            ):
                for path in self.root.rglob(pattern):
                    try:
                        if t_now - path.stat().st_mtime <= horizon:
                            continue
                        os.unlink(path)
                    except OSError:
                        continue
                    setattr(stats, attr, getattr(stats, attr) + 1)
        return stats
