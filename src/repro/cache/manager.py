"""The cache facade: policy, two-tier lookup, statistics.

One :class:`CacheManager` fronts both storage tiers behind a policy:

* ``"off"`` — every lookup bypasses storage entirely; callers compute as
  if the subsystem did not exist (bitwise-identical outputs, zero hashing
  overhead on the hot paths),
* ``"memory"`` — in-process LRU under a byte budget,
* ``"disk"`` — memory front + persistent on-disk store; disk hits are
  promoted into memory, and forked workers / separate processes share
  artifacts through the filesystem.

:meth:`CacheManager.get_or_compute` is *single-flight*: concurrent
misses on one key compute the value exactly once.  Threads coalesce on
an in-process flight table; with a disk tier, separate processes sharing
the directory coalesce through per-key lockfiles
(:meth:`~repro.cache.store.DiskStore.try_lock`) — the follower waits for
the leader's entry to land instead of duplicating the computation.
Waits surface as :attr:`CacheManager.singleflight_waits` and the
``repro_cache_singleflight_waits_total`` counter.

Managers are resolved through a small per-process registry
(:func:`resolve_manager`), so every caller that asks for the same
``(policy, directory, budget)`` gets the *same* instance — that is what
lets repeated :meth:`~repro.api.service.FTMapService.map` calls and sweep
runs hit each other's artifacts without any explicit plumbing.  The
environment configures the default: ``REPRO_CACHE_POLICY`` (off | memory
| disk), ``REPRO_CACHE_DIR`` and ``REPRO_CACHE_MEMORY_BYTES``.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.cache.store import CODECS, MISS, DiskStore, MemoryStore, estimate_nbytes
from repro.obs.metrics import registry

__all__ = [
    "CACHE_POLICIES",
    "DEFAULT_MEMORY_BUDGET",
    "CacheStats",
    "CacheManager",
    "resolve_manager",
    "default_manager",
    "reset_cache_registry",
]

#: Policies a manager can run under.
CACHE_POLICIES = ("off", "memory", "disk")

#: Memory-tier byte budget when none is configured (1 GiB): a few
#: paper-scale receptors' energy grids (~185 MB each at 128^3 x 22
#: channels fp32) must fit, or warm repeats would LRU-thrash at exactly
#: the scale the cache targets.
DEFAULT_MEMORY_BUDGET = 1024 * 1024 * 1024

_ENV_POLICY = "REPRO_CACHE_POLICY"
_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_BUDGET = "REPRO_CACHE_MEMORY_BYTES"


@dataclass
class CacheStats:
    """Counters of one manager (or a delta between two snapshots)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    corrupt_entries: int = 0
    disk_write_failures: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        n = self.lookups
        return self.hits / n if n else 0.0

    def to_dict(self) -> dict:
        """JSON-ready counters (plus the derived lookups / hit rate)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "corrupt_entries": self.corrupt_entries,
            "disk_write_failures": self.disk_write_failures,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            puts=self.puts - other.puts,
            evictions=self.evictions - other.evictions,
            memory_hits=self.memory_hits - other.memory_hits,
            disk_hits=self.disk_hits - other.disk_hits,
            corrupt_entries=self.corrupt_entries - other.corrupt_entries,
            disk_write_failures=self.disk_write_failures - other.disk_write_failures,
        )


class CacheManager:
    """Two-tier content-addressed artifact cache with hit/miss statistics.

    Values are cached as live objects in the memory tier and treated as
    immutable by convention; callers that hand a cached container to
    mutating code must copy it first (see
    :func:`repro.mapping.ftmap.dock_probe`).
    """

    def __init__(
        self,
        policy: str = "memory",
        memory_bytes: int = DEFAULT_MEMORY_BUDGET,
        directory: Optional[str] = None,
    ) -> None:
        if policy not in CACHE_POLICIES:
            raise ValueError(
                f"unknown cache policy {policy!r}; expected one of {CACHE_POLICIES}"
            )
        if policy == "disk" and not directory:
            raise ValueError("cache policy 'disk' requires a directory")
        self.policy = policy
        self.memory_bytes = int(memory_bytes)
        self.directory = str(directory) if directory else None
        self.stats = CacheStats()
        self.memory = MemoryStore(self.memory_bytes) if policy != "off" else None
        self.disk = DiskStore(self.directory) if policy == "disk" else None
        # Counter updates are atomic under one lock so concurrent requests
        # (service jobs, caller threads) never tear the statistics; the
        # thread-local scope stacks route per-request deltas (stats_scope).
        self._lock = threading.RLock()
        self._tlocal = threading.local()
        # Store totals already attributed to an operation (see
        # _store_counter_deltas); kept apart from ``stats``, which also
        # counts evictions merged in from worker processes.
        self._synced = {"evictions": 0, "corrupt_entries": 0}
        # Single-flight state: key -> Event of the in-process flight
        # currently computing it.  Followers (here and, via the disk
        # tier's lockfiles, in other processes) wait instead of
        # duplicating the computation.
        self.singleflight_waits = 0
        self._sf_mutex = threading.Lock()
        self._sf_inflight: Dict[str, threading.Event] = {}
        # Registered eagerly so the series is exported (at zero) before
        # the first contended miss ever happens.
        registry().counter(
            "repro_cache_singleflight_waits_total",
            help="get_or_compute calls that waited on another key flight "
            "(same-process thread or lockfile-coordinated process).",
        )

    # -- core operations ---------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.policy != "off"

    def _record(self, **deltas: int) -> None:
        """Apply counter deltas to the global stats and every scope the
        current thread has attached (both under the manager lock)."""
        with self._lock:
            targets = [self.stats] + getattr(self._tlocal, "scopes", [])
            for stats in targets:
                for field, delta in deltas.items():
                    if delta:
                        setattr(stats, field, getattr(stats, field) + delta)
        if deltas.get("evictions"):
            registry().counter(
                "repro_cache_evictions_total",
                help="Memory-tier cache evictions.",
            ).inc(deltas["evictions"])

    def _store_counter_deltas(self) -> Dict[str, int]:
        """Eviction/corruption deltas since the counters were last synced.

        The stores keep running totals; attribution to the operation that
        triggered them happens here, under the lock, as increments — which
        is what lets request scopes see *their* evictions instead of a
        snapshot of someone else's.
        """
        totals = {}
        if self.memory is not None:
            totals["evictions"] = self.memory.evictions
        if self.disk is not None:
            totals["corrupt_entries"] = self.disk.corrupt_entries
        deltas = {}
        for field, total in totals.items():
            deltas[field] = total - self._synced[field]
            self._synced[field] = total
        return deltas

    def merge(self, delta: CacheStats) -> None:
        """Fold counters recorded elsewhere into this manager.

        The delta — typically a worker process's :meth:`stats_scope` —
        lands in the global counters and in every scope attached to the
        calling thread, exactly as if the operations had run here.
        """
        self._record(**asdict(delta))

    def get(self, key: str):
        """Cached value for ``key`` or ``None`` (values must not be None)."""
        if not self.enabled:
            return None
        kind = key.split("/", 1)[0]
        value = self.memory.get(key)
        if value is not MISS:
            self._record(hits=1, memory_hits=1)
            self._count_lookup(kind, "hit")
            return value
        if self.disk is not None:
            value = self.disk.get(key)
            if value is not MISS:
                # Promote, so repeat lookups skip decode + checksum.
                self.memory.put(key, value, nbytes=estimate_nbytes(value))
                with self._lock:
                    self._record(
                        hits=1, disk_hits=1, **self._store_counter_deltas()
                    )
                self._count_lookup(kind, "hit")
                return value
            with self._lock:
                self._record(misses=1, **self._store_counter_deltas())
            self._count_lookup(kind, "miss")
            return None
        self._record(misses=1)
        self._count_lookup(kind, "miss")
        return None

    @staticmethod
    def _count_lookup(kind: str, outcome: str) -> None:
        registry().counter(
            "repro_cache_lookups_total", ("kind", "outcome"),
            help="Cache lookups by artifact kind (key namespace) and outcome.",
        ).inc(kind=kind, outcome=outcome)

    def put(
        self,
        key: str,
        value,
        codec: str = "pickle",
        nbytes: Optional[int] = None,
    ) -> None:
        if not self.enabled:
            return
        payload = None
        if self.disk is not None and nbytes is None:
            # Encode once: the disk payload doubles as the byte-budget
            # measurement, instead of pickling for estimate_nbytes and
            # again for the disk entry.
            payload = CODECS[codec].encode(value)
            nbytes = len(payload)
        self.memory.put(key, value, nbytes=nbytes)
        write_failures = 0
        if self.disk is not None:
            try:
                self.disk.put(key, value, codec=codec, payload=payload)
            except OSError:
                # A full or unwritable cache directory must never abort the
                # pipeline that just computed the value — the store degrades
                # to recompute on the next process, same as a corrupt read.
                write_failures = 1
        with self._lock:
            self._record(
                puts=1,
                disk_write_failures=write_failures,
                **self._store_counter_deltas(),
            )
        reg = registry()
        kind = key.split("/", 1)[0]
        reg.counter(
            "repro_cache_puts_total", ("kind",),
            help="Cache stores by artifact kind (key namespace).",
        ).inc(kind=kind)
        if nbytes:
            reg.counter(
                "repro_cache_stored_bytes_total", ("kind",),
                help="Bytes admitted to the cache by artifact kind.",
            ).inc(int(nbytes), kind=kind)

    def get_or_compute(
        self, key: str, compute: Callable[[], object], codec: str = "pickle"
    ):
        """Lookup, else compute and store — *single-flight* per key.

        With policy off: just compute.  Otherwise concurrent misses on
        one key run ``compute`` exactly once: the first caller (the
        flight leader) computes and stores, every other thread blocks on
        the flight and re-reads the landed entry.  A leader whose
        compute raises releases the flight — one waiter takes over the
        lead, so a failure never strands the key.  With a disk tier the
        leadership extends across processes through per-key lockfiles
        (see :meth:`_compute_flight`).
        """
        if not self.enabled:
            return compute()
        while True:
            value = self.get(key)
            if value is not None:
                return value
            with self._sf_mutex:
                gate = self._sf_inflight.get(key)
                leader = gate is None
                if leader:
                    gate = self._sf_inflight[key] = threading.Event()
            if not leader:
                self._note_singleflight_wait()
                gate.wait()
                continue  # flight landed (or failed): re-read, maybe lead
            try:
                return self._compute_flight(key, compute, codec)
            finally:
                with self._sf_mutex:
                    self._sf_inflight.pop(key, None)
                gate.set()

    def _compute_flight(
        self, key: str, compute: Callable[[], object], codec: str
    ):
        """Run one flight as this process's leader.

        Without a disk tier, that just means compute + put.  With one,
        the directory may be shared between processes (probe workers,
        gateway replicas, a second service on the host), so the leader
        first takes the key's lockfile; losing it means some other
        process is already computing — poll for its entry to land (or
        its lock to die) instead of duplicating the work.  The lock is
        advisory: any failure mode degrades to a duplicate computation
        converging through atomic writes, never to a wrong value.
        """
        disk = self.disk
        if disk is None:
            value = compute()
            self.put(key, value, codec=codec)
            return value
        while True:
            if disk.try_lock(key):
                try:
                    # Recheck under the lock: the previous holder may
                    # have landed the entry after our miss.
                    value = self.get(key)
                    if value is not None:
                        return value
                    value = compute()
                    self.put(key, value, codec=codec)
                    return value
                finally:
                    disk.unlock(key)
            self._note_singleflight_wait()
            lock_path = disk._lock_path(key)
            entry_path = disk._path(key)
            while True:
                time.sleep(0.005)
                if entry_path.exists():
                    value = self.get(key)
                    if value is not None:
                        return value
                    # Landed but unreadable (corrupt): take the lead.
                    break
                try:
                    age = time.time() - lock_path.stat().st_mtime
                except OSError:
                    break  # lock released without an entry: take the lead
                if age > disk.LOCK_STALE_S:
                    break  # orphaned lock: try_lock will steal it

    def _note_singleflight_wait(self) -> None:
        with self._lock:
            self.singleflight_waits += 1
        registry().counter(
            "repro_cache_singleflight_waits_total",
            help="get_or_compute calls that waited on another key flight "
            "(same-process thread or lockfile-coordinated process).",
        ).inc()

    # -- introspection -----------------------------------------------------------

    @contextmanager
    def stats_scope(self) -> Iterator[CacheStats]:
        """Request-scoped statistics: a delta of *this* activity only.

        Yields a :class:`CacheStats` that accumulates every cache
        operation the current thread performs inside the ``with`` block.
        Global-snapshot subtraction breaks as soon as two requests overlap
        on one manager — each delta would include the other request's hits
        and misses — so per-request accounting attaches a scope instead,
        and operations increment the global counters *and* every scope
        attached to the executing thread.  A scope does not cross a
        process boundary: a worker process opens its own scope on its copy
        of the manager and returns the delta, which the parent folds into
        the request's scope with :meth:`merge`.
        """
        s = CacheStats()
        with self._lock:
            stack = getattr(self._tlocal, "scopes", None)
            if stack is None:
                stack = self._tlocal.scopes = []
            stack.append(s)
        try:
            yield s
        finally:
            with self._lock:
                # Detach by identity: list.remove compares by value, and
                # two idle scopes are equal dataclasses — removing the
                # wrong one would cross-attribute and then crash the
                # outer scope's own exit.
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i] is s:
                        del stack[i]
                        break

    def snapshot(self) -> CacheStats:
        """Copy of the current counters (subtract two to get a delta)."""
        with self._lock:
            return replace(self.stats)

    def clear(self, namespace: Optional[str] = None) -> None:
        """Drop all entries, or only those under ``namespace``."""
        if self.memory is not None:
            self.memory.clear(None if namespace is None else namespace + "/")
        if self.disk is not None:
            self.disk.clear(namespace)

    def __len__(self) -> int:
        return len(self.memory) if self.memory is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CacheManager(policy={self.policy!r}, entries={len(self)}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )

    # Managers ride along when configs/engines are pickled across process
    # boundaries (spawned worker pools; forked workers inherit a copy).
    # Only the configuration travels: workers rebuild empty tiers (and
    # re-share through the disk tier's directory when one is configured).
    def __getstate__(self):
        return {
            "policy": self.policy,
            "memory_bytes": self.memory_bytes,
            "directory": self.directory,
        }

    def __setstate__(self, state) -> None:
        self.__init__(
            policy=state["policy"],
            memory_bytes=state["memory_bytes"],
            directory=state["directory"],
        )


# -- resolution ---------------------------------------------------------------------

_REGISTRY: Dict[Tuple[str, Optional[str], int], CacheManager] = {}


def resolve_manager(
    policy: str = "inherit",
    directory: Optional[str] = None,
    memory_bytes: Optional[int] = None,
) -> CacheManager:
    """Per-process memoized manager for a cache configuration.

    ``policy="inherit"`` reads the environment (default ``off``); explicit
    policies override it.  Equal configurations resolve to the same
    instance, so independent callers share tiers and statistics.
    """
    if policy == "inherit":
        policy = os.environ.get(_ENV_POLICY, "off")
        if directory is None:
            directory = os.environ.get(_ENV_DIR) or None
        if memory_bytes is None:
            env_budget = os.environ.get(_ENV_BUDGET)
            memory_bytes = int(env_budget) if env_budget else None
    if policy not in CACHE_POLICIES:
        raise ValueError(
            f"unknown cache policy {policy!r}; expected one of "
            f"{CACHE_POLICIES + ('inherit',)}"
        )
    if policy == "disk" and not directory:
        directory = os.path.join(os.getcwd(), ".repro-cache")
    budget = int(memory_bytes) if memory_bytes else DEFAULT_MEMORY_BUDGET
    directory = os.path.abspath(directory) if directory else None
    key = (policy, directory if policy == "disk" else None, budget)
    manager = _REGISTRY.get(key)
    if manager is None:
        manager = CacheManager(
            policy=policy,
            memory_bytes=budget,
            directory=directory if policy == "disk" else None,
        )
        _REGISTRY[key] = manager
    return manager


def default_manager() -> CacheManager:
    """The environment-configured artifact cache (policy ``off`` unless set)."""
    return resolve_manager("inherit")


def reset_cache_registry() -> None:
    """Forget all memoized managers (test isolation helper)."""
    _REGISTRY.clear()
