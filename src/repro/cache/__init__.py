"""Content-addressed artifact cache.

The FTMap pipeline rebuilds the same expensive artifacts on every run —
receptor energy grids, whole per-probe dock results, minimized ensembles
— even when the receptor and workload are identical.  This subsystem
makes repeat mappings and parameter sweeps near-free:

* :mod:`repro.cache.keys` — stable structural hashing of molecules, grid
  specs, energy grids, rotation sets and workload configs,
* :mod:`repro.cache.store` — the storage tiers: in-process LRU with a
  byte budget, and an on-disk store with atomic writes, versioned
  npz/pickle codecs, integrity checksums and corruption-tolerant reads,
* :mod:`repro.cache.manager` — the :class:`CacheManager` facade
  (policy ``off`` | ``memory`` | ``disk``) with hit/miss/eviction stats
  and per-key single-flight ``get_or_compute`` (threads coalesce on an
  in-process flight table, processes sharing a cache directory through
  the disk tier's lockfiles), resolved per process from the environment
  or from :class:`~repro.mapping.ftmap.FTMapConfig` cache fields,
* :mod:`repro.cache.cli` — ``python -m repro.cache prune`` maintenance
  for shared cache directories (TTL + byte-budget sweeps).

Integration seams: receptor grid builds
(:func:`repro.grids.energyfunctions.protein_grids_cached`), per-probe dock
results (:func:`repro.mapping.ftmap.dock_probe`) and minimized ensembles
(:func:`repro.mapping.ftmap.minimize_poses`).  The repeat-mapping
workload lives in :mod:`repro.mapping.sweep`.
"""

from repro.cache.keys import (
    CACHE_FORMAT_VERSION,
    array_token,
    compose_key,
    grid_spec_token,
    hash_parts,
    mapping_token,
    molecule_token,
    rotation_set_token,
)
from repro.cache.manager import (
    CACHE_POLICIES,
    DEFAULT_MEMORY_BUDGET,
    CacheManager,
    CacheStats,
    default_manager,
    reset_cache_registry,
    resolve_manager,
)
from repro.cache.store import (
    CODECS,
    DiskStore,
    MemoryStore,
    NpzCodec,
    PickleCodec,
    SweepStats,
    estimate_nbytes,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CACHE_POLICIES",
    "DEFAULT_MEMORY_BUDGET",
    "CacheManager",
    "CacheStats",
    "MemoryStore",
    "DiskStore",
    "SweepStats",
    "PickleCodec",
    "NpzCodec",
    "CODECS",
    "estimate_nbytes",
    "hash_parts",
    "array_token",
    "molecule_token",
    "grid_spec_token",
    "rotation_set_token",
    "mapping_token",
    "compose_key",
    "resolve_manager",
    "default_manager",
    "reset_cache_registry",
]
