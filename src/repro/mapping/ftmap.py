"""FTMap stages and configuration: dock -> minimize -> cluster per probe.

This is the end-to-end application the paper accelerates.  Each probe
flows through the staged functions — :func:`dock_probe` (the
:class:`~repro.docking.engine.DockingEngine` facade),
:func:`minimize_poses` (the
:class:`~repro.minimize.engine.MinimizationEngine` facade over the docked
ensemble) and :func:`cluster_probe`.  :func:`map_probe` is the one body
that runs them in order, with their spans, progress callbacks and
cancellation; :class:`repro.api.FTMapService` calls it for each of a
request's probes, in the request's thread or one whole probe per worker
process (see :mod:`repro.workers`).  The
:class:`FTMapConfig` here is the single workload description shared by
every layer, JSON-round-trippable through :meth:`FTMapConfig.to_dict`.

The stages are workload-parameterized so tests and examples can run
scaled-down instances (fewer rotations / probes / iterations) while the
benchmarks use the cost models for paper-scale timing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.keys import (
    array_token,
    compose_key,
    float_token,
    hash_parts,
    mapping_token,
    molecule_token,
)
from repro.cache.manager import CACHE_POLICIES, CacheManager, CacheStats, resolve_manager
from repro.constants import POSES_PER_ROTATION
from repro.docking.engine import BACKEND_NAMES, DockingEngine, DockingRun
from repro.docking.piper import DockedPose, PiperConfig
from repro.geometry.transforms import centered
from repro.mapping.clustering import Cluster, cluster_poses
from repro.mapping.consensus import ConsensusSite
from repro.minimize.engine import MINIMIZE_BACKEND_NAMES, MinimizationEngine
from repro.minimize.multidevice import ShardExecution
from repro.minimize.minimizer import MinimizationResult, MinimizerConfig
from repro.obs.metrics import registry
from repro.obs.trace import NULL_TRACER, TracerLike, current_span, current_tracer
from repro.structure.builder import pocket_movable_mask
from repro.structure.molecule import Molecule
from repro.structure.probes import FTMAP_PROBE_NAMES

__all__ = [
    "FTMapConfig",
    "ProbeResult",
    "FTMapResult",
    "MinimizeStage",
    "dock_probe",
    "minimize_poses",
    "cluster_probe",
    "map_probe",
    "probe_result",
]


#: Fields of older configs that never changed a result bit of today's
#: engines: the 1.x scheduling fields, and the rotation batch of 6.x,
#: which the certified direct engine never read.
#: :meth:`FTMapConfig.from_dict` drops them.
_RETIRED_FIELDS = ("probe_workers", "docking_workers", "batch_size")


@dataclass(frozen=True)
class FTMapConfig:
    """Workload configuration of one mapping run.

    Defaults are scaled for interactive use; the paper-scale workload is
    500 rotations x 16 probes x 2000 minimized conformations (see
    ``repro.gpu.pipeline`` for the timing-model equivalents).

    Docking has one backend, certified ``direct``
    (:class:`~repro.docking.engine.DockingEngine`); :attr:`engine` reads
    it.  ``minimize_engine`` selects the
    minimization backend (any
    :class:`~repro.minimize.engine.MinimizationEngine` backend, default
    ``"auto"``).  ``minimize_devices`` shards the minimization ensemble
    over that many virtual devices (:mod:`repro.minimize.multidevice`):
    with ``minimize_engine`` set to ``"multi-gpu-sim"`` it is the shard
    width, and with ``"auto"`` two or more devices shard every ensemble of
    two or more poses.  How a request's probes
    are scheduled is not part of the workload: it is the ``streaming``
    argument of :meth:`repro.api.FTMapService.map`.

    ``cache_policy`` drives the content-addressed artifact cache
    (:mod:`repro.cache`): ``"off"`` | ``"memory"`` | ``"disk"`` | the
    default ``"inherit"``, which reads ``REPRO_CACHE_POLICY`` from the
    environment (off unless set).  When enabled, receptor grids, whole
    per-probe dock results and minimized ensembles are reused across runs
    keyed by receptor x probe x rotation set x grid spec, which makes
    repeat mappings and parameter sweeps (:mod:`repro.mapping.sweep`)
    near-free on the docking side.  Nonsensical field values are rejected
    here, at construction, instead of failing deep in the pipeline.
    """

    probe_names: Sequence[str] = FTMAP_PROBE_NAMES
    num_rotations: int = 24
    poses_per_rotation: int = POSES_PER_ROTATION
    receptor_grid: int = 48
    probe_grid: int = 4
    grid_spacing: float = 1.25
    minimize_top: int = 12            # conformations minimized per probe
    minimizer_iterations: int = 60
    cluster_radius: float = 4.0
    consensus_radius: float = 6.0
    flexible_radius: float = 8.2
    minimize_engine: str = "auto"     # any MinimizationEngine backend
    minimize_batch_size: Optional[int] = None
    minimize_devices: Optional[int] = None   # virtual devices for minimization
    cache_policy: str = "inherit"     # inherit | off | memory | disk
    cache_dir: Optional[str] = None
    cache_memory_bytes: Optional[int] = None
    #: Record a per-request trace (:mod:`repro.obs.trace`).  Excluded
    #: from every cache key by construction (keys name their fields
    #: explicitly), so traced and untraced runs share artifacts.
    tracing: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.tracing, bool):
            raise ValueError(
                f"tracing must be a boolean, got {self.tracing!r}"
            )
        if not self.probe_names:
            raise ValueError("probe_names must name at least one probe")
        for name, value in (
            ("num_rotations", self.num_rotations),
            ("poses_per_rotation", self.poses_per_rotation),
            ("receptor_grid", self.receptor_grid),
            ("probe_grid", self.probe_grid),
            ("minimize_top", self.minimize_top),
            ("minimizer_iterations", self.minimizer_iterations),
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name, value in (
            ("grid_spacing", self.grid_spacing),
            ("cluster_radius", self.cluster_radius),
            ("consensus_radius", self.consensus_radius),
            ("flexible_radius", self.flexible_radius),
        ):
            if not (value > 0):
                raise ValueError(f"{name} must be positive, got {value}")
        if self.minimize_engine not in MINIMIZE_BACKEND_NAMES:
            raise ValueError(
                f"unknown minimize engine {self.minimize_engine!r}; expected "
                f"one of {MINIMIZE_BACKEND_NAMES}"
            )
        for name, value in (
            ("minimize_batch_size", self.minimize_batch_size),
            ("minimize_devices", self.minimize_devices),
            ("cache_memory_bytes", self.cache_memory_bytes),
        ):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 when set, got {value}")
        if self.cache_policy not in CACHE_POLICIES + ("inherit",):
            raise ValueError(
                f"unknown cache policy {self.cache_policy!r}; expected one of "
                f"{CACHE_POLICIES + ('inherit',)}"
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form of the config (every field; tuples as lists).

        The round trip ``FTMapConfig.from_dict(json.loads(json.dumps(
        cfg.to_dict())))`` reproduces ``cfg`` exactly — this is what lets
        sweep reports, job logs and a future wire protocol carry whole
        workload configurations as plain data.
        """
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FTMapConfig":
        """Rebuild a config from :meth:`to_dict` output (re-validated).

        Older documents still load: the retired fields ``probe_workers`` /
        ``docking_workers`` (1.x) and ``batch_size`` (6.x) are dropped
        (they never changed a result bit of today's engines), and
        ``minimize_engine="multiprocess"`` — the retired forked per-pose
        backend — becomes ``"serial"``, which has the same serial-fp64
        numerics and therefore the same results and cache keys.  An
        ``engine`` field must name the one docking backend, ``"direct"``,
        as every 6.x document with default docking does; any other name
        gets the unknown-docking-engine error.
        """
        known = {f.name for f in fields(cls)} | {"engine"}
        unknown = sorted(set(data) - known - set(_RETIRED_FIELDS))
        if unknown:
            raise ValueError(f"unknown FTMapConfig field(s): {unknown}")
        engine = data.get("engine", "direct")
        if engine not in BACKEND_NAMES:
            raise ValueError(
                f"unknown docking engine {engine!r}; expected one of "
                f"{BACKEND_NAMES}"
            )
        kwargs = {
            k: v for k, v in data.items() if k not in _RETIRED_FIELDS + ("engine",)
        }
        if kwargs.get("minimize_engine") == "multiprocess":
            kwargs["minimize_engine"] = "serial"
        if "probe_names" in kwargs:
            kwargs["probe_names"] = tuple(kwargs["probe_names"])
        return cls(**kwargs)

    @property
    def engine(self) -> str:
        """Always ``"direct"``, the one docking backend; read-only."""
        return "direct"

    @property
    def docking_workers(self) -> None:
        """Always ``None``; read-only, kept for 1.x callers of the retired field."""
        return None

    def cache_manager(self) -> CacheManager:
        """The artifact cache this run uses (process-memoized per config)."""
        return resolve_manager(
            self.cache_policy, self.cache_dir, self.cache_memory_bytes
        )

    def piper_config(self) -> PiperConfig:
        """The docking workload of this run, for :class:`DockingEngine` or
        direct :class:`PiperDocker` use.

        It names what to dock, not how: docking has one backend.
        """
        return PiperConfig(
            num_rotations=self.num_rotations,
            poses_per_rotation=self.poses_per_rotation,
            receptor_grid=self.receptor_grid,
            probe_grid=self.probe_grid,
            grid_spacing=self.grid_spacing,
        )

    def minimizer_config(self) -> MinimizerConfig:
        return MinimizerConfig(max_iterations=self.minimizer_iterations)


@dataclass
class ProbeResult:
    """Everything FTMap learns about one probe."""

    probe_name: str
    docked_poses: List[DockedPose]
    minimized: List[MinimizationResult]
    minimized_centers: np.ndarray          # (M, 3) probe centers after refinement
    minimized_energies: np.ndarray         # (M,)
    clusters: List[Cluster]
    docking_backend: str = ""
    minimize_backend: str = ""
    #: Where the minimization actually ran: device count the stage was
    #: planned over, per-shard pose counts, and the fixed merge order
    #: (empty / 1 for single-device backends).  ``minimize_cached`` marks
    #: stages served from the artifact cache — no shards ran at all.
    minimize_devices: int = 1
    minimize_shard_sizes: Tuple[int, ...] = ()
    minimize_reduction_order: Tuple[int, ...] = ()
    minimize_cached: bool = False

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary of this probe's outcome.

        Carries everything a wire client consumes — clusters, the exact
        minimized centers/energies (Python floats round-trip bitwise
        through JSON), and the backend/shard provenance — but not the
        bulk pose/conformation payloads (``docked_poses``/``minimized``),
        which stay process-local; ``n_docked_poses``/``n_minimized``
        record their sizes.
        """
        return {
            "probe_name": self.probe_name,
            "n_docked_poses": len(self.docked_poses),
            "n_minimized": len(self.minimized),
            "minimized_centers": [
                [float(x) for x in row]
                for row in np.asarray(self.minimized_centers).reshape(-1, 3)
            ],
            "minimized_energies": [
                float(e) for e in np.asarray(self.minimized_energies).ravel()
            ],
            "clusters": [c.to_dict() for c in self.clusters],
            "docking_backend": self.docking_backend,
            "minimize_backend": self.minimize_backend,
            "minimize_devices": int(self.minimize_devices),
            "minimize_shard_sizes": [int(s) for s in self.minimize_shard_sizes],
            "minimize_reduction_order": [
                int(i) for i in self.minimize_reduction_order
            ],
            "minimize_cached": bool(self.minimize_cached),
        }


@dataclass
class FTMapResult:
    """Full mapping outcome: per-probe details + consensus hotspots."""

    probe_results: Dict[str, ProbeResult]
    sites: List[ConsensusSite]
    #: Artifact-cache counter delta of this run (None with caching off).
    #: Under process streaming each worker task returns the delta of its
    #: own stats scope and the parent merges it in, so worker lookups
    #: count too.  A configured disk tier is shared with the workers, but
    #: what a worker puts in its memory tier stays in that worker: the
    #: service's ``auto`` streaming therefore maps memory-only managers
    #: in the request's thread, and only an explicit
    #: ``streaming="process"`` sends them to workers.
    cache_stats: Optional[CacheStats] = None

    @property
    def top_site(self) -> Optional[ConsensusSite]:
        return self.sites[0] if self.sites else None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary: per-probe summaries + ranked sites + stats."""
        return {
            "probes": {
                name: pr.to_dict() for name, pr in self.probe_results.items()
            },
            "sites": [site.to_dict() for site in self.sites],
            "cache_stats": (
                self.cache_stats.to_dict()
                if self.cache_stats is not None
                else None
            ),
        }


# -- pipeline stages ----------------------------------------------------------------


def _dock_result_key(
    receptor: Molecule, probe: Molecule, config: FTMapConfig
) -> str:
    """Cache key of one probe's full dock result.

    Keyed by receptor content x probe content x the complete docking
    workload (rotation count + scheme, grid edges and spacing, poses per
    rotation, exclusion radius, desolvation terms/seed).
    """
    workload = config.piper_config()
    return compose_key(
        "dock-results",
        [
            molecule_token(receptor),
            molecule_token(probe),
            mapping_token(
                num_rotations=workload.num_rotations,
                poses_per_rotation=workload.poses_per_rotation,
                receptor_grid=workload.receptor_grid,
                probe_grid=workload.probe_grid,
                grid_spacing=float(workload.grid_spacing),
                n_desolvation_terms=workload.n_desolvation_terms,
                exclusion_radius=workload.exclusion_radius,
                rotation_scheme=workload.rotation_scheme,
                desolvation_seed=workload.desolvation_seed,
                # 6.2.0's key fields for direct docking: 6.2.0 disk entries still hit.
                engine="direct",
                batch_size=None,
            ),
        ],
    )


def dock_probe(
    receptor: Molecule,
    probe: Molecule,
    config: FTMapConfig,
    cache: Optional[CacheManager] = None,
) -> DockingRun:
    """Stage 1: exhaustive rigid docking through the engine facade.

    With an enabled cache (``cache`` argument, else
    ``config.cache_manager()``), the whole :class:`DockingRun` is served
    content-addressed: a repeat mapping of the same receptor/probe/workload
    skips gridding and the rotation loop entirely.  Pose lists are
    shallow-copied on hits so callers may reorder them freely.
    """
    span = current_span()
    manager = cache if cache is not None else config.cache_manager()
    if manager.enabled:
        key = _dock_result_key(receptor, probe, config)
        hit = manager.get(key)
        if hit is not None:
            span.set_attributes(cache="hit", backend=hit.backend)
            return replace(hit, poses=list(hit.poses))
    engine = DockingEngine(
        receptor,
        probe,
        config.piper_config(),
        cache=manager if manager.enabled else None,
    )
    span.set_attributes(
        cache="miss" if manager.enabled else "off",
        backend=engine.backend,
        rotations=config.num_rotations,
    )
    run = engine.run_detailed()
    if manager.enabled:
        manager.put(key, replace(run, poses=list(run.poses)), codec="pickle")
    return run


@dataclass
class MinimizeStage:
    """Outcome of the minimization stage for one probe, with provenance.

    Beside the results, centers, energies and backend, the fields record
    where the work actually ran — device count, per-shard pose counts, the
    fixed reduction order, and whether the whole stage was served from the
    artifact cache.
    """

    results: List[MinimizationResult]
    centers: np.ndarray                    # (M, 3)
    energies: np.ndarray                   # (M,)
    backend: str
    devices: int = 1
    shards: Tuple[ShardExecution, ...] = ()
    reduction_order: Tuple[int, ...] = ()
    cached: bool = False

    @property
    def shard_sizes(self) -> Tuple[int, ...]:
        return tuple(s.n_poses for s in self.shards)


#: Numerics families of the minimization backends: every backend in a
#: family produces bitwise-identical per-pose results (batched ==
#: multi-gpu-sim's fp32 lock-step arithmetic, shard/batch-invariant), so
#: cached ensembles are shared within a family and never across.
_MINIMIZE_NUMERICS_FAMILY = {
    "serial": "serial-fp64",
    "batched": "batched-fp32",
    "multi-gpu-sim": "batched-fp32",
}


def _minimize_result_key(
    receptor: Molecule,
    probe: Molecule,
    top: Sequence[DockedPose],
    config: FTMapConfig,
    resolved_backend: str,
) -> str:
    """Cache key of one probe's minimized ensemble.

    Keyed by the dock-result content actually refined (the top poses'
    transforms and scores — a different docking engine or rotation set
    changes these, so dock identity is carried by the poses themselves),
    the minimizer configuration, and the *numerics family* of the
    **resolved** backend — never the config string, so ``"auto"`` keys on
    what it actually resolved to and cannot serve fp32 results where a
    fresh run would compute fp64 (or vice versa).  Deliberately
    **shard-invariant**: device count and batch size are excluded because
    per-pose results are independent of how the ensemble is sharded or
    batched (the multi-device reduction is deterministic, tested
    bitwise), so a warm repeat skips minimization whatever device count it
    asks for.
    """
    family = _MINIMIZE_NUMERICS_FAMILY[resolved_backend]
    pose_parts = []
    for pose in top:
        pose_parts.append(array_token(pose.transform.rotation))
        pose_parts.append(array_token(pose.transform.translation))
        pose_parts.append(float_token(pose.score))
    return compose_key(
        "minimize-results",
        [
            molecule_token(receptor),
            molecule_token(probe),
            hash_parts("minimized-poses", *pose_parts),
            mapping_token(
                minimize_top=config.minimize_top,
                minimizer_iterations=config.minimizer_iterations,
                flexible_radius=float(config.flexible_radius),
                engine_family=family,
            ),
        ],
    )


def minimize_poses(
    receptor: Molecule,
    probe: Molecule,
    poses: Sequence[DockedPose],
    config: FTMapConfig,
    cache: Optional[CacheManager] = None,
    cancel_check: Optional[Callable[[], None]] = None,
    on_shard: Optional[Callable[[int, int], None]] = None,
) -> MinimizeStage:
    """Stage 2: refine the top docked poses as one batched ensemble.

    Builds the receptor+probe complex template once, stacks the top
    ``minimize_top`` pose conformations into a ``(P, N, 3)`` ensemble with
    per-pose pocket masks, and hands the whole stack to the
    :class:`MinimizationEngine` (backend per ``config.minimize_engine``,
    sharded over ``config.minimize_devices`` virtual devices when set).

    With an enabled cache (``cache`` argument, else
    ``config.cache_manager()``), the whole minimized ensemble is served
    content-addressed — keyed by the dock-result content x minimizer
    config x the *resolved* backend's numerics family, shard-invariantly
    — so a warm repeat mapping skips the minimization itself entirely
    (the engine is still constructed, because ``"auto"`` only resolves
    against the real workload; that costs one pose-0 neighbor list, not
    P poses x iterations of refinement).

    ``cancel_check`` / ``on_shard`` reach the multi-device backend's
    shard boundaries (cooperative cancellation, per-shard progress).

    Returns a :class:`MinimizeStage`; a probe whose docking produced no
    poses yields the explicit empty ensemble rather than tripping over
    empty array construction downstream.
    """
    top = list(poses[: config.minimize_top])
    n_probe = probe.n_atoms
    if not top:
        return MinimizeStage([], np.empty((0, 3)), np.empty((0,)), "")

    placed0 = probe.with_coords(top[0].transform.apply(centered(probe.coords)))
    template = receptor.merged_with(placed0)
    n_total = template.n_atoms
    stack = np.empty((len(top), n_total, 3))
    stack[:, : n_total - n_probe] = receptor.coords
    for k, pose in enumerate(top):
        stack[k, n_total - n_probe:] = pose.transform.apply(centered(probe.coords))
    movable = np.stack(
        [
            pocket_movable_mask(
                template.with_coords(stack[k]),
                n_probe,
                flexible_radius=config.flexible_radius,
            )
            for k in range(len(top))
        ]
    )
    engine = MinimizationEngine(
        template,
        stack,
        movable=movable,
        config=config.minimizer_config(),
        backend=config.minimize_engine,
        batch_size=config.minimize_batch_size,
        devices=config.minimize_devices,
    )

    span = current_span()
    manager = cache if cache is not None else config.cache_manager()
    key = ""
    if manager.enabled:
        key = _minimize_result_key(receptor, probe, top, config, engine.backend)
        hit = manager.get(key)
        if hit is not None:
            span.set_attributes(cache="hit", backend=hit["backend"])
            return MinimizeStage(
                results=list(hit["results"]),
                centers=hit["centers"].copy(),
                energies=hit["energies"].copy(),
                backend=hit["backend"],
                devices=hit["devices"],
                cached=True,
            )

    span.set_attributes(
        cache="miss" if manager.enabled else "off",
        backend=engine.backend,
        poses=len(top),
    )
    run = engine.run_detailed(cancel_check=cancel_check, on_shard=on_shard)
    tracer = current_tracer()
    if tracer.enabled:
        span.set_attributes(devices=run.num_devices)
        # Per-shard spans from the wall clocks the multi-device engine
        # measured where each shard ran: recorded post hoc so the trace
        # shows true shard overlap without plumbing obs into the engine.
        for shard in run.shards:
            tracer.add_span(
                "minimize-shard",
                shard.wall_start_s,
                shard.wall_start_s + shard.wall_s,
                parent=span,
                thread=f"minimize-device-{shard.device_index}",
                device=shard.device_index,
                n_poses=shard.n_poses,
            )
    centers = np.stack([r.coords[-n_probe:].mean(axis=0) for r in run.results])
    energies = np.array([r.energy for r in run.results], dtype=float)
    stage = MinimizeStage(
        results=run.results,
        centers=centers,
        energies=energies,
        backend=run.backend,
        devices=run.num_devices,
        shards=run.shards,
        reduction_order=run.reduction_order,
    )
    if manager.enabled:
        manager.put(
            key,
            {
                "results": list(run.results),
                "centers": centers.copy(),
                "energies": energies.copy(),
                "backend": run.backend,
                "devices": run.num_devices,
            },
            codec="pickle",
        )
    return stage


def cluster_probe(
    centers: np.ndarray, energies: np.ndarray, config: FTMapConfig
) -> List[Cluster]:
    """Stage 3: energy-weighted clustering of the refined probe centers."""
    if len(centers) == 0:
        return []
    return cluster_poses(centers, energies, radius=config.cluster_radius)


#: ``on_event(stage, span, shard)`` of :func:`map_probe`: called as each
#: stage starts (``shard`` is None) and as each minimization shard starts
#: (stage ``"minimize-shard"``, ``shard`` is ``(index, count)``).
StageCallback = Callable[[str, Any, Optional[Tuple[int, int]]], None]


def map_probe(
    receptor: Molecule,
    name: str,
    probe: Molecule,
    config: FTMapConfig,
    cache: Optional[CacheManager] = None,
    *,
    tracer: TracerLike = NULL_TRACER,
    parent=None,
    on_event: Optional[StageCallback] = None,
    cancel_check: Optional[Callable[[], None]] = None,
) -> ProbeResult:
    """Run one probe through dock -> minimize -> cluster.

    The one stage body of every streaming mode: the service runs it in
    the request's thread, a process worker runs it once per task.  Each
    stage opens a ``dock``/``minimize``/``cluster`` span on ``tracer``
    under ``parent`` (the stage functions annotate it), records a
    ``*-exec`` child for the stage call itself, and is observed in the
    ``repro_stage_seconds`` histogram.  ``cancel_check`` runs before each
    stage and reaches the minimizer's shard and batch-chunk boundaries.
    """
    stage_seconds = registry().histogram(
        "repro_stage_seconds", ("stage",),
        help="Wall seconds per pipeline stage.",
    )

    @contextmanager
    def stage(label: str) -> Iterator[Any]:
        if cancel_check is not None:
            cancel_check()
        t_stage = time.perf_counter()
        with tracer.span(label, parent=parent, probe=name) as span:
            if on_event is not None:
                on_event(label, span, None)
            t_exec = time.perf_counter()
            yield span
            tracer.add_span(
                f"{label}-exec", t_exec, time.perf_counter(),
                parent=span, probe=name,
            )
        stage_seconds.observe(time.perf_counter() - t_stage, stage=label)

    with stage("dock"):
        docking = dock_probe(receptor, probe, config, cache=cache)
    with stage("minimize") as span:

        def on_shard(index: int, count: int) -> None:
            if on_event is not None:
                on_event("minimize-shard", span, (index, count))

        minimized = minimize_poses(
            receptor, probe, docking.poses, config, cache=cache,
            cancel_check=cancel_check, on_shard=on_shard,
        )
    with stage("cluster"):
        clusters = cluster_probe(minimized.centers, minimized.energies, config)
    return probe_result(name, docking, minimized, clusters)


def probe_result(
    name: str, docking: DockingRun, stage: MinimizeStage, clusters
) -> ProbeResult:
    """Assemble one probe's :class:`ProbeResult` from its three stages."""
    return ProbeResult(
        probe_name=name,
        docked_poses=docking.poses,
        minimized=stage.results,
        minimized_centers=stage.centers,
        minimized_energies=stage.energies,
        clusters=clusters,
        docking_backend=docking.backend,
        minimize_backend=stage.backend,
        minimize_devices=stage.devices,
        minimize_shard_sizes=stage.shard_sizes,
        minimize_reduction_order=stage.reduction_order,
        minimize_cached=stage.cached,
    )
