"""The single minimization entry point: backend selection + batched execution.

Mirror of :class:`repro.docking.engine.DockingEngine`, one phase later:
every ensemble-refinement scenario — the FTMap minimization stage, the
equivalence tests, the benchmarks — funnels through
:class:`MinimizationEngine`.  The facade

1. resolves a backend (``serial`` / ``batched`` / ``multi-gpu-sim`` /
   ``auto``); ``auto`` follows the rule of
   :mod:`repro.minimize.selection` on the ensemble size, the pair count
   and, when two or more ``devices`` are named, shards over them,
2. builds the matching execution path — per-pose serial
   :class:`~repro.minimize.minimizer.Minimizer` runs, a
   :class:`~repro.minimize.batched.BatchedMinimizer` over an
   :class:`~repro.minimize.ensemble.EnsembleEnergyModel`, or the sharded
   :class:`~repro.minimize.multidevice.MultiDeviceMinimizer` for
   ``multi-gpu-sim``,
3. runs the ensemble and returns per-pose
   :class:`~repro.minimize.minimizer.MinimizationResult` lists.

Numerics: ``serial`` and double-precision ``batched`` agree to
floating-point summation order (tested); the production batched
configuration evaluates in float32 — the paper's GPU arithmetic — and
agrees within single-precision tolerance.  ``multi-gpu-sim`` is
bitwise-identical to ``batched`` at the same precision whatever the
device count (per-pose numerics are shard-invariant; the reduction order
is fixed by the plan).  The paper's virtual-GPU minimization kernels are
a model, not a backend: they live in :mod:`repro.gpu.minimize_kernels`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.constants import NEIGHBOR_LIST_CUTOFF, VDW_CUTOFF
from repro.minimize.batched import BatchedMinimizer
from repro.minimize.energy import EnergyModel
from repro.minimize.ensemble import EnsembleEnergyModel
from repro.minimize.minimizer import MinimizationResult, Minimizer, MinimizerConfig
from repro.minimize.multidevice import (
    DEFAULT_MINIMIZE_DEVICES,
    MultiDeviceMinimizer,
    ShardExecution,
)
from repro.minimize.selection import select_minimize_backend
from repro.obs.metrics import registry
from repro.structure.molecule import Molecule
from repro.util.parallel import chunked

__all__ = ["MinimizationEngine", "MinimizationRun", "MINIMIZE_BACKEND_NAMES"]

#: Backends the facade can execute.
MINIMIZE_BACKEND_NAMES = ("serial", "batched", "multi-gpu-sim", "auto")


@dataclass
class MinimizationRun:
    """Per-pose results plus the provenance of one facade run."""

    results: List[MinimizationResult]
    backend: str
    batch_size: int
    #: Multi-device provenance: device count the run was planned over,
    #: per-shard execution records, and the fixed merge order (empty /
    #: 1 for single-device backends).
    num_devices: int = 1
    shards: Tuple[ShardExecution, ...] = field(default_factory=tuple)
    reduction_order: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def shard_sizes(self) -> Tuple[int, ...]:
        return tuple(s.n_poses for s in self.shards)


class MinimizationEngine:
    """Facade over ensemble minimization with auto-selected backends.

    Parameters
    ----------
    molecule:
        Template complex (topology + parameters shared by all poses).
    coords_stack:
        ``(P, N, 3)`` start conformations (``(N, 3)`` is promoted to a
        single-pose ensemble).
    movable:
        Optional movable mask, ``(N,)`` shared or ``(P, N)`` per pose.
    config:
        :class:`MinimizerConfig` shared by every pose.
    backend:
        One of :data:`MINIMIZE_BACKEND_NAMES`; ``"auto"`` (default)
        follows :func:`~repro.minimize.selection.select_minimize_backend`.
    batch_size:
        Poses per vectorized evaluation for the batched path (``None`` =
        the selector's default, memory-budgeted).
    precision:
        Batched-path arithmetic: ``"single"`` (default — the production
        configuration, matching the paper's fp32 GPU kernels) or
        ``"double"`` (bitwise-serial equivalence).  Other backends always
        run float64.
    devices:
        Virtual device count for ``multi-gpu-sim`` (default
        :data:`~repro.minimize.multidevice.DEFAULT_MINIMIZE_DEVICES`);
        with ``auto``, two or more devices shard any ensemble of two or
        more poses over them.
    shard_workers:
        Concurrent shard executions for ``multi-gpu-sim``: the calling
        thread plus ``shard_workers - 1`` worker processes (``1`` forces
        the sequential shard loop; default one per shard, capped by the
        CPUs this process may run on).  A daemonic or multi-threaded
        caller runs every shard in its own thread.
    """

    def __init__(
        self,
        molecule: Molecule,
        coords_stack: np.ndarray,
        movable: np.ndarray | None = None,
        config: MinimizerConfig | None = None,
        backend: str = "auto",
        batch_size: int | None = None,
        precision: str = "single",
        devices: int | None = None,
        shard_workers: int | None = None,
        nonbonded_cutoff: float = VDW_CUTOFF,
        list_cutoff: float = NEIGHBOR_LIST_CUTOFF,
    ) -> None:
        if backend not in MINIMIZE_BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {MINIMIZE_BACKEND_NAMES}"
            )
        if precision not in ("single", "double"):
            raise ValueError(f"unknown precision {precision!r}")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if devices is None:
            devices = DEFAULT_MINIMIZE_DEVICES if backend == "multi-gpu-sim" else 1
        if devices < 1:
            raise ValueError(f"devices must be >= 1, got {devices}")
        # Host-side canonical copy is deliberately fp64; the engine casts to
        # its precision at kernel entry, so both families share one input.
        stack = np.asarray(coords_stack, dtype=float)  # repro: ignore[REPRO-DTYPE]
        if stack.ndim == 2:
            stack = stack[None]
        n = molecule.n_atoms
        if stack.ndim != 3 or stack.shape[1:] != (n, 3):
            raise ValueError(f"coords_stack must be (P, {n}, 3), got {stack.shape}")
        self.molecule = molecule
        self.coords_stack = stack
        self.n_poses = len(stack)
        self.config = config or MinimizerConfig()
        self.precision = precision
        self.nonbonded_cutoff = nonbonded_cutoff
        self.list_cutoff = list_cutoff
        self.devices = devices
        self.shard_workers = shard_workers
        # The ensemble model doubles as the selector's pair-count probe
        # (pose 0's movable-filtered list is representative — same topology,
        # same pocket scale across poses) and as the single-chunk batched
        # execution path, the common case; it also owns movable-mask
        # normalization, so validation lives in exactly one place.
        self._ensemble_model = EnsembleEnergyModel(
            self.molecule,
            self.coords_stack,
            movable=movable,
            nonbonded_cutoff=self.nonbonded_cutoff,
            list_cutoff=self.list_cutoff,
            precision=self.precision,
        )
        self.movable = self._ensemble_model.movable
        n_pairs = (
            len(self._ensemble_model.pair_arrays(0)[0]) if self.n_poses else 0
        )
        choice = select_minimize_backend(
            self.n_poses, n_pairs, batch_size=batch_size, devices=devices
        )
        self.backend = choice.backend if backend == "auto" else backend
        if batch_size is not None:
            self.batch_size = batch_size
        elif self.backend == "serial":
            self.batch_size = 1
        else:
            self.batch_size = choice.batch_size

    def _movable_row(self, p: int) -> Optional[np.ndarray]:
        return None if self.movable is None else self.movable[p]

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        cancel_check: Optional[Callable[[], None]] = None,
        on_shard: Optional[Callable[[int, int], None]] = None,
    ) -> List[MinimizationResult]:
        """Minimize the ensemble; one result per pose, in pose order."""
        return self.run_detailed(cancel_check=cancel_check, on_shard=on_shard).results

    def run_detailed(
        self,
        cancel_check: Optional[Callable[[], None]] = None,
        on_shard: Optional[Callable[[int, int], None]] = None,
    ) -> MinimizationRun:
        """Minimize and report backend provenance.

        ``cancel_check`` / ``on_shard`` drive the ``multi-gpu-sim``
        backend's cooperative boundaries (a raising ``cancel_check`` stops
        queued shards from starting and running shards at their next
        batch chunk); other backends honor ``cancel_check`` once, before
        any work starts.
        """
        t_start = time.perf_counter()
        # Provenance reports the devices the run was *planned over*, which
        # is only >1 when the sharded backend actually executes.
        num_devices = self.devices if self.backend == "multi-gpu-sim" else 1
        shards: Tuple[ShardExecution, ...] = ()
        reduction_order: Tuple[int, ...] = ()
        if cancel_check is not None and self.backend != "multi-gpu-sim":
            cancel_check()
        if self.n_poses == 0:
            results: List[MinimizationResult] = []
        elif self.backend == "serial":
            results = self._run_serial()
        elif self.backend == "batched":
            results = self._run_batched()
        else:
            md = MultiDeviceMinimizer(
                self.molecule,
                self.coords_stack,
                movable=self.movable,
                config=self.config,
                devices=num_devices,
                precision=self.precision,
                batch_size=self.batch_size,
                nonbonded_cutoff=self.nonbonded_cutoff,
                list_cutoff=self.list_cutoff,
                shard_workers=self.shard_workers,
            ).run(cancel_check=cancel_check, on_shard=on_shard)
            results = md.results
            shards = md.shards
            reduction_order = md.reduction_order
        reg = registry()
        reg.counter(
            "repro_minimize_poses_total", ("backend",),
            help="Poses minimized, by executing backend.",
        ).inc(len(results), backend=self.backend)
        reg.counter(
            "repro_minimize_iterations_total", ("backend",),
            help="Minimizer iterations run (energy/gradient evaluations).",
        ).inc(sum(r.iterations for r in results), backend=self.backend)
        reg.histogram(
            "repro_minimize_run_seconds", ("backend",),
            help="Wall seconds per minimization run.",
        ).observe(time.perf_counter() - t_start, backend=self.backend)
        if shards:
            makespans = reg.histogram(
                "repro_minimize_shard_seconds", ("device",),
                help="Measured wall seconds per minimization shard.",
            )
            for shard in shards:
                makespans.observe(shard.wall_s, device=str(shard.device_index))
        return MinimizationRun(
            results=results,
            backend=self.backend,
            batch_size=self.batch_size,
            num_devices=num_devices,
            shards=shards,
            reduction_order=reduction_order,
        )

    # -- backends ----------------------------------------------------------------

    def _serial_model(self, p: int) -> EnergyModel:
        return EnergyModel(
            self.molecule,
            movable=self._movable_row(p),
            nonbonded_cutoff=self.nonbonded_cutoff,
            list_cutoff=self.list_cutoff,
        )

    def _run_serial(self) -> List[MinimizationResult]:
        return [
            Minimizer(self._serial_model(p), config=self.config).run(
                coords=self.coords_stack[p]
            )
            for p in range(self.n_poses)
        ]

    def _run_batched(self) -> List[MinimizationResult]:
        if self.batch_size >= self.n_poses:
            return BatchedMinimizer(self._ensemble_model, self.config).run()
        results: List[MinimizationResult] = []
        for pose_chunk in chunked(list(range(self.n_poses)), self.batch_size):
            idx = np.asarray(pose_chunk)
            model = EnsembleEnergyModel(
                self.molecule,
                self.coords_stack[idx],
                movable=None if self.movable is None else self.movable[idx],
                nonbonded_cutoff=self.nonbonded_cutoff,
                list_cutoff=self.list_cutoff,
                precision=self.precision,
            )
            results.extend(BatchedMinimizer(model, self.config).run())
        return results
