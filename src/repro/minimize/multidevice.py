"""Multi-device ensemble minimization: shard the pose stack, merge in order.

The paper's stated future work ("we plan on extending this work to a
multi-GPU implementation", Sec. VI) applied to the minimization phase:
independent conformations distribute across devices with no inter-device
communication, so a ``(P, N, 3)`` ensemble shards into contiguous
per-device sub-ensembles (:class:`~repro.exec.plan.ShardPlan`), each shard
runs the :class:`~repro.minimize.batched.BatchedMinimizer`, and the
per-shard results merge back in the plan's fixed reduction order.  A run
records each shard's measured wall clock; the paper-scale prediction of a
sharded phase is a model (:func:`repro.perf.speedup.multi_device_phase_s`),
not part of the run.

Determinism is the load-bearing property: each pose's trajectory depends
only on its own coordinates (the batched evaluator reduces along the pair
axis per pose), so shard composition cannot change any pose's numbers,
and the ordered reduction makes a 1/2/4-device run bitwise-identical to
the single-device ``BatchedMinimizer`` — in fp64 exactly, in the fp32
production precision too.  That invariance is also what lets the
minimization artifact cache key stay *shard-invariant* (device count and
batch size excluded).

Shards run on ``lanes`` execution lanes, one per shard up to the CPUs
this process may run on: the calling thread is lane 0 and every other
lane is a worker process (:class:`~repro.workers.pool.ProcessWorkerPool`);
shard ``k`` runs on lane ``k % lanes``.  Each worker is a separate
process, like a separate device with its own memory: no interpreter lock
couples the lanes, so a shard's GIL-held work (the gradient scatters and
gathers, the bonded terms' small ops, per-shard set-up) runs in parallel
with the others; on thread lanes it would not.  Workers fork, so the
ensemble reaches them without a copy, and only each shard's results
travel back; the calling thread computing too saves one fork, whose cost
grows with the caller's memory.  ``shard_workers=1``, a single usable
CPU, a daemonic caller (a process-streaming worker may not start
processes) or a process with more than one live thread (a fork could
copy a lock another thread holds; a service's job threads are such
callers) runs every shard in the calling thread.

Cancellation is cooperative.  The calling thread checks as each of its
shards starts and at every batch-chunk boundary within one, so a shard
it runs stops at its next memory-budgeted chunk rather than mid-kernel.
It also checks before dispatching each worker shard and then every 50 ms
while workers run; a cancel terminates the workers, so their queued
shards never start and running ones stop at once.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, wait
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.constants import NEIGHBOR_LIST_CUTOFF, VDW_CUTOFF
from repro.exec.plan import ShardPlan
from repro.minimize.batched import BatchedMinimizer
from repro.minimize.ensemble import EnsembleEnergyModel
from repro.minimize.minimizer import MinimizationResult, MinimizerConfig
from repro.structure.molecule import Molecule
from repro.util.parallel import usable_cpus
from repro.workers.pool import ProcessWorkerPool

__all__ = [
    "DEFAULT_MINIMIZE_DEVICES",
    "ShardExecution",
    "MultiDeviceRun",
    "MultiDeviceMinimizer",
]

#: Device count a bare ``backend="multi-gpu-sim"`` request shards over
#: when ``devices`` is not given: the smallest real fan-out.
DEFAULT_MINIMIZE_DEVICES = 2

#: Seconds between the caller's cancel checks while shard processes run.
_CANCEL_POLL_S = 0.05


@dataclass(frozen=True)
class ShardExecution:
    """Provenance of one executed shard: where it ran and how long it took."""

    device_index: int
    start: int
    stop: int
    n_poses: int
    #: Measured host wall clock of this shard (``time.perf_counter``
    #: start and elapsed seconds where it ran; ``CLOCK_MONOTONIC``, one
    #: clock for every process on the host), consumed by the tracing
    #: layer to reconstruct shard overlap post hoc.
    wall_start_s: float
    wall_s: float


@dataclass
class MultiDeviceRun:
    """Merged per-pose results plus the full shard provenance."""

    results: List[MinimizationResult]
    num_devices: int
    shards: Tuple[ShardExecution, ...]
    reduction_order: Tuple[int, ...]


class MultiDeviceMinimizer:
    """Shards an ensemble over ``devices`` virtual devices and minimizes.

    Parameters
    ----------
    molecule:
        Template complex shared by all poses.
    coords_stack:
        ``(P, N, 3)`` start conformations (``(N, 3)`` promoted to ``P=1``).
    movable:
        Optional movable mask, ``(N,)`` shared or ``(P, N)`` per pose.
    config:
        :class:`MinimizerConfig` shared by every pose.
    devices:
        Device count to shard over (default
        :data:`DEFAULT_MINIMIZE_DEVICES`).
    precision:
        Sub-ensemble arithmetic, ``"single"`` (production, the paper's
        fp32 kernels) or ``"double"`` (bitwise-serial reference).
    batch_size:
        Poses per vectorized evaluation *within* a shard (``None`` = the
        whole shard at once).  The engine passes its memory-budgeted
        batch here, so a shard larger than the working-set cap evaluates
        in chunks exactly like the single-device batched path —
        numerically invisible (per-pose independence), memory-visible.
    shard_workers:
        Concurrent shard executions: the calling thread plus
        ``shard_workers - 1`` worker processes (default: one lane per
        shard up to :func:`~repro.util.parallel.usable_cpus`; ``1``
        forces the sequential loop).
    """

    def __init__(
        self,
        molecule: Molecule,
        coords_stack: np.ndarray,
        movable: np.ndarray | None = None,
        config: MinimizerConfig | None = None,
        devices: int = DEFAULT_MINIMIZE_DEVICES,
        precision: str = "single",
        batch_size: int | None = None,
        nonbonded_cutoff: float = VDW_CUTOFF,
        list_cutoff: float = NEIGHBOR_LIST_CUTOFF,
        shard_workers: int | None = None,
    ) -> None:
        if precision not in ("single", "double"):
            raise ValueError(f"unknown precision {precision!r}")
        if devices < 1:
            raise ValueError(f"devices must be >= 1, got {devices}")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if shard_workers is not None and shard_workers < 1:
            raise ValueError(f"shard_workers must be >= 1, got {shard_workers}")
        # Host-side canonical copy is deliberately fp64; each shard's
        # BatchedMinimizer casts to the engine precision at kernel entry.
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
        self.devices = devices
        self.precision = precision
        self.batch_size = batch_size
        self.nonbonded_cutoff = nonbonded_cutoff
        self.list_cutoff = list_cutoff
        self.shard_workers = shard_workers
        self.movable = self._normalize_movable(movable)

    def _normalize_movable(self, movable) -> Optional[np.ndarray]:
        if movable is None:
            return None
        movable = np.asarray(movable, dtype=bool)
        if movable.shape == (self.molecule.n_atoms,):
            movable = np.broadcast_to(
                movable, (self.n_poses, self.molecule.n_atoms)
            ).copy()
        if movable.shape != (self.n_poses, self.molecule.n_atoms):
            raise ValueError(
                f"movable must be ({self.molecule.n_atoms},) or "
                f"({self.n_poses}, {self.molecule.n_atoms}), got {movable.shape}"
            )
        return movable

    def plan(self) -> ShardPlan:
        """The shard plan this run executes (also its reduction order)."""
        return ShardPlan.contiguous(self.n_poses, self.devices)

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        cancel_check: Optional[Callable[[], None]] = None,
        on_shard: Optional[Callable[[int, int], None]] = None,
    ) -> MultiDeviceRun:
        """Minimize every shard; results merge in the plan's fixed order.

        ``cancel_check()`` runs as each shard of the calling thread
        starts and before every batch chunk within one, before each
        dispatch to a worker process, and every 50 ms while workers run
        (raise to stop: queued shards are abandoned, running ones stop);
        ``on_shard(shard_index, num_shards)`` fires in the calling thread
        as each shard is dispatched or starts there, for per-shard
        progress reporting.
        """
        plan = self.plan()
        lanes = min(self.shard_workers or usable_cpus(), len(plan.shards))
        if mp.current_process().daemon or threading.active_count() > 1:
            # Fork only from a single-threaded process: a daemonic one (a
            # process-streaming worker) may start no processes, and a fork
            # while other threads run can copy a lock one of them holds.
            lanes = 1
        # Every shard model is a pose subset of this one, which builds the
        # per-complex set-up once (forked workers inherit it).
        ensemble = EnsembleEnergyModel(
            self.molecule,
            self.coords_stack,
            movable=self.movable,
            nonbonded_cutoff=self.nonbonded_cutoff,
            list_cutoff=self.list_cutoff,
            precision=self.precision,
        )
        ensemble._complex_setup()
        outs = self._run_lanes(max(lanes, 1), ensemble, cancel_check, on_shard)

        results: List[MinimizationResult] = []
        executions: List[ShardExecution] = []
        for shard_results, execution in outs:
            results.extend(shard_results)
            executions.append(execution)
        return MultiDeviceRun(
            results=results,
            num_devices=self.devices,
            shards=tuple(executions),
            reduction_order=plan.reduction_order,
        )

    def _run_lanes(
        self,
        lanes: int,
        ensemble: EnsembleEnergyModel,
        cancel_check: Optional[Callable[[], None]],
        on_shard: Optional[Callable[[int, int], None]],
    ) -> List[Tuple[List[MinimizationResult], ShardExecution]]:
        n_shards = len(self.plan().shards)
        outs: Dict[int, Tuple[List[MinimizationResult], ShardExecution]] = {}
        pool = (
            ProcessWorkerPool(
                lanes - 1,
                initializer=_init_shard_worker,
                initargs=(self, ensemble),
                name="minimize-shard",
            )
            if lanes > 1
            else nullcontext()
        )
        # Leaving the ``with`` on an exception (a cancel, a shard error)
        # terminates the workers.
        with pool:
            futures = {}
            for k in range(n_shards):
                if k % lanes:
                    if cancel_check is not None:
                        cancel_check()
                    if on_shard is not None:
                        on_shard(k, n_shards)
                    futures[k] = pool.submit(_shard_task, k)
            for k in range(0, n_shards, lanes):
                if cancel_check is not None:
                    cancel_check()
                if on_shard is not None:
                    on_shard(k, n_shards)
                outs[k] = self._exec_shard(k, ensemble, cancel_check)
            pending = set(futures.values())
            while pending:
                done, pending = wait(
                    pending, timeout=_CANCEL_POLL_S, return_when=FIRST_EXCEPTION
                )
                for future in done:
                    future.result()        # the first shard error raises here
                if pending and cancel_check is not None:
                    cancel_check()
            for k, future in futures.items():
                outs[k] = future.result()
        # Gathered in plan order: the deterministic reduction, independent
        # of where each shard ran and when it finished.
        return [outs[k] for k in range(n_shards)]

    def _exec_shard(
        self,
        k: int,
        ensemble: EnsembleEnergyModel,
        cancel_check: Optional[Callable[[], None]] = None,
    ) -> Tuple[List[MinimizationResult], ShardExecution]:
        shard = self.plan().shards[k]
        wall_start = time.perf_counter()
        # The shard evaluates in memory-budgeted batches, like the
        # single-device batched path; per-pose independence makes the
        # chunking numerically invisible.
        limit = self.batch_size or shard.size
        results: List[MinimizationResult] = []
        for lo in range(shard.start, shard.stop, limit):
            if lo != shard.start and cancel_check is not None:
                cancel_check()
            hi = min(lo + limit, shard.stop)
            sub = ensemble._pose_subset(lo, hi)
            results.extend(BatchedMinimizer(sub, self.config).run())
        execution = ShardExecution(
            device_index=shard.device_index,
            start=shard.start,
            stop=shard.stop,
            n_poses=shard.size,
            wall_start_s=wall_start,
            wall_s=time.perf_counter() - wall_start,
        )
        return results, execution


#: The minimizer whose shards this worker process runs and the ensemble
#: model its shard models derive from, installed once per worker by
#: :func:`_init_shard_worker`.
_SHARD_CTX: Optional[Tuple[MultiDeviceMinimizer, EnsembleEnergyModel]] = None


def _init_shard_worker(
    minimizer: MultiDeviceMinimizer, ensemble: EnsembleEnergyModel
) -> None:
    global _SHARD_CTX
    _SHARD_CTX = (minimizer, ensemble)


def _shard_task(k: int) -> Tuple[List[MinimizationResult], ShardExecution]:
    assert _SHARD_CTX is not None
    minimizer, ensemble = _SHARD_CTX
    return minimizer._exec_shard(k, ensemble)
