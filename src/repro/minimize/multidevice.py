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

Shards execute on a thread pool by default, one thread per shard up to
the CPUs this process may run on (real overlap wherever the NumPy kernels
release the GIL); ``shard_workers=1``, or a single usable CPU, runs the
sequential loop.  Cancellation
is cooperative at shard starts and at every batch-chunk boundary within
a shard: queued shards never start after a cancel, and a running shard
stops at its next memory-budgeted chunk rather than mid-kernel (in the
default parallel mode all shards may already be in flight, so the chunk
boundaries are what bounds the latency of a cancel).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.constants import NEIGHBOR_LIST_CUTOFF, VDW_CUTOFF
from repro.exec.plan import ShardPlan
from repro.minimize.batched import BatchedMinimizer
from repro.minimize.ensemble import EnsembleEnergyModel
from repro.minimize.minimizer import MinimizationResult, MinimizerConfig
from repro.structure.molecule import Molecule
from repro.util.parallel import usable_cpus

__all__ = [
    "DEFAULT_MINIMIZE_DEVICES",
    "ShardExecution",
    "MultiDeviceRun",
    "MultiDeviceMinimizer",
]

#: Device count a bare ``backend="multi-gpu-sim"`` request shards over
#: when ``devices`` is not given: the smallest real fan-out.
DEFAULT_MINIMIZE_DEVICES = 2


@dataclass(frozen=True)
class ShardExecution:
    """Provenance of one executed shard: where it ran and how long it took."""

    device_index: int
    start: int
    stop: int
    n_poses: int
    #: Measured host wall clock of this shard (``time.perf_counter``
    #: start and elapsed seconds on its worker thread), consumed by the
    #: tracing layer to reconstruct shard overlap post hoc.
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
        Concurrent shard executions (default: one thread per shard up to
        :func:`~repro.util.parallel.usable_cpus`; ``1`` forces the
        sequential loop).
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

        ``cancel_check()`` runs as each shard starts and before every
        batch chunk within a shard (raise to stop at that boundary —
        queued shards are abandoned, running shards stop at their next
        chunk); ``on_shard(shard_index, num_shards)`` fires as each shard
        starts, for per-shard progress reporting.
        """
        plan = self.plan()
        shards = plan.shards
        n_shards = len(shards)

        def exec_shard(k: int) -> Tuple[List[MinimizationResult], ShardExecution]:
            if cancel_check is not None:
                cancel_check()
            if on_shard is not None:
                on_shard(k, n_shards)
            shard = shards[k]
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
                sub = EnsembleEnergyModel(
                    self.molecule,
                    self.coords_stack[lo:hi],
                    movable=(
                        None if self.movable is None else self.movable[lo:hi]
                    ),
                    nonbonded_cutoff=self.nonbonded_cutoff,
                    list_cutoff=self.list_cutoff,
                    precision=self.precision,
                )
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

        workers = self.shard_workers or min(n_shards, usable_cpus())
        if workers > 1 and n_shards > 1:
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="minimize-shard"
            ) as pool:
                futures = [pool.submit(exec_shard, k) for k in range(n_shards)]
                # Gathered in submission order == plan order: the
                # deterministic reduction, independent of completion
                # timing.  The first shard error (cancellation included)
                # propagates here.
                outs = [f.result() for f in futures]
        else:
            outs = [exec_shard(k) for k in range(n_shards)]

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
