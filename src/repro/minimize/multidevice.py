"""Multi-device ensemble minimization: shard the pose stack, merge in order.

The paper's stated future work ("we plan on extending this work to a
multi-GPU implementation", Sec. VI) applied to the minimization phase:
independent conformations distribute across devices with no inter-device
communication, so a ``(P, N, 3)`` ensemble shards into contiguous
per-device sub-ensembles (:class:`~repro.exec.plan.ShardPlan`), each shard
runs the scheme-C batched path — numerically the
:class:`~repro.minimize.batched.BatchedMinimizer`, with predicted device
time from the shared kernel model
(:func:`repro.gpu.minimize_common.scheme_c_iteration_s`) — and the
per-shard results merge back in the plan's fixed reduction order.

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
from repro.exec.topology import DeviceTopology, default_topology
from repro.gpu.minimize_common import scheme_c_iteration_s
from repro.minimize.batched import BatchedMinimizer
from repro.minimize.ensemble import EnsembleEnergyModel
from repro.minimize.minimizer import MinimizationResult, MinimizerConfig
from repro.structure.molecule import Molecule
from repro.util.parallel import usable_cpus

__all__ = [
    "COORD_BYTES_PER_ATOM",
    "TEMPLATE_BYTES_PER_ATOM",
    "DEFAULT_MINIMIZE_DEVICES",
    "ShardExecution",
    "MultiDeviceRun",
    "MultiDeviceMinimizer",
]

#: fp32 xyz per atom: the per-shard conformation upload traffic.
COORD_BYTES_PER_ATOM = 12.0

#: Modeled template broadcast per atom (fp32 coords + the per-atom
#: parameter tables the energy kernels read: charges, eps/rm, Born radii,
#: volumes, type indices — ~28 B), shipped once to every device.
TEMPLATE_BYTES_PER_ATOM = 40.0

#: Device count a bare ``backend="multi-gpu-sim"`` request shards over
#: when neither ``devices`` nor a topology is given: the smallest real
#: fan-out.
DEFAULT_MINIMIZE_DEVICES = 2


@dataclass(frozen=True)
class ShardExecution:
    """Provenance of one executed shard: where it ran and what it cost."""

    device_index: int
    start: int
    stop: int
    n_poses: int
    pose_iterations: int          # sum of per-pose iterations actually run
    predicted_device_s: float     # upload + kernel time on the virtual device
    #: Measured host wall clock of this shard (``time.perf_counter``
    #: start and elapsed seconds on its worker thread) — the observed
    #: counterpart of ``predicted_device_s``, consumed by the tracing
    #: layer to reconstruct shard overlap post hoc.
    wall_start_s: float = 0.0
    wall_s: float = 0.0


@dataclass
class MultiDeviceRun:
    """Merged per-pose results plus the full shard provenance."""

    results: List[MinimizationResult]
    num_devices: int
    shards: Tuple[ShardExecution, ...]
    reduction_order: Tuple[int, ...]
    predicted_makespan_s: float   # busiest shard + serialized broadcast
    predicted_broadcast_s: float


class MultiDeviceMinimizer:
    """Shards an ensemble over a :class:`DeviceTopology` and minimizes.

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
    topology:
        The virtual devices to shard over (default: the package-default
        hardware at :data:`DEFAULT_MINIMIZE_DEVICES` devices).
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
        topology: DeviceTopology | None = None,
        precision: str = "single",
        batch_size: int | None = None,
        nonbonded_cutoff: float = VDW_CUTOFF,
        list_cutoff: float = NEIGHBOR_LIST_CUTOFF,
        shard_workers: int | None = None,
    ) -> None:
        if precision not in ("single", "double"):
            raise ValueError(f"unknown precision {precision!r}")
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
        self.topology = topology or default_topology(DEFAULT_MINIMIZE_DEVICES)
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
        return self.topology.plan(self.n_poses)

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
        if not shards:
            return MultiDeviceRun(
                results=[],
                num_devices=self.topology.num_devices,
                shards=(),
                reduction_order=(),
                predicted_makespan_s=0.0,
                predicted_broadcast_s=0.0,
            )
        broadcast_s = self.topology.broadcast_s(
            int(self.molecule.n_atoms * TEMPLATE_BYTES_PER_ATOM)
        )

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
            n_pairs = 0
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
                if lo == shard.start:
                    # Predicted device time uses the shard-local pair
                    # count (same topology across poses, pose 0
                    # representative).
                    n_pairs = len(sub.pair_arrays(0)[0])
            iter_s = scheme_c_iteration_s(
                n_pairs, self.molecule.n_atoms, self.topology.device_spec
            )
            upload_s = self.topology.cost_model().transfer_time(
                int(shard.size * self.molecule.n_atoms * COORD_BYTES_PER_ATOM)
            )
            pose_iterations = int(sum(r.iterations for r in results))
            execution = ShardExecution(
                device_index=shard.device_index,
                start=shard.start,
                stop=shard.stop,
                n_poses=shard.size,
                pose_iterations=pose_iterations,
                predicted_device_s=upload_s + pose_iterations * iter_s,
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
        makespan = max(e.predicted_device_s for e in executions) + broadcast_s
        return MultiDeviceRun(
            results=results,
            num_devices=self.topology.num_devices,
            shards=tuple(executions),
            reduction_order=plan.reduction_order,
            predicted_makespan_s=makespan,
            predicted_broadcast_s=broadcast_s,
        )
