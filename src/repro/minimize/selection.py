"""Backend auto-selection for the minimization hot path.

Mirror of :mod:`repro.docking.selection`, one phase later in the pipeline:
given an ensemble size (poses), the per-pose active-pair count, and the
atom count, predict the whole-phase cost of every minimization backend and
pick the cheapest:

* ``serial`` / ``batched`` from the reproduction-host formulas of
  :class:`repro.perf.cpumodel.CpuModel` — the batched path amortizes the
  fixed per-evaluation dispatch cost over the ensemble (it wins when that
  overhead is a visible fraction, i.e. small/medium pair counts),
* ``gpu-sim`` from the analytic GPU cost model applied to the three
  scheme-C energy kernels (via the shared per-iteration predictor in
  :mod:`repro.gpu.minimize_common`), included only when a device spec is
  supplied — the virtual device predicts time but executes on the host, so
  it must be opted into,
* ``multi-gpu-sim`` from the same kernel model sharded over a
  :class:`~repro.exec.topology.DeviceTopology`: the predicted phase time
  is the busiest shard (ceil-division imbalance) plus the per-shard
  ensemble upload and the serialized template broadcast.  Supplying a
  multi-device topology *is* the opt-in — auto-selection then weighs the
  sharded virtual devices against the host backends.

Host constants and the default device spec come from the shared topology
layer (:mod:`repro.exec.topology`) — this module no longer keeps its own
``CpuModel()`` / ``TESLA_C1060`` fallbacks, so it cannot drift from the
docking selector.

The decision carries every backend's prediction so callers (benchmarks,
reports) can show the full table, not just the winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.exec.topology import DeviceTopology, default_device_spec, host_model
from repro.perf.cpumodel import CpuModel

__all__ = [
    "MINIMIZE_CPU_BACKENDS",
    "DEFAULT_MINIMIZE_BATCH",
    "ENSEMBLE_PAIR_BUDGET",
    "MinimizeBackendDecision",
    "ensemble_batch_limit",
    "predict_minimize_times",
    "multi_device_phase_s",
    "select_minimize_backend",
]

#: Backends that execute real host arithmetic (auto-selectable everywhere).
MINIMIZE_CPU_BACKENDS = ("serial", "batched")

#: Default cap on poses per vectorized evaluation.
DEFAULT_MINIMIZE_BATCH = 64

#: Flattened-pair budget per vectorized evaluation: poses x pairs beyond
#: this stops amortizing (temporaries spill cache) and starts costing RAM,
#: so the batch size is clamped to stay inside it.
ENSEMBLE_PAIR_BUDGET = 1_500_000


def ensemble_batch_limit(n_pairs: int, budget: int = ENSEMBLE_PAIR_BUDGET) -> int:
    """Largest pose batch keeping ``batch * n_pairs`` within the budget."""
    return max(1, budget // max(1, n_pairs))


@dataclass(frozen=True)
class MinimizeBackendDecision:
    """Outcome of minimization backend selection for one ensemble size."""

    backend: str
    batch_size: int
    predictions: Dict[str, float]   # backend -> predicted whole-phase seconds

    @property
    def predicted_s(self) -> float:
        return self.predictions[self.backend]


def predict_minimize_times(
    n_poses: int,
    n_pairs: int,
    n_atoms: int,
    iterations: int,
    batch_size: Optional[int] = None,
    cpu: Optional[CpuModel] = None,
    device_spec=None,
    topology: Optional[DeviceTopology] = None,
) -> Dict[str, float]:
    """Predicted whole-phase seconds for every minimization backend.

    The host predictions (``serial``/``batched``) share
    ``CpuModel.host_minimization_phase_s``, whose per-iteration cost is
    ``1 + energy_only_fraction`` full evaluations: since the serial-floor
    re-baselining, every host backend's line-search probe uses the
    kernels' energies-only fast path, so the serial and batched formulas
    moved together and the predicted ratios between them are unchanged.

    ``gpu-sim`` appears only when ``device_spec`` is given (or implied by a
    ``topology``); its prediction is the cost-model time of the six
    scheme-C kernel passes per iteration plus the host move.
    ``multi-gpu-sim`` appears only when a ``topology`` is given: the same
    per-iteration kernel time, sharded — busiest-device makespan plus the
    per-shard conformation upload and the serialized template broadcast.
    """
    from repro.gpu.minimize_common import scheme_c_iteration_s

    cpu = cpu or host_model()
    batch = _resolve_batch(n_poses, n_pairs, batch_size)
    if device_spec is None and topology is not None:
        device_spec = topology.device_spec
    times = {
        "serial": cpu.host_minimization_phase_s(n_poses, iterations, n_pairs, n_atoms),
        "batched": cpu.host_minimization_phase_s(
            n_poses, iterations, n_pairs, n_atoms, batch=batch
        ),
    }
    if device_spec is not None:
        times["gpu-sim"] = n_poses * iterations * scheme_c_iteration_s(
            n_pairs, n_atoms, device_spec
        )
    if topology is not None:
        times["multi-gpu-sim"] = multi_device_phase_s(
            n_poses, n_pairs, n_atoms, iterations, topology
        )
    return times


def multi_device_phase_s(
    n_poses: int,
    n_pairs: int,
    n_atoms: int,
    iterations: int,
    topology: DeviceTopology,
) -> float:
    """Predicted sharded minimization phase time on ``topology``.

    Busiest-shard makespan of the scheme-C iteration kernels plus the
    per-shard conformation upload and the serialized template broadcast.
    The single source of the sharded-phase formula: auto-selection, the
    ``perf.speedup`` shard-scaling tables and (via the same constants)
    the executing :class:`~repro.minimize.multidevice.MultiDeviceMinimizer`
    ledger all read it, so predictions cannot drift from execution.
    """
    from repro.gpu.minimize_common import scheme_c_iteration_s
    from repro.minimize.multidevice import (
        COORD_BYTES_PER_ATOM,
        TEMPLATE_BYTES_PER_ATOM,
    )

    if n_poses <= 0:
        return 0.0
    plan = topology.plan(n_poses)
    cost = topology.cost_model()
    iter_s = scheme_c_iteration_s(n_pairs, n_atoms, topology.device_spec)
    upload_s = cost.transfer_time(int(plan.largest * n_atoms * COORD_BYTES_PER_ATOM))
    broadcast_s = topology.broadcast_s(int(n_atoms * TEMPLATE_BYTES_PER_ATOM))
    return plan.makespan_s(iterations * iter_s, per_shard_s=upload_s) + broadcast_s


def select_minimize_backend(
    n_poses: int,
    n_pairs: int,
    n_atoms: int,
    iterations: int,
    batch_size: Optional[int] = None,
    include_gpu: bool = False,
    cpu: Optional[CpuModel] = None,
    device_spec=None,
    topology: Optional[DeviceTopology] = None,
) -> MinimizeBackendDecision:
    """Pick the cheapest minimization backend for an ensemble size.

    The GPU simulator is considered only with ``include_gpu=True`` (it
    predicts device time while computing on the host, so auto-picking it
    must be an explicit choice); ``multi-gpu-sim`` is considered only when
    a multi-device ``topology`` is supplied — naming a topology is the
    same explicit choice one fan-out wider.  A single pose never selects
    the batched or sharded paths — there is nothing to batch or shard.
    """
    if include_gpu and device_spec is None:
        device_spec = (
            topology.device_spec if topology is not None else default_device_spec()
        )
    times = predict_minimize_times(
        n_poses, n_pairs, n_atoms, iterations, batch_size, cpu, device_spec, topology
    )
    candidates = dict(times)
    if not include_gpu:
        candidates.pop("gpu-sim", None)
    if topology is None or topology.num_devices <= 1:
        candidates.pop("multi-gpu-sim", None)
    if n_poses <= 1:
        candidates.pop("batched", None)
        candidates.pop("multi-gpu-sim", None)
    backend = min(candidates, key=candidates.get)
    batch = (
        _resolve_batch(n_poses, n_pairs, batch_size)
        if backend in ("batched", "gpu-sim", "multi-gpu-sim")
        else 1
    )
    return MinimizeBackendDecision(backend=backend, batch_size=batch, predictions=times)


def _resolve_batch(n_poses: int, n_pairs: int, batch_size: Optional[int]) -> int:
    if batch_size is not None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return batch_size
    return max(
        1, min(DEFAULT_MINIMIZE_BATCH, ensemble_batch_limit(n_pairs), max(1, n_poses))
    )
