"""Backend auto-selection for the minimization hot path.

Mirror of :mod:`repro.docking.selection`, one phase later in the pipeline.
``auto`` reads three inputs — the ensemble size ``P``, the per-pose
active-pair count and the device count — and applies, in order:

* ``multi-gpu-sim`` when two or more devices are named and ``P >= 2``:
  naming the devices is the opt-in, and the sharded run is
  bitwise-identical to ``batched`` at the same precision;
* ``batched`` when at least two poses fit one vectorized evaluation
  (``P >= 2`` and a pose batch of >= 2: the explicit batch, else the
  default inside :data:`ENSEMBLE_PAIR_BUDGET`, i.e. <= 750k pairs per
  pose): stacking poses amortizes the per-evaluation dispatch overhead;
* ``serial`` otherwise.
"""

from __future__ import annotations

from typing import Optional

from repro.docking.selection import BackendChoice

__all__ = [
    "MINIMIZE_CPU_BACKENDS",
    "DEFAULT_MINIMIZE_BATCH",
    "ENSEMBLE_PAIR_BUDGET",
    "ensemble_batch_limit",
    "select_minimize_backend",
]

#: The single-device backends ``auto`` chooses between.
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


def select_minimize_backend(
    n_poses: int,
    n_pairs: int,
    batch_size: Optional[int] = None,
    devices: int = 1,
) -> BackendChoice:
    """The minimization backend ``auto`` runs for an ensemble.

    ``batch_size`` is the pose batch the batching backends would run; by
    default :data:`DEFAULT_MINIMIZE_BATCH`, capped by the pair budget and
    the ensemble size.  ``devices`` is the device count the ensemble may
    shard over.  The returned batch is that batch for ``batched`` and
    ``multi-gpu-sim``, else 1.
    """
    batch = batch_size or max(
        1, min(DEFAULT_MINIMIZE_BATCH, ensemble_batch_limit(n_pairs), n_poses)
    )
    if n_poses >= 2 and devices >= 2:
        return BackendChoice("multi-gpu-sim", batch)
    if n_poses >= 2 and batch >= 2:
        return BackendChoice("batched", batch)
    return BackendChoice("serial", 1)
