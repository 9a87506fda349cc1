"""Shared constants and op-count profiles for the GPU minimization kernels.

Per-pair instruction budgets for the three energy kernels of Sec. IV
(counted from the formulas of Eqs. 5-8: arithmetic as 1-cycle ops, exp/
sqrt/div/pow as SFU ops).  These feed the cost model; the numeric results
come from the vectorized reference implementations.

:func:`energy_kernel_launch` is the one place the per-pair profiles turn
into a :class:`~repro.cuda.kernel.KernelLaunch`: the scheme-C kernel
simulation (:mod:`repro.gpu.minimize_kernels`), the whole-pipeline roll-up
(:mod:`repro.gpu.pipeline`) and the multi-device shard-scaling model
(:func:`repro.perf.speedup.multi_device_phase_s`) all build their launches
here, so their predictions cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cuda.kernel import KernelLaunch

__all__ = [
    "DEFAULT_BLOCK_THREADS",
    "KernelOpProfile",
    "SELF_ENERGY_OPS",
    "PAIRWISE_VDW_OPS",
    "FORCE_UPDATE_OPS",
    "energy_kernel_launch",
    "scheme_c_iteration_s",
]

#: Threads per block used by the minimization kernels.
DEFAULT_BLOCK_THREADS = 256


@dataclass(frozen=True)
class KernelOpProfile:
    """Instruction/traffic budget for one pair (or atom) of kernel work."""

    flops: float          # simple ALU ops
    sfu_ops: float        # exp/sqrt/div/pow
    table_bytes: float    # assignment-table row read (coalesced)
    gathers: float        # uncoalesced global reads (random second atoms)
    shared_accesses: float


#: Kernel (a): self energies + gradients (Eq. 6 both directions of a pair:
#: distance, Gaussian, volume tail, and their r-derivatives).
SELF_ENERGY_OPS = KernelOpProfile(
    flops=48.0, sfu_ops=4.0, table_bytes=20.0, gathers=1.0, shared_accesses=3.0
)

#: Kernel (b): GB pairwise (Eq. 7) + vdW (Eq. 8) + gradients.
PAIRWISE_VDW_OPS = KernelOpProfile(
    flops=64.0, sfu_ops=5.0, table_bytes=20.0, gathers=1.0, shared_accesses=3.0
)

#: Kernel (c): force updates — gather per-pair gradient contributions into
#: per-atom force vectors (3 components).
FORCE_UPDATE_OPS = KernelOpProfile(
    flops=9.0, sfu_ops=0.0, table_bytes=8.0, gathers=0.5, shared_accesses=3.0
)


def energy_kernel_launch(
    name: str,
    profile: KernelOpProfile,
    rows: int,
    n_atoms: int,
    block_threads: int = DEFAULT_BLOCK_THREADS,
) -> KernelLaunch:
    """Launch record for one pairs-list pass of a scheme-C energy kernel.

    ``rows`` is the pairs-list length processed in this pass (one direction
    of the split lists).  Coalesced traffic is the assignment-table row plus
    the 12-byte coordinate read per pair and one per-atom output stream.
    """
    blocks = max(1, -(-rows // block_threads))
    return KernelLaunch(
        name=name,
        num_blocks=blocks,
        threads_per_block=block_threads,
        flops=rows * profile.flops,
        sfu_ops=rows * profile.sfu_ops,
        global_bytes_coalesced=rows * (profile.table_bytes + 12.0) + n_atoms * 4.0,
        global_uncoalesced_accesses=rows * profile.gathers,
        shared_accesses=rows * profile.shared_accesses,
        shared_bytes_per_block=block_threads * 4,
    )


def scheme_c_iteration_s(
    n_pairs: int, n_atoms: int, device_spec, include_host: bool = True
) -> float:
    """Cost-model time of one scheme-C minimization iteration on a device.

    Six kernel passes — forward + reverse pairs-list direction of each of
    the three energy kernels — plus, with ``include_host``, the host-side
    optimization move.  This is the single per-iteration predictor behind
    the minimization backend selector, the multi-device shard timings and
    the shard-scaling tables, so their numbers cannot drift apart.
    """
    from repro.cuda.costmodel import CostModel

    cost = CostModel(device_spec)
    total = 0.0
    for name, profile in (
        ("self_energy", SELF_ENERGY_OPS),
        ("pairwise_vdw", PAIRWISE_VDW_OPS),
        ("force_update", FORCE_UPDATE_OPS),
    ):
        launch = energy_kernel_launch(name, profile, n_pairs, n_atoms)
        total += 2.0 * cost.kernel_time(launch)   # forward + reverse lists
    if include_host:
        from repro.gpu.minimize_kernels import HOST_MOVE_S

        total += HOST_MOVE_S
    return total
