"""Speedup tables and ablations: Tables 1-2, Sec. V roll-ups, and the
design-choice sweeps (batching, minimization schemes, multicore).

Each function returns ``(rows, summary)`` where rows are
:class:`~repro.perf.tables.ComparisonRow` entries carrying the paper's
reported number next to ours.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cuda.device import Device
from repro.perf.cpumodel import CpuModel
from repro.perf.tables import ComparisonRow

__all__ = [
    "table1_docking_speedups",
    "table2_minimization_speedups",
    "overall_speedup",
    "multicore_comparison",
    "batching_sweep",
    "scheme_ladder",
    "pipeline_makespan",
    "COORD_BYTES_PER_ATOM",
    "TEMPLATE_BYTES_PER_ATOM",
    "multi_device_phase_s",
    "multigpu_minimization_scaling",
    "shard_makespan_s",
]

#: Paper Table 1 (per rotation): (serial ms, GPU ms, speedup).
PAPER_TABLE1 = {
    "rotation_grid": (80.0, 80.0, 1.0),
    "correlation": (3600.0, 13.5, 267.0),
    "accumulation": (180.0, 1.0, 180.0),
    "scoring_filtering": (200.0, 30.0, 6.67),
    "total": (4060.0, 125.5, 32.6),
}

#: Paper Table 2 (per iteration): (serial ms, GPU ms, speedup).
PAPER_TABLE2 = {
    "self_energies": (6.15, 0.23, 26.7),
    "pairwise_vdw": (3.25, 0.19, 17.0),
    "force_updates": (0.95, 0.14, 6.7),
}

#: Paper Sec. V: overall numbers.
PAPER_OVERALL = {
    "minimization_serial_min": 400.0,
    "minimization_gpu_min": 32.0,
    "minimization_speedup": 12.5,
    "probe_serial_min": 435.0,
    "probe_gpu_min": 33.0,
    "overall_speedup": 13.0,
    "multicore_fft_speedup": 11.0,
    "multicore_direct_speedup": 6.0,
    "overall_vs_multicore": 12.3,
    "batching_speedup": 2.7,
    "flat_pairs_speedup": 3.0,
}


def _fresh_pipeline(**kwargs):
    # Imported lazily: repro.gpu.pipeline itself uses the CPU model.
    from repro.gpu.pipeline import GpuFTMapPipeline

    return GpuFTMapPipeline(Device(), **kwargs)


def table1_docking_speedups(**kwargs) -> Tuple[List[ComparisonRow], Dict[str, float]]:
    """Reproduce Table 1: per-rotation docking speedups."""
    pipe = _fresh_pipeline(**kwargs)
    gpu = pipe.docking_times()
    ser = pipe.serial_docking_times()
    g = gpu.as_dict()
    s = ser.as_dict()
    # Fold the (tiny) per-rotation probe upload into the correlation row.
    g["correlation"] += g.pop("upload")
    s.pop("upload")
    rows: List[ComparisonRow] = []
    ours: Dict[str, float] = {}
    for key in ("rotation_grid", "correlation", "accumulation", "scoring_filtering"):
        speedup = s[key] / g[key]
        ours[key] = speedup
        rows.append(ComparisonRow(f"{key} speedup", PAPER_TABLE1[key][2], speedup, "x"))
    total = ser.total_per_rotation_s / gpu.total_per_rotation_s
    ours["total"] = total
    rows.append(ComparisonRow("total per-rotation speedup", PAPER_TABLE1["total"][2], total, "x"))
    ours["serial_total_ms"] = ser.total_per_rotation_s * 1e3
    ours["gpu_total_ms"] = gpu.total_per_rotation_s * 1e3
    return rows, ours


def table2_minimization_speedups(**kwargs) -> Tuple[List[ComparisonRow], Dict[str, float]]:
    """Reproduce Table 2: per-iteration minimization kernel speedups."""
    pipe = _fresh_pipeline(**kwargs)
    gpu = pipe.minimization_times()
    ser = pipe.serial_minimization_times()
    pairs = [
        ("self_energies", ser.self_energies_s, gpu.self_energies_s),
        ("pairwise_vdw", ser.pairwise_vdw_s, gpu.pairwise_vdw_s),
        ("force_updates", ser.force_updates_s, gpu.force_updates_s),
    ]
    rows: List[ComparisonRow] = []
    ours: Dict[str, float] = {}
    for key, s, g in pairs:
        speedup = s / g
        ours[key] = speedup
        ours[f"{key}_gpu_ms"] = g * 1e3
        ours[f"{key}_serial_ms"] = s * 1e3
        rows.append(ComparisonRow(f"{key} speedup", PAPER_TABLE2[key][2], speedup, "x"))
    return rows, ours


def overall_speedup(**kwargs) -> Tuple[List[ComparisonRow], Dict[str, float]]:
    """Sec. V.B/V.C: phase and whole-probe speedups (435 -> 33 min, 13x)."""
    pipe = _fresh_pipeline(**kwargs)
    ser = pipe.probe_mapping_time_s(gpu=False)
    gpu = pipe.probe_mapping_time_s(gpu=True)
    mini_speedup = ser["minimization"] / gpu["minimization"]
    total_speedup = ser["total"] / gpu["total"]
    rows = [
        ComparisonRow("serial minimization (min)", PAPER_OVERALL["minimization_serial_min"], ser["minimization"] / 60),
        ComparisonRow("GPU minimization (min)", PAPER_OVERALL["minimization_gpu_min"], gpu["minimization"] / 60),
        ComparisonRow("minimization speedup", PAPER_OVERALL["minimization_speedup"], mini_speedup, "x"),
        ComparisonRow("serial probe total (min)", PAPER_OVERALL["probe_serial_min"], ser["total"] / 60),
        ComparisonRow("GPU probe total (min)", PAPER_OVERALL["probe_gpu_min"], gpu["total"] / 60),
        ComparisonRow("overall speedup", PAPER_OVERALL["overall_speedup"], total_speedup, "x"),
    ]
    ours = {
        "minimization_speedup": mini_speedup,
        "overall_speedup": total_speedup,
        "serial_total_min": ser["total"] / 60,
        "gpu_total_min": gpu["total"] / 60,
        "serial_docking_fraction": ser["docking"] / ser["total"],
    }
    return rows, ours


def multicore_comparison(**kwargs) -> Tuple[List[ComparisonRow], Dict[str, float]]:
    """Sec. V.A/V.C: GPU PIPER vs quad-core FFT and direct multicore."""
    pipe = _fresh_pipeline(**kwargs)
    cpu = CpuModel()
    cores = cpu.spec.cores
    gpu_rot = pipe.docking_times().total_per_rotation_s
    args = (pipe.n, pipe.m, pipe.channels, pipe.desolvation_terms, pipe.k)
    fft_multicore = cpu.docking_rotation_s(*args, engine="fft") / (
        cores * cpu.spec.parallel_efficiency
    )
    direct_multicore = cpu.docking_rotation_s(*args, engine="direct") / (
        cores * cpu.spec.parallel_efficiency
    )
    vs_fft = fft_multicore / gpu_rot
    vs_direct = direct_multicore / gpu_rot

    # Overall vs multicore docking (minimization stays serial: "creating an
    # efficient multicore version appears to be challenging").
    ser = pipe.probe_mapping_time_s(gpu=False)
    gpu_total = pipe.probe_mapping_time_s(gpu=True)["total"]
    multicore_total = fft_multicore * pipe.rotations + ser["minimization"]
    overall_vs_multicore = multicore_total / gpu_total

    rows = [
        ComparisonRow("GPU vs multicore FFT PIPER", PAPER_OVERALL["multicore_fft_speedup"], vs_fft, "x"),
        ComparisonRow("GPU vs multicore direct PIPER", PAPER_OVERALL["multicore_direct_speedup"], vs_direct, "x"),
        ComparisonRow("overall vs multicore docking", PAPER_OVERALL["overall_vs_multicore"], overall_vs_multicore, "x"),
    ]
    ours = {
        "vs_fft_multicore": vs_fft,
        "vs_direct_multicore": vs_direct,
        "overall_vs_multicore": overall_vs_multicore,
    }
    return rows, ours


def batching_sweep(
    batches=(1, 2, 4, 8), **kwargs
) -> Tuple[List[ComparisonRow], Dict[int, float]]:
    """Sec. III.A: per-rotation correlation time vs rotation batch size.

    The paper reports 2.7x from batching 8 rotations of a 4^3 probe.
    """
    times: Dict[int, float] = {}
    for b in batches:
        pipe = _fresh_pipeline(**kwargs)
        d = pipe.docking_times(batch=b)
        times[b] = d.correlation_s + d.upload_s
    speedup = times[batches[0]] / times[batches[-1]]
    rows = [
        ComparisonRow(
            f"batch={b} correlation (ms/rotation)", None, times[b] * 1e3, ""
        )
        for b in batches
    ]
    rows.append(
        ComparisonRow(
            f"batching speedup (B={batches[-1]} vs {batches[0]})",
            PAPER_OVERALL["batching_speedup"],
            speedup,
            "x",
        )
    )
    return rows, times


def scheme_ladder(
    device: Device | None = None, model=None
) -> Tuple[List[ComparisonRow], Dict[str, float]]:
    """Sec. IV: per-iteration time of minimization schemes A, B, C.

    With ``model=None`` a paper-scale complex (2200 atoms, ~10k pairs) is
    built; pass an :class:`~repro.minimize.energy.EnergyModel` to sweep a
    custom workload.
    """
    from repro.gpu.minimize_kernels import GpuMinimizationEngine, GpuMinimizationScheme
    from repro.minimize.energy import EnergyModel
    from repro.structure.builder import pocket_movable_mask, synthetic_complex

    if model is None:
        mol = synthetic_complex()
        mask = pocket_movable_mask(mol, mol.meta["n_probe_atoms"])
        model = EnergyModel(mol, movable=mask)

    cpu = CpuModel()
    pairs = model.n_active_pairs
    atoms = model.molecule.n_atoms
    serial = cpu.minimization_iteration_s(pairs, atoms)

    times: Dict[str, float] = {"serial": serial}
    for scheme in GpuMinimizationScheme:
        dev = device or Device()
        engine = GpuMinimizationEngine(Device(dev.spec), model, scheme)
        times[scheme.value] = engine.iteration_timing().total_s

    rows = [
        ComparisonRow("serial iteration (ms)", None, serial * 1e3),
        ComparisonRow(
            "scheme A neighbor-list (ms)", None, times["A-neighbor-list"] * 1e3
        ),
        ComparisonRow(
            "scheme B flat-pairs speedup",
            PAPER_OVERALL["flat_pairs_speedup"],
            serial / times["B-flat-pairs"],
            "x",
        ),
        ComparisonRow(
            "scheme C split+assignment speedup",
            PAPER_OVERALL["minimization_speedup"],
            serial / times["C-split-assignment"],
            "x",
        ),
    ]
    return rows, times


#: fp32 xyz per atom: the per-shard conformation upload traffic.
COORD_BYTES_PER_ATOM = 12.0

#: Modeled template broadcast per atom (fp32 coords + the per-atom
#: parameter tables the energy kernels read: charges, eps/rm, Born radii,
#: volumes, type indices — ~28 B), shipped once to every device.
TEMPLATE_BYTES_PER_ATOM = 40.0


def shard_makespan_s(plan, per_item_s: float, per_shard_s: float) -> float:
    """Modeled wall-clock of ``plan``'s busiest device.

    Every item costs ``per_item_s``; every shard adds ``per_shard_s`` of
    fixed overhead (e.g. its input upload) before the max is taken.
    """
    if not plan.shards:
        return 0.0
    return max(s.size * per_item_s + per_shard_s for s in plan.shards)


def multi_device_phase_s(
    n_poses: int,
    n_pairs: int,
    n_atoms: int,
    iterations: int,
    topology,
) -> float:
    """Predicted sharded minimization phase time on ``topology``.

    Busiest-shard makespan of the scheme-C iteration kernels plus the
    per-shard conformation upload and the serialized template broadcast,
    over the same :class:`~repro.exec.plan.ShardPlan` the executing
    :class:`~repro.minimize.multidevice.MultiDeviceMinimizer` runs.
    """
    from repro.gpu.minimize_common import scheme_c_iteration_s

    if n_poses <= 0:
        return 0.0
    plan = topology.plan(n_poses)
    cost = topology.cost_model()
    iter_s = scheme_c_iteration_s(n_pairs, n_atoms, topology.device_spec)
    upload_s = cost.transfer_time(int(plan.largest * n_atoms * COORD_BYTES_PER_ATOM))
    broadcast_s = topology.broadcast_s(int(n_atoms * TEMPLATE_BYTES_PER_ATOM))
    return shard_makespan_s(plan, iterations * iter_s, upload_s) + broadcast_s


def multigpu_minimization_scaling(
    device_counts: Sequence[int] = (1, 2, 4, 8),
    conformations: int | None = None,
    iterations: int | None = None,
    pairs: int | None = None,
    atoms: int | None = None,
    device_spec=None,
    measured: Dict[int, float] | None = None,
) -> Tuple[List[ComparisonRow], Dict[int, float]]:
    """Predicted (and optionally measured) minimization shard scaling.

    For each device count, the sharded phase makespan from
    :func:`multi_device_phase_s`, built from the kernel model and transfer
    constants.
    Defaults are the paper-scale workload (2000 conformations x ~1150
    iterations over ~10k pairs / 2200 atoms).

    ``measured`` maps device count -> measured wall seconds (e.g. from the
    shard-scaling benchmark); measured rows and speedups are appended
    next to the predictions.

    Returns ``(rows, ours)`` where ``ours[g]`` is the predicted speedup
    over the first device count.
    """
    from repro.constants import (
        CONFORMATIONS_PER_PROBE,
        TYPICAL_COMPLEX_ATOMS,
        TYPICAL_PAIR_COUNT,
    )
    from repro.cuda.device import TESLA_C1060
    from repro.cuda.multigpu import DeviceTopology
    from repro.gpu.pipeline import ITERATIONS_PER_CONFORMATION

    if not device_counts:
        raise ValueError("device_counts must name at least one count")
    conformations = conformations or CONFORMATIONS_PER_PROBE
    iterations = iterations or ITERATIONS_PER_CONFORMATION
    pairs = pairs or TYPICAL_PAIR_COUNT
    atoms = atoms or TYPICAL_COMPLEX_ATOMS
    spec = device_spec or TESLA_C1060

    times: Dict[int, float] = {
        g: multi_device_phase_s(
            conformations, pairs, atoms, iterations,
            DeviceTopology(num_devices=g, device_spec=spec),
        )
        for g in device_counts
    }

    base = times[device_counts[0]]
    ours = {g: base / t for g, t in times.items()}
    rows: List[ComparisonRow] = []
    for g in device_counts:
        rows.append(
            ComparisonRow(
                f"{g}-device predicted makespan (min)", None, times[g] / 60.0
            )
        )
        rows.append(
            ComparisonRow(f"{g}-device predicted speedup", None, ours[g], "x")
        )
    if measured:
        m_base_count = min(measured)
        for g in sorted(measured):
            rows.append(
                ComparisonRow(f"{g}-device measured wall (s)", None, measured[g])
            )
        for g in sorted(measured):
            if g != m_base_count:
                rows.append(
                    ComparisonRow(
                        f"{g}-device measured speedup",
                        None,
                        measured[m_base_count] / measured[g],
                        "x",
                    )
                )
    return rows, ours


def pipeline_makespan(stage_times: Sequence[Sequence[float]]) -> float:
    """Makespan of a stage pipeline over measured per-item stage times.

    ``stage_times[k][s]`` is the time item ``k`` spends in stage ``s``.
    The schedule is a classic stage pipeline: each stage is a single
    sequential worker, so stage ``s`` starts item ``k`` once *both* stage
    ``s-1`` finished item ``k`` and stage ``s`` itself finished item
    ``k-1``:

    ``finish[k][s] = max(finish[k][s-1], finish[k-1][s]) + t[k][s]``

    The return value is the finish time of the last item in the last
    stage.  Dividing the sequential sum ``sum_k sum_s t[k][s]`` by this
    makespan gives the overlap speedup the pipeline schedule extracts on
    a machine with one core per stage — the deterministic counterpart of
    the wall-clock measurement, in the same spirit as the repo's other
    cost models.
    """
    times = [list(map(float, row)) for row in stage_times]
    if not times:
        return 0.0
    n_stages = len(times[0])
    if n_stages == 0 or any(len(row) != n_stages for row in times):
        raise ValueError("stage_times must be a rectangular (items x stages) table")
    if any(t < 0 for row in times for t in row):
        raise ValueError("stage times must be non-negative")
    finish_prev_item = [0.0] * n_stages      # finish[k-1][s]
    for row in times:
        finish = 0.0                          # finish[k][s-1]
        for s, t in enumerate(row):
            finish = max(finish, finish_prev_item[s]) + t
            finish_prev_item[s] = finish
    return finish_prev_item[-1]
