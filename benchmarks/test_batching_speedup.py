"""E5 — Sec. III.A: multi-rotation batching.

Paper: "For 4^3-sized probe grids, we can perform 8 rotations in each pass,
achieving a speedup of 2.7x over direct correlation performed one rotation
at a time."  The batch cap of 8 falls out of the 64 KB constant memory.

The GPU-model constant-memory batching sweep (the paper's artifact), run
on real rotated probe grids.  The host docks one rotation at a time
(certified direct correlation); rotation batching is a property of the
paper's GPU kernel, so it is measured on the model only.
"""

import numpy as np

from repro.cuda.device import Device
from repro.geometry.rotations import rotation_matrix_axis_angle
from repro.gpu.batching import gpu_batched_correlation, max_batch_rotations
from repro.grids.rotation import ligand_grid_spec, rotate_and_grid_ligand
from repro.perf.speedup import batching_sweep

PAPER_BATCH_SPEEDUP = 2.7
PAPER_BATCH_SIZE = 8


def _rotation_grids(probe, count, n=4, spacing=1.25):
    spec = ligand_grid_spec(probe, n=n, spacing=spacing)
    mats = [
        rotation_matrix_axis_angle(np.array([0.0, 0.3, 1.0]), a)
        for a in np.linspace(0, 2.5, count)
    ]
    return [
        rotate_and_grid_ligand(probe, R, spec, n_desolvation_terms=4) for R in mats
    ]


def test_batching_speedup(benchmark, bench_receptor_grids, bench_probe, print_comparison):
    rotations = _rotation_grids(bench_probe, 4)

    benchmark(gpu_batched_correlation, Device(), bench_receptor_grids, rotations)

    # Constant-memory cap reproduces the paper's batch of 8.
    assert max_batch_rotations(4, 22) == PAPER_BATCH_SIZE

    rows, times = batching_sweep(batches=(1, 2, 4, 8))
    print_comparison("Sec. III.A — rotation batching", rows)
    speedup = times[1] / times[8]
    assert 2.2 <= speedup <= 3.3  # paper: 2.7x
