"""E5 — Sec. III.A: multi-rotation batching.

Paper: "For 4^3-sized probe grids, we can perform 8 rotations in each pass,
achieving a speedup of 2.7x over direct correlation performed one rotation
at a time."  The batch cap of 8 falls out of the 64 KB constant memory.

Two real measurements on real grids:

* the GPU-model constant-memory batching sweep (the paper's artifact),
* the host batched-FFT path (`repro.docking.batched`) against the serial
  per-rotation FFT loop — the reproduction's own batching win, asserted at
  >= 1.5x wall-clock.
"""

import time

import numpy as np

from repro.cuda.device import Device
from repro.docking.batched import BatchedFFTCorrelationEngine
from repro.docking.fft import FFTCorrelationEngine
from repro.geometry.rotations import rotation_matrix_axis_angle
from repro.gpu.batching import gpu_batched_correlation, max_batch_rotations
from repro.grids.rotation import ligand_grid_spec, rotate_and_grid_ligand
from repro.perf.speedup import batching_sweep
from repro.perf.tables import ComparisonRow

PAPER_BATCH_SPEEDUP = 2.7
PAPER_BATCH_SIZE = 8

#: The batched host path (production config: fp32, like the paper's GPU)
#: must beat the per-rotation fp64 loop by at least this much (acceptance
#: floor; measured ~2.5-2.8x single-core).
MIN_BATCHED_FFT_SPEEDUP = 1.5
#: Unchanged by the serial-floor re-baselining pass (the docking serial
#: reference does not use the minimization kernels); re-measured ~2.2x.
PREV_MIN_BATCHED_FFT_SPEEDUP = 1.5

#: Pure-batching guard: same precision (fp64), same worker count — isolates
#: rotation stacking + staged zero-padded forwards from the fp32 win.
#: Measured 1.1-1.5x single-core depending on load; asserted only as
#: "never slower", the ratio itself is reported for the nightly artifact.
MIN_PURE_BATCHING_SPEEDUP = 1.0
PREV_MIN_PURE_BATCHING_SPEEDUP = 1.0


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


def test_batched_fft_wallclock_speedup(
    bench_receptor_grids, bench_probe, print_comparison
):
    """Real wall-clock: batched-FFT path vs the per-rotation FFT loop.

    Both engines are pinned to one FFT worker thread so the comparison
    isolates the batched path's restructuring from thread fan-out.  Two
    ratios are asserted: the production config (fp32 batched vs the fp64
    serial loop — precision is part of the batched path's design, matching
    the paper's fp32 GPU arithmetic), and a like-for-like fp64 ratio that
    measures rotation stacking + staged zero-padded forwards alone.
    """
    rotations = _rotation_grids(bench_probe, 16)
    serial = FFTCorrelationEngine()
    batched = BatchedFFTCorrelationEngine()
    batched_fp64 = BatchedFFTCorrelationEngine(precision="double")

    # Warm the receptor-spectrum caches (PIPER transforms the protein once).
    serial.correlate(bench_receptor_grids, rotations[0])
    batched.correlate_batch(bench_receptor_grids, rotations[:2])
    batched_fp64.correlate_batch(bench_receptor_grids, rotations[:2])

    def best_of(fn, repeats=5):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_loop = best_of(
        lambda: [serial.correlate(bench_receptor_grids, lg) for lg in rotations]
    )
    t_batched = best_of(
        lambda: batched.correlate_batch(bench_receptor_grids, rotations)
    )
    t_batched_fp64 = best_of(
        lambda: batched_fp64.correlate_batch(bench_receptor_grids, rotations)
    )
    speedup = t_loop / t_batched
    speedup_fp64 = t_loop / t_batched_fp64

    print_comparison(
        "Batched FFT path — wall clock",
        [
            ComparisonRow("per-rotation loop (ms/rotation)", None, t_loop / 16 * 1e3),
            ComparisonRow("batched path (ms/rotation)", None, t_batched / 16 * 1e3),
            ComparisonRow("batched-FFT speedup", None, speedup, "x"),
            ComparisonRow("pure-batching (fp64) speedup", None, speedup_fp64, "x"),
            # Floor audit rows (reference = previous floor, measured = the
            # floor enforced now) — collected into the nightly artifact.
            ComparisonRow(
                "gate floor: batched FFT (old -> new)",
                PREV_MIN_BATCHED_FFT_SPEEDUP,
                MIN_BATCHED_FFT_SPEEDUP,
                "x",
            ),
            ComparisonRow(
                "gate floor: pure batching (old -> new)",
                PREV_MIN_PURE_BATCHING_SPEEDUP,
                MIN_PURE_BATCHING_SPEEDUP,
                "x",
            ),
        ],
    )
    assert speedup >= MIN_BATCHED_FFT_SPEEDUP
    assert speedup_fp64 >= MIN_PURE_BATCHING_SPEEDUP

    # Identical top pose: argmin of the score grids must agree pose-for-pose.
    ref = serial.correlate(bench_receptor_grids, rotations[0])
    got = batched.correlate_batch(bench_receptor_grids, rotations[:1])[0]
    assert np.unravel_index(np.argmin(ref), ref.shape) == np.unravel_index(
        np.argmin(got), got.shape
    )
