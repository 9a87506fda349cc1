"""E10 — Sec. III: direct vs FFT correlation crossover.

Paper: "if the ligand grid is smaller than a certain size, direct
correlation can perform better than FFT correlation, especially if multiple
correlations are to be performed" (citing [15][16]); FTMap probes (<= 4^3)
sit far below the crossover.

Real measurement: both engines on real grids at the probe size, verifying
direct wins where the paper says it does, plus the modeled crossover sweep.
"""

import time

from repro.docking.direct import DirectCorrelationEngine
from repro.docking.fft import FFTCorrelationEngine
from repro.perf.cpumodel import CpuModel
from repro.perf.tables import ComparisonRow


def test_direct_vs_fft_crossover(
    benchmark, bench_receptor_grids, bench_ligand_grids, print_comparison
):
    direct = DirectCorrelationEngine()
    fft = FFTCorrelationEngine()

    benchmark(direct.correlate, bench_receptor_grids, bench_ligand_grids)

    # Real head-to-head at the probe size (warm receptor-spectrum cache to
    # match PIPER, which transforms the protein once).
    fft.correlate(bench_receptor_grids, bench_ligand_grids)
    t0 = time.perf_counter()
    for _ in range(3):
        direct.correlate(bench_receptor_grids, bench_ligand_grids)
    t_direct = (time.perf_counter() - t0) / 3
    t0 = time.perf_counter()
    for _ in range(3):
        fft.correlate(bench_receptor_grids, bench_ligand_grids)
    t_fft = (time.perf_counter() - t0) / 3

    # Modeled crossover sweep at paper scale (N=128, 22 channels).
    cpu = CpuModel()
    rows = [
        ComparisonRow("measured direct/fft time at m=4", None, t_direct / t_fft)
    ]
    crossover = None
    fft_s = cpu.fft_correlation_s(128, 22)
    for m in (2, 4, 6, 8, 10, 12, 16):
        d = cpu.direct_correlation_s(128, m, 22)
        rows.append(ComparisonRow(f"model direct/fft at m={m}", None, d / fft_s))
        if crossover is None and d > fft_s:
            crossover = m
    print_comparison("Sec. III — direct vs FFT crossover", rows)

    assert t_direct < t_fft            # real: direct wins at probe size
    assert cpu.direct_correlation_s(128, 4, 22) < fft_s
    assert crossover is not None and 6 <= crossover <= 12

