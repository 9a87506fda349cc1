"""Serial / multicore CPU cost model (3 GHz Xeon Harpertown, single core).

The paper's speedups are ratios of measured times; its serial column is a
measurement of the original C code we cannot re-run.  We therefore model the
CPU with a small set of per-primitive throughput constants.  Three are
generic hardware-plausible magnitudes (documented below); four are the
paper's own Table 2 per-pair measurements, carried over directly.  The GPU
side is *predicted* from the C1060 datasheet (``repro.cuda``), so every
reproduced speedup is model-vs-model, not fit.

Derivations of the generic constants (all at N = 128, T = 125, C = 22):

* ``effective_gflops = 2.9``: Table 1 reports 3600 ms for the FFT
  correlations of one rotation.  22 channels x (forward FFT + modulation +
  inverse FFT) ~ 22 x (2 x 5 N^3 log2 N + 6 N^3) ~ 10 Gflop; 10 G / 3.6 s =
  2.8 Gflop/s — a typical achieved rate for out-of-cache FFTs on a 3 GHz
  Core-era Xeon (peak 12 Gflop/s SSE).
* ``stream_ns = 4.8``: Table 1 reports 180 ms to accumulate the (up to) 18
  desolvation term grids: 18 x 2.1 M gather-adds -> 4.8 ns each
  (cache-miss-bound accumulate).
* ``scan_ns = 24``: Table 1 reports 200 ms for scoring + filtering: ~4
  selection scans x 2.1 M branchy compares -> 24 ns each.

The correlation flop counts (:func:`fft_correlation_flops`,
:func:`direct_correlation_flops`) are divided by ``effective_gflops``.
Nothing here describes the host this package runs on, and no runtime path
reads it: the models feed the paper tables only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CpuSpec",
    "XEON_HARPERTOWN",
    "CpuModel",
    "direct_correlation_flops",
    "fft_correlation_flops",
]


def fft_correlation_flops(n: int, channels: int) -> float:
    """All FFT correlations of one rotation: per channel a forward and an
    inverse 3-D transform (~5 n^3 log2(n^3) flops each) plus the spectrum
    product; the receptor spectra are precomputed."""
    return channels * (2 * 5.0 * n**3 * np.log2(float(n) ** 3) + 6.0 * n**3)


def direct_correlation_flops(n: int, m: int, channels: int) -> float:
    """Direct correlation of one rotation: 2 flops per multiply-accumulate."""
    t = n - m + 1
    return 2.0 * t**3 * m**3 * channels


@dataclass(frozen=True)
class CpuSpec:
    """Per-primitive throughputs of the serial reference machine."""

    name: str
    clock_ghz: float
    cores: int
    effective_gflops: float        # streaming arithmetic (FFT/direct corr)
    stream_ns: float               # per-element grid accumulate
    scan_ns: float                 # per-element branchy scan (filtering)
    # -- paper Table 2 per-pair serial costs (measured inputs) --
    self_pair_ns: float            # Eq. 6, both directions of one pair
    gb_pair_ns: float              # Eq. 7 per pair
    vdw_pair_ns: float             # Eq. 8 per pair
    force_atom_ns: float           # force update per atom
    # -- host-side steps shared by serial and GPU pipelines --
    rotation_grid_ms: float        # rotation + grid assignment per rotation
    host_move_ms: float            # optimization move + coordinate update
    bonded_ms: float               # bonded terms per iteration (~0.2% of eval)
    parallel_efficiency: float     # multicore scaling efficiency


#: The paper's serial reference host (Sec. V).  Table 2's per-pair times:
#: 6.15 ms / 10k pairs, 2.75 ms / 10k, 0.5 ms / 10k, 0.95 ms / 2200 atoms.
XEON_HARPERTOWN = CpuSpec(
    name="Intel Xeon Harpertown 3 GHz (1 core)",
    clock_ghz=3.0,
    cores=4,
    effective_gflops=2.9,
    stream_ns=4.8,
    scan_ns=24.0,
    self_pair_ns=615.0,
    gb_pair_ns=275.0,
    vdw_pair_ns=50.0,
    force_atom_ns=432.0,
    rotation_grid_ms=80.0,
    host_move_ms=0.25,
    bonded_ms=0.02,
    parallel_efficiency=0.735,
)


class CpuModel:
    """Serial-time formulas for every FTMap step."""

    def __init__(self, spec: CpuSpec = XEON_HARPERTOWN) -> None:
        self.spec = spec

    # -- rigid docking, per rotation ------------------------------------------

    def fft_correlation_s(self, n: int, channels: int) -> float:
        """All FFT correlations of one rotation (fwd FFT + modulate + inv FFT
        per channel; the protein spectra are precomputed)."""
        return fft_correlation_flops(n, channels) / (self.spec.effective_gflops * 1e9)

    def direct_correlation_s(self, n: int, m: int, channels: int) -> float:
        """Direct correlation of one rotation (2 flops per MAC)."""
        flops = direct_correlation_flops(n, m, channels)
        return flops / (self.spec.effective_gflops * 1e9)

    def accumulation_s(self, n: int, m: int, desolvation_terms: int) -> float:
        """Accumulate the desolvation pairwise-potential term grids."""
        t = n - m + 1
        return desolvation_terms * t**3 * self.spec.stream_ns * 1e-9

    def scoring_filtering_s(self, n: int, m: int, k: int) -> float:
        """Weighted scoring + k exclusion-filtered selections."""
        t = n - m + 1
        return k * t**3 * self.spec.scan_ns * 1e-9

    def rotation_grid_s(self) -> float:
        return self.spec.rotation_grid_ms * 1e-3

    def docking_rotation_s(
        self,
        n: int,
        m: int,
        channels: int,
        desolvation_terms: int,
        k: int,
        engine: str = "fft",
    ) -> float:
        """Total serial time for one docking rotation."""
        corr = (
            self.fft_correlation_s(n, channels)
            if engine == "fft"
            else self.direct_correlation_s(n, m, channels)
        )
        return (
            self.rotation_grid_s()
            + corr
            + self.accumulation_s(n, m, desolvation_terms)
            + self.scoring_filtering_s(n, m, k)
        )

    def docking_phase_s(
        self,
        rotations: int,
        n: int,
        m: int,
        channels: int,
        desolvation_terms: int,
        k: int,
        engine: str = "fft",
        cores: int = 1,
    ) -> float:
        """Whole docking phase; >1 cores distributes rotations coarsely."""
        per = self.docking_rotation_s(n, m, channels, desolvation_terms, k, engine)
        total = rotations * per
        if cores > 1:
            total /= cores * self.spec.parallel_efficiency
        return total

    # -- energy minimization, per iteration --------------------------------------

    def self_energies_s(self, pairs: int) -> float:
        return pairs * self.spec.self_pair_ns * 1e-9

    def pairwise_s(self, pairs: int) -> float:
        return pairs * self.spec.gb_pair_ns * 1e-9

    def vdw_s(self, pairs: int) -> float:
        return pairs * self.spec.vdw_pair_ns * 1e-9

    def force_updates_s(self, atoms: int) -> float:
        return atoms * self.spec.force_atom_ns * 1e-9

    def minimization_iteration_s(self, pairs: int, atoms: int) -> float:
        """One serial minimization iteration (energy + forces + host steps)."""
        return (
            self.self_energies_s(pairs)
            + self.pairwise_s(pairs)
            + self.vdw_s(pairs)
            + self.force_updates_s(atoms)
            + (self.spec.bonded_ms + self.spec.host_move_ms) * 1e-3
        )

    def minimization_phase_s(
        self, conformations: int, iterations: int, pairs: int, atoms: int
    ) -> float:
        return conformations * iterations * self.minimization_iteration_s(pairs, atoms)
