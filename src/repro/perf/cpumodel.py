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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CpuSpec", "XEON_HARPERTOWN", "CpuModel"]


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
    # -- reproduction-host (NumPy evaluator) constants, used only by the
    # -- minimization backend selector (repro.minimize.selection); they
    # -- describe *this* package's vectorized evaluator, not the paper's C
    # -- code, so the paper-table models above never read them.
    numpy_pair_ns: float = 40.0    # vectorized non-bonded work per pair per eval
    numpy_atom_ns: float = 5.0     # vectorized per-atom work (forces, bonded) per eval
    eval_dispatch_ms: float = 1.2  # fixed per-evaluation interpreter/dispatch cost
    # Cost of an energies-only evaluation relative to a full energy+force
    # evaluation.  Every line-search probe (serial and batched alike, since
    # the serial-fast-paths re-baselining) skips gradient arithmetic and all
    # per-atom scatters; measured ~0.65 on the NumPy evaluator at paper
    # scale (~3400 atoms).
    energy_only_fraction: float = 0.65


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
        per channel; the protein spectra are precomputed).

        A 3-D transform of an n^3 grid costs ~5 n^3 log2(n^3) flops (three
        1-D FFT sweeps).
        """
        flops = channels * (2 * 5.0 * n**3 * np.log2(float(n) ** 3) + 6.0 * n**3)
        return flops / (self.spec.effective_gflops * 1e9)

    def direct_correlation_s(self, n: int, m: int, channels: int) -> float:
        """Direct correlation of one rotation (2 flops per MAC)."""
        t = n - m + 1
        flops = 2.0 * t**3 * m**3 * channels
        return flops / (self.spec.effective_gflops * 1e9)

    def batched_fft_correlation_s(
        self, n: int, m: int, channels: int, batch: int = 8
    ) -> float:
        """Batched-FFT correlation, per rotation amortized over ``batch``.

        The batched path (``repro.docking.batched``) does staged zero-padded
        forward transforms — per channel one 1-D sweep over ``m*m*n + m*n*n
        + n^3`` points instead of three over ``n^3`` — plus a single shared
        inverse transform and one fused channel reduction per rotation.  The
        receptor spectra are prepared once per batch and amortized.
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        log_n = np.log2(float(n))
        fwd = channels * 5.0 * log_n * (m * m * n + m * n * n + n**3)
        inv = 3.0 * 5.0 * log_n * n**3
        modulate = 6.0 * channels * n**3
        # Receptor-side spectra: C forward transforms shared by the batch.
        prep = channels * 3.0 * 5.0 * log_n * n**3 / batch
        flops = fwd + inv + modulate + prep
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

    # -- reproduction-host minimization (NumPy evaluator) --------------------------
    #
    # The paper-table formulas above model the original serial C code.  The
    # formulas below model the *reproduction's own* vectorized evaluator,
    # whose per-iteration cost splits into array arithmetic (linear in
    # pairs) plus a fixed interpreter/dispatch overhead per evaluation —
    # the overhead is what ensemble batching amortizes.  Used by
    # ``repro.minimize.selection``.

    def vectorized_evaluation_s(self, pairs: int, atoms: int, poses: int = 1) -> float:
        """One NumPy energy/force evaluation of ``poses`` stacked poses."""
        per_pose = (
            pairs * self.spec.numpy_pair_ns + atoms * self.spec.numpy_atom_ns
        ) * 1e-9
        return poses * per_pose + self.spec.eval_dispatch_ms * 1e-3

    def host_minimization_phase_s(
        self,
        conformations: int,
        iterations: int,
        pairs: int,
        atoms: int,
        batch: int = 1,
    ) -> float:
        """Whole minimization phase on the reproduction host.

        ``batch = 1`` is the serial per-pose loop; larger batches evaluate
        that many poses per NumPy dispatch (the ensemble path).  Each
        iteration costs one full accepted-point refresh plus one
        energies-only line-search probe — both the serial and batched
        minimizers use the kernels' energies-only fast path for the probe,
        so an iteration is ``1 + energy_only_fraction`` full-evaluation
        equivalents (historically 2.0, before the serial fast path landed).
        """
        if conformations <= 0:
            return 0.0
        batch = max(1, min(batch, conformations))
        evals_per_iteration = 1.0 + self.spec.energy_only_fraction
        per_iteration = evals_per_iteration * self.vectorized_evaluation_s(
            pairs, atoms, batch
        )
        n_groups = -(-conformations // batch)
        return n_groups * iterations * per_iteration
