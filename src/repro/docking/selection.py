"""Backend auto-selection for the docking correlation hot path.

``auto`` picks the host backend with the fewest correlation flops per
rotation for a problem size — receptor edge ``n``, ligand edge ``m``,
channel count, rotation count:

* ``direct`` costs ``2 T^3 m^3`` flops per channel (``T = n - m + 1``),
* ``fft`` costs a forward and an inverse ``n^3`` transform per channel,
* ``batched-fft`` does staged zero-padded forward transforms, one shared
  inverse transform, and amortizes the receptor spectra over its rotation
  batch; a single rotation has nothing to batch, so it never wins there.

That comparison is the paper's Sec. III crossover ("if the ligand grid is
smaller than a certain size, direct correlation can perform better than
FFT"): FTMap probes (``m <= 4``) land on ``direct``, large ligands on an
FFT path.  The flop formulas live here once; the paper-table CPU model
(:class:`repro.perf.cpumodel.CpuModel`) divides them by its GFLOP/s.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.docking.batched import DEFAULT_FFT_BATCH, fft_batch_limit

__all__ = [
    "BackendChoice",
    "CPU_BACKENDS",
    "batched_fft_correlation_flops",
    "direct_correlation_flops",
    "fft_correlation_flops",
    "select_backend",
]

#: The concrete backends ``auto`` chooses among.
CPU_BACKENDS = ("direct", "fft", "batched-fft")


class BackendChoice(NamedTuple):
    """What ``auto`` resolves to, and the batch the rule assumed for it."""

    backend: str
    batch_size: int


def fft_correlation_flops(n: int, channels: int) -> float:
    """All FFT correlations of one rotation: per channel a forward and an
    inverse 3-D transform (~5 n^3 log2(n^3) flops each) plus the spectrum
    product; the receptor spectra are precomputed."""
    return channels * (2 * 5.0 * n**3 * np.log2(float(n) ** 3) + 6.0 * n**3)


def direct_correlation_flops(n: int, m: int, channels: int) -> float:
    """Direct correlation of one rotation: 2 flops per multiply-accumulate."""
    t = n - m + 1
    return 2.0 * t**3 * m**3 * channels


def batched_fft_correlation_flops(n: int, m: int, channels: int, batch: int) -> float:
    """Batched-FFT correlation of one rotation, amortized over ``batch``.

    Per channel one staged forward sweep over ``m*m*n + m*n*n + n^3``
    points instead of three over ``n^3``, one shared inverse transform and
    the spectrum product; the ``channels`` receptor transforms are shared
    by the batch.
    """
    log_n = np.log2(float(n))
    fwd = channels * 5.0 * log_n * (m * m * n + m * n * n + n**3)
    inv = 3.0 * 5.0 * log_n * n**3
    modulate = 6.0 * channels * n**3
    prep = channels * 3.0 * 5.0 * log_n * n**3 / batch
    return fwd + inv + modulate + prep


def select_backend(
    n: int,
    m: int,
    channels: int,
    num_rotations: int = 1,
    batch_size: Optional[int] = None,
) -> BackendChoice:
    """The host backend with the fewest correlation flops per rotation.

    ``batched-fft`` is counted at ``batch_size`` rotations per pass, by
    default :data:`~repro.docking.batched.DEFAULT_FFT_BATCH` capped by the
    memory budget on an ``n^3`` grid and by the rotation count.  The
    returned batch is that batch when ``batched-fft`` wins, else 1.
    """
    batch = batch_size or min(
        DEFAULT_FFT_BATCH, fft_batch_limit((n, n, n), channels), num_rotations
    )
    flops = {
        "direct": direct_correlation_flops(n, m, channels),
        "fft": fft_correlation_flops(n, channels),
    }
    if num_rotations > 1:
        flops["batched-fft"] = batched_fft_correlation_flops(n, m, channels, batch)
    backend = min(flops, key=flops.get)
    return BackendChoice(backend, batch if backend == "batched-fft" else 1)
