"""PIPER rigid docking core.

Implements the exhaustive 6-D rigid docking of Sec. II.A / III:

* :mod:`repro.docking.fft` — the production FFT correlation engine
  (O(N^3 log N) per rotation per channel),
* :mod:`repro.docking.batched` — the batched multi-rotation FFT path
  (staged zero-padded forward transforms, fused channel reduction),
* :mod:`repro.docking.direct` — direct (spatial-domain) correlation, the
  algorithm the paper maps to the GPU, including multi-rotation batching,
* :mod:`repro.docking.scoring` — weighted channel summation (Eq. 2),
* :mod:`repro.docking.filtering` — region-exclusion top-pose selection
  (Fig. 5),
* :mod:`repro.docking.piper` — the rotation-loop driver that retains the
  top 4 poses per rotation (500 rotations -> 2000 conformations) with the
  correlation engine it is handed,
* :mod:`repro.docking.selection` — ``auto``: the backend with the fewest
  correlation flops per rotation,
* :mod:`repro.docking.engine` — the :class:`DockingEngine` facade every
  scenario (docking, mapping, benchmarks) goes through, and the one place
  that turns a backend name into an engine and a rotation batch.

Convention: pose **energy**, lower is better, everywhere.
"""

from repro.docking.correlation import CorrelationEngine, correlate_channels
from repro.docking.fft import FFTCorrelationEngine
from repro.docking.batched import BatchedFFTCorrelationEngine
from repro.docking.direct import DirectCorrelationEngine
from repro.docking.scoring import combine_channel_scores
from repro.docking.filtering import filter_top_poses, FilteredPose
from repro.docking.piper import PiperConfig, DockedPose, PiperDocker
from repro.docking.selection import BackendChoice, select_backend
from repro.docking.engine import DockingEngine, DockingRun

__all__ = [
    "CorrelationEngine",
    "correlate_channels",
    "FFTCorrelationEngine",
    "BatchedFFTCorrelationEngine",
    "DirectCorrelationEngine",
    "combine_channel_scores",
    "filter_top_poses",
    "FilteredPose",
    "PiperConfig",
    "DockedPose",
    "PiperDocker",
    "BackendChoice",
    "select_backend",
    "DockingEngine",
    "DockingRun",
]
