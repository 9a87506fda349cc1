"""PIPER rigid docking core.

Implements the exhaustive 6-D rigid docking of Sec. II.A / III:

* :mod:`repro.docking.direct` — direct (spatial-domain) correlation, the
  algorithm the paper maps to the GPU and the one the runtime docks with:
  an fp32 proposal with a rigorous error bound and fp64 rescoring,
* :mod:`repro.docking.fft` — FFT correlation (O(N^3 log N) per rotation
  per channel), kept as the reference kernel of the tests and the paper
  benchmarks; import it from its module,
* :mod:`repro.docking.scoring` — weighted channel summation (Eq. 2),
* :mod:`repro.docking.filtering` — region-exclusion top-pose selection
  (Fig. 5),
* :mod:`repro.docking.piper` — the rotation-loop driver that retains the
  top 4 poses per rotation (500 rotations -> 2000 conformations),
* :mod:`repro.docking.engine` — the :class:`DockingEngine` facade every
  scenario (docking, mapping, benchmarks) goes through.

Convention: pose **energy**, lower is better, everywhere.
"""

from repro.docking.correlation import CorrelationEngine
from repro.docking.direct import DirectCorrelationEngine
from repro.docking.scoring import combine_channel_scores
from repro.docking.filtering import filter_top_poses, FilteredPose
from repro.docking.piper import PiperConfig, DockedPose, PiperDocker
from repro.docking.engine import DockingEngine, DockingRun

__all__ = [
    "CorrelationEngine",
    "DirectCorrelationEngine",
    "combine_channel_scores",
    "filter_top_poses",
    "FilteredPose",
    "PiperConfig",
    "DockedPose",
    "PiperDocker",
    "DockingEngine",
    "DockingRun",
]
