"""FTMap binding-site mapping: the end-to-end application.

"A hotspot on a protein surface can be found by docking some number of
small molecule probes and finding a consensus region that binds most of
these probes with high affinity." (Sec. I)

Pipeline per probe: PIPER rigid docking (top 4 poses x rotations) ->
CHARMM/ACE minimization of each retained conformation -> per-probe
clustering of minimized poses.  Across probes: consensus clustering of the
per-probe cluster representatives; consensus sites rank by how many
*distinct* probe types they attract.
"""

from repro.mapping.ftmap import (
    FTMapConfig,
    FTMapResult,
    MinimizeStage,
    ProbeResult,
    cluster_probe,
    dock_probe,
    map_probe,
    minimize_poses,
)
from repro.mapping.clustering import Cluster, cluster_poses
from repro.mapping.consensus import ConsensusSite, consensus_sites
from repro.mapping.hotspot import BurialMap, burial_map, site_concavity, top_pockets
from repro.mapping.report import mapping_report
from repro.mapping.sweep import SweepReport, SweepRun, run_sweep, sweep_grid

__all__ = [
    "FTMapConfig",
    "FTMapResult",
    "MinimizeStage",
    "ProbeResult",
    "dock_probe",
    "minimize_poses",
    "cluster_probe",
    "map_probe",
    "SweepRun",
    "SweepReport",
    "run_sweep",
    "sweep_grid",
    "Cluster",
    "cluster_poses",
    "ConsensusSite",
    "consensus_sites",
    "BurialMap",
    "burial_map",
    "top_pockets",
    "site_concavity",
    "mapping_report",
]
