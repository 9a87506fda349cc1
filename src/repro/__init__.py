"""repro: reproduction of "Fast Binding Site Mapping using GPUs and CUDA"
(Sukhwani & Herbordt, IPDPS Workshops 2010).

The package rebuilds the full FTMap system the paper accelerates —

* PIPER rigid docking (FFT + direct multi-channel grid correlation, scoring,
  region-exclusion filtering): :mod:`repro.docking`, :mod:`repro.grids`,
* CHARMM/ACE energy minimization (Eqs. 3-10, neighbor/pairs lists, analytic
  gradients, steepest-descent driver): :mod:`repro.minimize`,
* the binding-site mapping application (probe library, clustering,
  consensus hotspots): :mod:`repro.mapping`, :mod:`repro.structure`,

— plus the paper's contribution, the GPU port, on a *virtual CUDA device*
(Tesla C1060 execution/cost model): :mod:`repro.cuda`, :mod:`repro.gpu`,
with the serial/multicore reference models and the table/figure
reproduction harness in :mod:`repro.perf`, and the unified telemetry
layer (request tracing, metrics registry, structured logging) in
:mod:`repro.obs`.

The public front door is the session-scoped mapping service
(:mod:`repro.api`)::

    from repro import synthetic_protein, FTMapConfig, FTMapService, mapping_report

    with FTMapService() as service:
        mapped = service.map(
            synthetic_protein(),
            FTMapConfig(probe_names=("ethanol", "benzene")),
        )
    print(mapping_report(mapped.result))
"""

from repro.structure import (
    Molecule,
    ForceField,
    default_forcefield,
    build_probe,
    probe_library,
    FTMAP_PROBE_NAMES,
    synthetic_protein,
    synthetic_complex,
    read_pdb,
    write_pdb,
)
from repro.docking import (
    PiperConfig,
    PiperDocker,
    DockedPose,
    DockingEngine,
    DockingRun,
    FFTCorrelationEngine,
    BatchedFFTCorrelationEngine,
    DirectCorrelationEngine,
    select_backend,
    filter_top_poses,
)
from repro.minimize import (
    EnergyModel,
    EnergyReport,
    Minimizer,
    MinimizerConfig,
    MinimizationResult,
    EnsembleEnergyModel,
    BatchedMinimizer,
    MinimizationEngine,
    MinimizationRun,
    MultiDeviceMinimizer,
    MultiDeviceRun,
    ShardExecution,
    select_minimize_backend,
)
from repro.mapping import (
    FTMapConfig,
    FTMapResult,
    run_sweep,
    sweep_grid,
    SweepReport,
    mapping_report,
    consensus_sites,
    cluster_poses,
)
from repro.cache import CacheManager, CacheStats, resolve_manager
from repro.cuda import Device, DeviceSpec, TESLA_C1060
from repro.exec import DeviceTopology, ShardPlan, default_topology
from repro.api import (
    FTMapService,
    MapRequest,
    MapResult,
    JobHandle,
    JobCancelled,
    ProgressEvent,
    receptor_fingerprint,
)
from repro.obs import MetricsRegistry, Tracer, metrics_registry

__version__ = "5.0.0"

__all__ = [
    "Molecule",
    "ForceField",
    "default_forcefield",
    "build_probe",
    "probe_library",
    "FTMAP_PROBE_NAMES",
    "synthetic_protein",
    "synthetic_complex",
    "read_pdb",
    "write_pdb",
    "PiperConfig",
    "PiperDocker",
    "DockedPose",
    "DockingEngine",
    "DockingRun",
    "FFTCorrelationEngine",
    "BatchedFFTCorrelationEngine",
    "DirectCorrelationEngine",
    "select_backend",
    "filter_top_poses",
    "EnergyModel",
    "EnergyReport",
    "Minimizer",
    "MinimizerConfig",
    "MinimizationResult",
    "EnsembleEnergyModel",
    "BatchedMinimizer",
    "MinimizationEngine",
    "MinimizationRun",
    "MultiDeviceMinimizer",
    "MultiDeviceRun",
    "ShardExecution",
    "select_minimize_backend",
    "FTMapConfig",
    "FTMapResult",
    "run_sweep",
    "sweep_grid",
    "SweepReport",
    "CacheManager",
    "CacheStats",
    "resolve_manager",
    "mapping_report",
    "consensus_sites",
    "cluster_poses",
    "FTMapService",
    "MapRequest",
    "MapResult",
    "JobHandle",
    "JobCancelled",
    "ProgressEvent",
    "receptor_fingerprint",
    "Device",
    "DeviceSpec",
    "TESLA_C1060",
    "DeviceTopology",
    "ShardPlan",
    "default_topology",
    "Tracer",
    "MetricsRegistry",
    "metrics_registry",
    "__version__",
]
