"""repro: reproduction of "Fast Binding Site Mapping using GPUs and CUDA"
(Sukhwani & Herbordt, IPDPS Workshops 2010).

The package rebuilds the full FTMap system the paper accelerates —

* PIPER rigid docking (FFT + direct multi-channel grid correlation, scoring,
  region-exclusion filtering): :mod:`repro.docking`, :mod:`repro.grids`,
* CHARMM/ACE energy minimization (Eqs. 3-10, neighbor/pairs lists, analytic
  gradients, steepest-descent driver): :mod:`repro.minimize`,
* the binding-site mapping application (probe library, clustering,
  consensus hotspots): :mod:`repro.mapping`, :mod:`repro.structure`,

— plus the unified telemetry layer (request tracing, metrics registry,
structured logging) in :mod:`repro.obs`.  The paper's contribution, the
GPU port, is modelled on a *virtual CUDA device* (Tesla C1060
execution/cost model) in :mod:`repro.cuda` and :mod:`repro.gpu`, with the
serial/multicore reference models and the table/figure reproduction
harness in :mod:`repro.perf`.  Those three packages predict; the runtime
computes, and ``import repro`` loads none of them.

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
from repro.exec import ShardPlan
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

__version__ = "6.2.0"

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
    "ShardPlan",
    "Tracer",
    "MetricsRegistry",
    "metrics_registry",
    "__version__",
]
