"""The single docking entry point: backend selection + batched execution.

Every scenario in the package — plain docking, FTMap binding-site mapping,
ablation benchmarks — funnels through :class:`DockingEngine`, and this
module is the only place that turns a backend name into a correlation
engine and a rotation batch size.  The facade

1. resolves a backend (``direct`` / ``fft`` / ``batched-fft`` / ``auto``)
   once; ``auto`` is the backend with the fewest correlation flops per
   rotation (:mod:`repro.docking.selection`),
2. builds a :class:`PiperDocker` running the matching
   :class:`~repro.docking.correlation.CorrelationEngine`,
3. runs rotations through the batched loop, in batches of the explicit
   ``batch_size``, else :attr:`PiperConfig.batch_size`, else the engine's
   :meth:`~repro.docking.correlation.CorrelationEngine.default_batch`.

All backends produce the same poses (tested); they differ in wall-clock.
The paper's virtual-GPU docking path is a model, not a backend: it lives
in :mod:`repro.gpu.docking_pipeline`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

from repro.docking.batched import BatchedFFTCorrelationEngine
from repro.docking.correlation import CorrelationEngine
from repro.docking.direct import DirectCorrelationEngine
from repro.docking.fft import FFTCorrelationEngine
from repro.docking.piper import DockedPose, PiperConfig, PiperDocker
from repro.docking.selection import CPU_BACKENDS, select_backend
from repro.grids.energyfunctions import num_channels
from repro.obs.metrics import registry
from repro.structure.molecule import Molecule

__all__ = ["DockingEngine", "DockingRun", "BACKEND_NAMES"]

#: Backends the facade can execute.
BACKEND_NAMES = CPU_BACKENDS + ("auto",)


def _correlation_engine(name: str, cache) -> CorrelationEngine:
    """The correlation engine of a resolved backend.

    Spectra go through the artifact cache only when one is active;
    otherwise the FFT engines use the shared in-process spectra manager
    (spectra reuse across rotations is never off).
    """
    spectra = cache if cache is not None and cache.enabled else None
    if name == "fft":
        return FFTCorrelationEngine(spectra_cache=spectra)
    if name == "batched-fft":
        return BatchedFFTCorrelationEngine(spectra_cache=spectra)
    return DirectCorrelationEngine()


@dataclass
class DockingRun:
    """Poses plus the provenance of one facade run."""

    poses: List[DockedPose]
    backend: str
    batch_size: int


class DockingEngine:
    """Facade over the PIPER rotation loop with auto-selected backends.

    Parameters
    ----------
    receptor, probe:
        The molecules to dock.
    config:
        :class:`PiperConfig`: the docking workload.
    backend:
        One of :data:`BACKEND_NAMES` (default ``"direct"``).  ``"auto"``
        picks the backend with the fewest correlation flops.
    batch_size:
        Rotations per batched pass; overrides ``config.batch_size``.
    workers:
        Kept so 1.x callers that pass it still run; must be ``None`` or
        ``1``, because rotations are gridded in the calling thread.
    cache:
        Optional :class:`~repro.cache.manager.CacheManager`: serves the
        receptor grid build and, when enabled, the FFT engines' receptor
        spectra (so a disk tier shares them across processes).
    """

    def __init__(
        self,
        receptor: Molecule,
        probe: Molecule,
        config: PiperConfig | None = None,
        backend: str = "direct",
        batch_size: int | None = None,
        workers: int | None = None,
        cache=None,
    ) -> None:
        if workers not in (None, 1):
            raise ValueError(
                f"workers={workers!r}: docking runs in the calling thread; "
                "scale out with FTMapService streaming instead"
            )
        if backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}"
            )
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.config = cfg = config or PiperConfig()
        if batch_size is None:
            batch_size = cfg.batch_size
        if backend == "auto":
            backend = select_backend(
                cfg.receptor_grid,
                cfg.probe_grid,
                num_channels(cfg.n_desolvation_terms),
                num_rotations=cfg.num_rotations,
                batch_size=batch_size,
            ).backend
        self.backend = backend
        self.docker = PiperDocker(
            receptor,
            probe,
            cfg,
            engine=_correlation_engine(backend, cache),
            cache=cache,
        )
        if batch_size is None:
            batch_size = self.docker.engine.default_batch(self.docker.receptor_grids)
        self.batch_size = batch_size

    # -- execution ---------------------------------------------------------------

    def run(self, rotation_indices: Sequence[int] | None = None) -> List[DockedPose]:
        """Dock; returns the energy-sorted pose list."""
        return self.run_detailed(rotation_indices).poses

    def run_detailed(
        self, rotation_indices: Sequence[int] | None = None
    ) -> DockingRun:
        """Dock and report backend provenance."""
        t_start = time.perf_counter()
        poses = self.docker.run(rotation_indices, batch_size=self.batch_size)
        run = DockingRun(poses=poses, backend=self.backend, batch_size=self.batch_size)
        n_rotations = (
            len(rotation_indices)
            if rotation_indices is not None
            else self.config.num_rotations
        )
        reg = registry()
        reg.counter(
            "repro_dock_runs_total", ("backend",),
            help="Docking runs executed, by backend.",
        ).inc(backend=self.backend)
        reg.counter(
            "repro_dock_rotations_total", ("backend",),
            help="Rotations docked, by backend.",
        ).inc(n_rotations, backend=self.backend)
        reg.counter(
            "repro_dock_batches_total", ("backend",),
            help="Correlation batches (FFT or direct chunks) executed.",
        ).inc(-(-n_rotations // run.batch_size), backend=self.backend)
        reg.histogram(
            "repro_dock_run_seconds", ("backend",),
            help="Wall seconds per docking run.",
        ).observe(time.perf_counter() - t_start, backend=self.backend)
        return run

    # -- conveniences -------------------------------------------------------------

    @property
    def rotations(self):
        return self.docker.rotations

    def docked_probe_coords(self, pose: DockedPose):
        return self.docker.docked_probe_coords(pose)
