"""The single docking entry point: backend selection + batched execution.

Every scenario in the package — plain docking, FTMap binding-site mapping,
ablation benchmarks — funnels through :class:`DockingEngine`, and this
module is the only place that turns a backend name into a correlation
engine and a rotation batch size.  The facade

1. resolves a backend (``direct`` / ``fft`` / ``batched-fft`` / ``gpu-sim``
   / ``auto``) once; ``auto`` is the host backend with the fewest
   correlation flops per rotation (:mod:`repro.docking.selection`),
2. builds the matching execution path — a :class:`PiperDocker` running the
   chosen :class:`~repro.docking.correlation.CorrelationEngine`, or the
   virtual-GPU :class:`~repro.gpu.docking_pipeline.GpuPiperDocker` for
   ``gpu-sim``,
3. runs rotations through the batched loop, in batches of the explicit
   ``batch_size``, else :attr:`PiperConfig.batch_size`, else the engine's
   :meth:`~repro.docking.correlation.CorrelationEngine.default_batch`;
   ``gpu-sim`` caps any batch at what fits the device's constant memory,
   which is also its default.

All backends produce the same poses (tested); they differ in wall-clock
and, for ``gpu-sim``, in the predicted-device-time ledger attached to the
result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

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
BACKEND_NAMES = CPU_BACKENDS + ("gpu-sim", "auto")


def _correlation_engine(name: str, cache) -> CorrelationEngine:
    """The correlation engine of a resolved CPU backend.

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
    predicted_device_time_s: Optional[float] = None   # gpu-sim only


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
        picks the CPU backend with the fewest correlation flops;
        ``"gpu-sim"`` routes through the virtual-device pipeline.
    batch_size:
        Rotations per batched pass; overrides ``config.batch_size``.
        ``gpu-sim`` caps it at the device's constant-memory batch.
    workers:
        Kept so 1.x callers that pass it still run; must be ``None`` or
        ``1``, because rotations are gridded in the calling thread.
    device:
        Virtual device for ``gpu-sim`` (defaults to the paper's C1060).
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
        device=None,
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
            engine=None if backend == "gpu-sim" else _correlation_engine(backend, cache),
            cache=cache,
        )
        self._gpu = None
        if backend == "gpu-sim":
            from repro.cuda.device import Device
            from repro.gpu.docking_pipeline import GpuPiperDocker

            self._gpu = GpuPiperDocker(
                receptor,
                probe,
                replace(cfg, batch_size=batch_size),
                device=device or Device(),
                serial=self.docker,
            )
            batch_size = self._gpu.batch_size
        elif batch_size is None:
            batch_size = self.docker.engine.default_batch(self.docker.receptor_grids)
        self.batch_size = batch_size

    # -- execution ---------------------------------------------------------------

    def run(self, rotation_indices: Sequence[int] | None = None) -> List[DockedPose]:
        """Dock; returns the energy-sorted pose list."""
        return self.run_detailed(rotation_indices).poses

    def run_detailed(
        self, rotation_indices: Sequence[int] | None = None
    ) -> DockingRun:
        """Dock and report backend provenance (and GPU time ledger)."""
        t_start = time.perf_counter()
        if self._gpu is not None:
            res = self._gpu.run(rotation_indices)
            run = DockingRun(
                poses=res.poses,
                backend=self.backend,
                batch_size=res.batch_size,
                predicted_device_time_s=res.predicted_device_time_s,
            )
        else:
            poses = self.docker.run(rotation_indices, batch_size=self.batch_size)
            run = DockingRun(
                poses=poses, backend=self.backend, batch_size=self.batch_size
            )
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
        batch = run.batch_size or 1
        reg.counter(
            "repro_dock_batches_total", ("backend",),
            help="Correlation batches (FFT or direct chunks) executed.",
        ).inc(-(-n_rotations // batch), backend=self.backend)
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
