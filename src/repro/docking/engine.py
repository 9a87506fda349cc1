"""The single docking entry point.

Every scenario in the package — plain docking, FTMap binding-site mapping,
ablation benchmarks — funnels through :class:`DockingEngine`.  Docking has
one runtime path: the certified direct correlation of
:meth:`PiperDocker.run <repro.docking.piper.PiperDocker.run>` (fp32
proposal, fp64 rescoring of the candidates, the fp64 poses bit for bit).
For probe-sized ligands direct correlation is faster than FFT correlation
(the paper's Sec. III), so no FFT engine, ``auto`` rule or rotation batch
is left to choose.  The FFT engine is a reference kernel
(:mod:`repro.docking.fft`), and the paper's virtual-GPU docking path is a
model (:mod:`repro.gpu.docking_pipeline`); neither is a backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

from repro.docking.piper import DockedPose, PiperConfig, PiperDocker
from repro.obs.metrics import registry
from repro.structure.molecule import Molecule

__all__ = ["DockingEngine", "DockingRun", "BACKEND_NAMES"]

#: Backends the facade can execute.
BACKEND_NAMES = ("direct",)


@dataclass
class DockingRun:
    """Poses plus the provenance of one facade run."""

    poses: List[DockedPose]
    backend: str


class DockingEngine:
    """Facade over the PIPER rotation loop.

    Parameters
    ----------
    receptor, probe:
        The molecules to dock.
    config:
        :class:`PiperConfig`: the docking workload.
    backend:
        Must be ``"direct"`` (the default), the one backend; kept so
        callers that name it still run.
    workers:
        Kept so 1.x callers that pass it still run; must be ``None`` or
        ``1``, because rotations are gridded in the calling thread.
    cache:
        Optional :class:`~repro.cache.manager.CacheManager`: serves the
        receptor grid build.
    """

    def __init__(
        self,
        receptor: Molecule,
        probe: Molecule,
        config: PiperConfig | None = None,
        backend: str = "direct",
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
        self.config = cfg = config or PiperConfig()
        self.backend = backend
        self.docker = PiperDocker(receptor, probe, cfg, cache=cache)

    # -- execution ---------------------------------------------------------------

    def run(self, rotation_indices: Sequence[int] | None = None) -> List[DockedPose]:
        """Dock; returns the energy-sorted pose list."""
        return self.run_detailed(rotation_indices).poses

    def run_detailed(
        self, rotation_indices: Sequence[int] | None = None
    ) -> DockingRun:
        """Dock and report backend provenance."""
        t_start = time.perf_counter()
        run = DockingRun(poses=self.docker.run(rotation_indices), backend=self.backend)
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
