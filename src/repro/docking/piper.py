"""PIPER driver: the exhaustive rotation loop of FTMap's rigid-docking phase.

Per rotation (Sec. II.A / Fig. 2b):

1. rotate the probe and re-grid it on the host (*rotation and grid
   assignment* — stays on the host in the paper's GPU port too),
2. correlate all channels against the receptor grids (*FFT correlations* /
   direct correlation on the GPU),
3. combine weighted channel scores (*accumulation*),
4. filter the 4 best, region-separated translations (*scoring and
   filtering*).

FTMap runs 500 rotations and retains 4 poses each -> 2000 conformations
for the minimization phase.

With the direct engine, :meth:`PiperDocker.run` does steps 2-4 as a
certified fp32 pass: it proposes the whole score grid in fp32 with an
error bound ε (:meth:`~repro.docking.direct.DirectCorrelationEngine.propose`),
rescores in fp64 only the translations the fp32 greedy leaves within 2ε
of its last pick, and reruns the greedy on those
(:func:`~repro.docking.filtering.certified_top_poses`).  When the
certificate holds, the picks are those of the fp64 grid, bit for bit;
when it fails, or ε is not finite, the rotation falls back to the fp64
:meth:`~repro.docking.direct.DirectCorrelationEngine.correlate` and
:func:`~repro.docking.filtering.filter_top_poses`.  Each run counts its
rescored translations and fallbacks in ``repro_dock_rescored_translations_total``
and ``repro_dock_certify_fallbacks_total`` and on the current span.

:class:`PiperDocker` runs the :class:`~repro.docking.correlation.CorrelationEngine`
it is handed (direct correlation by default).  Which backend to run, and
with what rotation batch, is decided in one place:
:class:`~repro.docking.engine.DockingEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from repro.constants import (
    DEFAULT_PROBE_GRID,
    DEFAULT_PROTEIN_GRID,
    FILTER_EXCLUSION_RADIUS,
    FTMAP_NUM_ROTATIONS,
    MIN_DESOLVATION_TERMS,
    POSES_PER_ROTATION,
)
from repro.docking.correlation import CorrelationEngine
from repro.docking.direct import DirectCorrelationEngine
from repro.docking.filtering import certified_top_poses, filter_top_poses
from repro.geometry.sampling import rotation_set
from repro.geometry.transforms import RigidTransform, centered
from repro.grids.energyfunctions import EnergyGrids, protein_grids_cached
from repro.grids.gridding import GridSpec
from repro.grids.rotation import ligand_grid_spec, rotate_and_grid_ligand
from repro.obs.metrics import registry
from repro.obs.trace import current_span
from repro.structure.molecule import Molecule
from repro.util.parallel import chunked

__all__ = ["PiperConfig", "DockedPose", "PiperDocker"]


@dataclass(frozen=True)
class PiperConfig:
    """The docking workload of one PIPER run: what to dock, not how.

    Defaults follow the paper: 500 rotations, 4 poses/rotation, 128^3
    receptor grid, 4^3 probe grid, 4 desolvation terms (the minimum of the
    4..18 range).  ``batch_size`` caps how many rotations are gridded and
    scored per batched pass (``None`` = the engine's default).  The
    correlation backend is not part of the workload: it is
    ``DockingEngine(backend=...)`` (or ``FTMapConfig.engine``).
    """

    num_rotations: int = FTMAP_NUM_ROTATIONS
    poses_per_rotation: int = POSES_PER_ROTATION
    receptor_grid: int = DEFAULT_PROTEIN_GRID
    probe_grid: int = DEFAULT_PROBE_GRID
    grid_spacing: float = 1.0
    n_desolvation_terms: int = MIN_DESOLVATION_TERMS
    exclusion_radius: int = FILTER_EXCLUSION_RADIUS
    rotation_scheme: str = "super-fibonacci"
    desolvation_seed: int = 2010
    batch_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_rotations < 1:
            raise ValueError("need at least one rotation")
        if self.poses_per_rotation < 1:
            raise ValueError("need at least one pose per rotation")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class DockedPose:
    """One retained pose: rotation + voxel translation + world transform."""

    rotation_index: int
    rotation: np.ndarray
    translation: tuple            # voxel offsets (a, b, c)
    score: float
    transform: RigidTransform     # maps centered probe coords to world space

    def __lt__(self, other: "DockedPose") -> bool:
        return self.score < other.score


class PiperDocker:
    """Rigid-docking driver: grids the receptor once, loops over rotations.

    Parameters
    ----------
    receptor:
        Protein molecule.
    probe:
        Small-molecule probe; must fit the configured probe grid.
    config:
        :class:`PiperConfig`.
    engine:
        The :class:`CorrelationEngine` to run; defaults to
        :class:`DirectCorrelationEngine`.
    cache:
        Optional :class:`~repro.cache.manager.CacheManager`.  When enabled,
        the receptor grid build is served content-addressed (structurally
        equal receptors reuse the grids across dockers and probes).
    """

    def __init__(
        self,
        receptor: Molecule,
        probe: Molecule,
        config: PiperConfig | None = None,
        engine: Optional[CorrelationEngine] = None,
        cache=None,
    ) -> None:
        self.receptor = receptor
        self.probe = probe
        self.config = config or PiperConfig()
        cfg = self.config

        self.receptor_spec = GridSpec.centered_on(
            receptor, cfg.receptor_grid, cfg.grid_spacing
        )
        self.probe_spec = ligand_grid_spec(probe, cfg.probe_grid, cfg.grid_spacing)
        self.receptor_grids = protein_grids_cached(
            receptor,
            self.receptor_spec,
            n_desolvation_terms=cfg.n_desolvation_terms,
            desolvation_seed=cfg.desolvation_seed,
            cache=cache,
        )
        self.rotations = rotation_set(cfg.num_rotations, cfg.rotation_scheme)
        self.engine: CorrelationEngine = (
            engine if engine is not None else DirectCorrelationEngine()
        )

    # -- single rotation ------------------------------------------------------

    def grid_rotation(self, rotation_index: int) -> EnergyGrids:
        """Host-side step 1: rotate the probe and re-grid it."""
        cfg = self.config
        return rotate_and_grid_ligand(
            self.probe,
            self.rotations[rotation_index],
            self.probe_spec,
            n_desolvation_terms=cfg.n_desolvation_terms,
            desolvation_seed=cfg.desolvation_seed,
        )

    def score_rotation(self, rotation_index: int) -> np.ndarray:
        """Weighted pose-energy grid for one rotation (steps 1-3)."""
        lig = self.grid_rotation(rotation_index)
        return self.engine.correlate(self.receptor_grids, lig)

    def poses_for_rotation(self, rotation_index: int) -> List[DockedPose]:
        """Top poses for one rotation (steps 1-4)."""
        cfg = self.config
        scores = self.score_rotation(rotation_index)
        filtered = filter_top_poses(
            scores, cfg.poses_per_rotation, cfg.exclusion_radius
        )
        return [self._to_docked(rotation_index, f) for f in filtered]

    def _to_docked(self, rotation_index: int, f) -> DockedPose:
        # World transform: probe voxel d maps to receptor voxel a + d, so a
        # centered, rotated probe atom x lands at
        #   X = x + (receptor_origin + a * h - probe_origin).
        h = self.config.grid_spacing
        a = np.asarray(f.translation, dtype=float)
        t = (
            np.asarray(self.receptor_spec.origin)
            + a * h
            - np.asarray(self.probe_spec.origin)
        )
        return DockedPose(
            rotation_index=rotation_index,
            rotation=self.rotations[rotation_index],
            translation=f.translation,
            score=f.score,
            transform=RigidTransform(self.rotations[rotation_index], t),
        )

    # -- full run -----------------------------------------------------------------

    def run(
        self,
        rotation_indices: Sequence[int] | None = None,
        batch_size: int | None = None,
    ) -> List[DockedPose]:
        """Dock over all (or selected) rotations; poses sorted by energy.

        Rotations are processed in batches: each batch is gridded on the
        host, scored in one ``correlate_batch`` call, and filtered per
        rotation.  A batch size of 1 reproduces the classic per-rotation
        loop exactly.  ``batch_size`` defaults to the configured one, else
        the engine's :meth:`~repro.docking.correlation.CorrelationEngine.default_batch`.
        The direct engine instead runs the certified fp32 pass of the
        module docstring one rotation at a time; its poses are those of
        the fp64 loop bit for bit.
        """
        indices = list(
            range(len(self.rotations)) if rotation_indices is None else rotation_indices
        )
        bs = batch_size
        if bs is None:
            bs = self.config.batch_size or self.engine.default_batch(self.receptor_grids)
        if bs < 1:
            raise ValueError("batch_size must be >= 1")
        cfg = self.config

        engine = self.engine
        if isinstance(engine, DirectCorrelationEngine) and engine.skip_zero_voxels:
            return self._run_certified(engine, indices)
        poses: List[DockedPose] = []
        for chunk in chunked(indices, bs):
            grids = [self.grid_rotation(ri) for ri in chunk]
            score_stack = self.engine.correlate_batch(self.receptor_grids, grids)
            for ri, scores in zip(chunk, score_stack):
                filtered = filter_top_poses(
                    scores, cfg.poses_per_rotation, cfg.exclusion_radius
                )
                poses.extend(self._to_docked(ri, f) for f in filtered)
        poses.sort()
        return poses

    def _run_certified(
        self, engine: DirectCorrelationEngine, indices: Sequence[int]
    ) -> List[DockedPose]:
        """The direct engine's run: fp32 proposal, fp64 rescoring, fallback."""
        cfg = self.config
        k, r = cfg.poses_per_rotation, cfg.exclusion_radius
        rec = self.receptor_grids
        poses: List[DockedPose] = []
        rescored = fallbacks = 0
        for ri in indices:
            lig = self.grid_rotation(ri)
            proposal, eps = engine.propose(rec, lig)
            kept, n = certified_top_poses(
                proposal, eps, partial(engine.rescore, rec, lig), k, r
            )
            rescored += n
            if kept is None:
                fallbacks += 1
                kept = filter_top_poses(engine.correlate(rec, lig), k, r)
            poses.extend(self._to_docked(ri, f) for f in kept)
        poses.sort()
        reg = registry()
        reg.counter(
            "repro_dock_rescored_translations_total", ("backend",),
            help="Translations rescored in fp64 by certified docking.",
        ).inc(rescored, backend=engine.name)
        reg.counter(
            "repro_dock_certify_fallbacks_total", ("backend",),
            help="Rotations whose fp32 certificate failed and were rescored in full.",
        ).inc(fallbacks, backend=engine.name)
        current_span().set_attributes(rescored=rescored, fallbacks=fallbacks)
        return poses

    def docked_probe_coords(self, pose: DockedPose) -> np.ndarray:
        """World-space probe coordinates for a docked pose."""
        return pose.transform.apply(centered(self.probe.coords))
