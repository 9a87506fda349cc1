"""Parameter-sweep runner: the repeat-mapping workload the cache exists for.

A sweep maps one receptor under a grid of :class:`FTMapConfig` variants —
the protocol-tuning loop of a real mapping service (how sensitive are the
consensus sites to ``cluster_radius``?  how many rotations are enough?).
Most variants share the expensive artifacts: every config with the same
receptor/grid spec reuses the receptor energy grids and FFT spectra, and
variants that only touch post-docking parameters (clustering radii,
minimization depth) reuse whole per-probe dock results.  The runner wires
all runs through one :class:`repro.api.FTMapService` session (one shared
:class:`~repro.cache.manager.CacheManager`) and reports per-run wall time
and cache hit rates, so the sharing is visible, not assumed.  Each run
also records its variant's serialized config
(:attr:`SweepRun.config_dict`) for replay and job logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from itertools import product
from typing import Dict, List, Optional, Sequence

from repro.cache.manager import CacheManager, CacheStats
from repro.mapping.ftmap import FTMapConfig, FTMapResult
from repro.structure.molecule import Molecule

__all__ = ["SweepRun", "SweepReport", "sweep_grid", "run_sweep"]


@dataclass
class SweepRun:
    """One sweep point: the config variant, its result and its cost.

    ``config_dict`` is the variant's serialized form
    (:meth:`FTMapConfig.to_dict`), recorded at execution time so sweep
    reports and job logs can replay or ship any point without holding
    live objects.
    """

    label: str
    config: FTMapConfig
    result: FTMapResult
    wall_time_s: float
    cache_stats: CacheStats
    config_dict: Dict[str, object] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return self.cache_stats.hit_rate

    @property
    def minimize_provenance(self) -> Dict[str, str]:
        """Per-probe tag of where this run's minimization actually ran.

        ``"batched"``, ``"multi-gpu-sim x4"`` (sharded over 4 virtual
        devices), or ``"cached"`` (the stage was served whole from the
        artifact cache — the warm-sweep case the minimized-ensemble cache
        exists for).
        """
        out: Dict[str, str] = {}
        for name, pr in self.result.probe_results.items():
            if pr.minimize_cached:
                out[name] = "cached"
            elif pr.minimize_devices > 1:
                out[name] = f"{pr.minimize_backend} x{pr.minimize_devices}"
            else:
                out[name] = pr.minimize_backend or "-"
        return out

    @property
    def backend_summary(self) -> str:
        """Deduplicated run-level tag (most runs use one backend)."""
        seen: List[str] = []
        for tag in self.minimize_provenance.values():
            if tag not in seen:
                seen.append(tag)
        return ",".join(seen) if seen else "-"


@dataclass
class SweepReport:
    """All sweep points plus aggregate accounting."""

    runs: List[SweepRun]

    @property
    def total_time_s(self) -> float:
        return sum(r.wall_time_s for r in self.runs)

    @property
    def overall_hit_rate(self) -> float:
        hits = sum(r.cache_stats.hits for r in self.runs)
        lookups = sum(r.cache_stats.lookups for r in self.runs)
        return hits / lookups if lookups else 0.0

    def render(self) -> str:
        """ASCII table: run | wall | cache hits/lookups | rate | where ran."""
        title = (
            f"Parameter sweep — {len(self.runs)} runs, "
            f"{self.total_time_s:.2f} s total, "
            f"{self.overall_hit_rate:.0%} cache hit rate"
        )
        lines = [title, "-" * len(title)]
        header = (
            f"{'run':<40s} {'time':>10s} {'hits':>6s} {'lookups':>8s} "
            f"{'rate':>6s} {'minimize ran on':<20s}"
        )
        lines.append(header)
        lines.append("=" * len(header))
        for r in self.runs:
            lines.append(
                f"{r.label:<40.40s} {r.wall_time_s:>9.3f}s "
                f"{r.cache_stats.hits:>6d} {r.cache_stats.lookups:>8d} "
                f"{r.hit_rate:>6.0%} {r.backend_summary:<20.20s}"
            )
        return "\n".join(lines)


def sweep_grid(base: FTMapConfig, **axes: Sequence) -> List[FTMapConfig]:
    """Cartesian grid of config variants over the named axes.

    ``sweep_grid(base, cluster_radius=(3.0, 4.0), minimize_top=(4, 8))``
    yields 4 configs, last axis varying fastest.  Axis names must be
    :class:`FTMapConfig` fields; values pass through ``dataclasses.replace``
    so every variant re-validates at construction.
    """
    if not axes:
        return [base]
    known = {f.name for f in fields(FTMapConfig)}
    unknown = sorted(set(axes) - known)
    if unknown:
        raise ValueError(f"unknown FTMapConfig field(s) in sweep axes: {unknown}")
    names = list(axes)
    configs = []
    for combo in product(*(axes[n] for n in names)):
        configs.append(replace(base, **dict(zip(names, combo))))
    return configs


def _variant_label(config: FTMapConfig, base: FTMapConfig, index: int) -> str:
    """Human label from the fields where ``config`` differs from ``base``."""
    diffs = [
        f"{f.name}={getattr(config, f.name)}"
        for f in fields(FTMapConfig)
        if getattr(config, f.name) != getattr(base, f.name)
    ]
    return ", ".join(diffs) if diffs else f"run{index}"


def _execute_one(service, receptor, probes, config, label) -> SweepRun:
    mapped = service.map(receptor, config=config, probes=probes)
    stats = (
        mapped.cache_stats if mapped.cache_stats is not None else CacheStats()
    )
    return SweepRun(
        label=label,
        config=config,
        result=mapped.result,
        wall_time_s=mapped.wall_time_s,
        cache_stats=stats,
        config_dict=config.to_dict(),
    )


def run_sweep(
    receptor: Molecule,
    configs: Sequence[FTMapConfig],
    probes: Optional[Dict[str, Molecule]] = None,
    cache: Optional[CacheManager] = None,
    labels: Optional[Sequence[str]] = None,
) -> SweepReport:
    """Map ``receptor`` under every config, sharing one artifact cache.

    Parameters
    ----------
    receptor:
        The (fixed) protein all variants map.
    configs:
        The sweep points, e.g. from :func:`sweep_grid`.
    probes:
        Optional pre-built probe molecules shared by all runs.
    cache:
        Shared :class:`CacheManager`; defaults to the first config's
        manager (``configs[0].cache_manager()``), so setting
        ``cache_policy="memory"`` on the base config is enough.
    labels:
        Optional per-run labels; defaults to the fields where each variant
        differs from ``configs[0]``.

    Returns
    -------
    :class:`SweepReport` with per-run results, wall times and cache
    hit-rate deltas (run order matches ``configs``).
    """
    configs = list(configs)
    if not configs:
        raise ValueError("run_sweep needs at least one config")
    manager = cache if cache is not None else configs[0].cache_manager()
    if labels is None:
        labels = [
            _variant_label(cfg, configs[0], i) for i, cfg in enumerate(configs)
        ]
    elif len(labels) != len(configs):
        raise ValueError(f"{len(labels)} labels for {len(configs)} configs")
    # One session for the whole sweep: every variant is a request against
    # the same service, sharing its artifact cache.
    from repro.api.service import FTMapService

    service = FTMapService(cache=manager)
    runs = [
        _execute_one(service, receptor, probes, cfg, label)
        for label, cfg in zip(labels, configs)
    ]
    return SweepReport(runs=runs)
