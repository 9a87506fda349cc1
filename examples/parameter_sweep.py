#!/usr/bin/env python
"""Parameter sweeps over one receptor with the artifact cache.

Protocol tuning is a repeat-mapping workload: the same receptor is mapped
under many :class:`FTMapConfig` variants to see how sensitive the
consensus sites are to clustering radii, minimization depth, rotation
counts, and so on.  Without caching every variant pays the full pipeline;
with the content-addressed cache (:mod:`repro.cache`) the variants share
receptor grids and — for post-docking parameter changes — whole
per-probe dock results.

This example runs the same sweep twice:

1. **cold** — cache policy ``off``: every variant recomputes everything,
2. **warm** — one shared in-memory cache: the first variant fills it and
   the rest ride on hits,

then prints both sweep reports (per-run wall time + cache hit rate) and
the wall-clock ratio.

Run:  python examples/parameter_sweep.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import FTMapConfig, synthetic_protein
from repro.cache import reset_cache_registry
from repro.mapping.sweep import run_sweep, sweep_grid
from repro.obs.logging import RunLogger


def main() -> None:
    log = RunLogger()

    log.section("setup")
    protein = synthetic_protein(n_residues=60, seed=3)
    base = FTMapConfig(
        probe_names=("ethanol", "acetone"),
        num_rotations=24,
        receptor_grid=40,
        grid_spacing=1.25,
        minimize_top=3,
        minimizer_iterations=8,
        cache_policy="memory",
    )
    axes = dict(cluster_radius=(3.0, 4.0, 5.0), minimize_top=(3, 6))
    configs = sweep_grid(base, **axes)
    log.step(
        f"protein: {protein.n_atoms} atoms; sweep: "
        + " x ".join(f"{k}({len(v)})" for k, v in axes.items())
        + f" = {len(configs)} runs"
    )
    log.done()

    log.section("cold sweep (cache off)")
    cold_configs = sweep_grid(replace(base, cache_policy="off"), **axes)
    cold = run_sweep(protein, cold_configs)
    log.done(f"{cold.total_time_s:.2f} s total")
    print()
    print(cold.render())

    log.section("warm sweep (shared memory cache)")
    reset_cache_registry()   # start from an empty cache, fairly
    warm = run_sweep(protein, configs)
    log.done(f"{warm.total_time_s:.2f} s total")
    print()
    print(warm.render())

    print()
    ratio = cold.total_time_s / warm.total_time_s
    print(
        f"sweep speedup from artifact sharing: {ratio:.1f}x "
        f"(overall hit rate {warm.overall_hit_rate:.0%}; every variant after "
        "the first reuses the receptor grids and dock results)"
    )

    # The top consensus site is stable across the cluster-radius variants
    # here — exactly the kind of question a sweep answers cheaply.
    top_centers = {
        run.label: tuple(round(float(c), 1) for c in run.result.top_site.center)
        for run in warm.runs
        if run.result.top_site is not None
    }
    print()
    print("top consensus site per variant:")
    for label, center in top_centers.items():
        print(f"  {label:<40s} {center}")

    # Every sweep point records its serialized config — the exact JSON a
    # job log or wire protocol would carry to replay that variant.
    import json

    best = min(warm.runs, key=lambda run: run.wall_time_s)
    wire = json.dumps(best.config_dict)
    print()
    print(
        f"replayable config of the fastest run ({best.label!r}): "
        f"{len(wire)} bytes of JSON"
    )


if __name__ == "__main__":
    main()
