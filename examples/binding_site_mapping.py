#!/usr/bin/env python
"""Binding-site mapping: the paper's application, end to end.

Docks a panel of small-molecule probes against a protein, minimizes the top
conformations of each, clusters the refined poses per probe, and reports
consensus sites — regions that bind many *different* probes, i.e. the
predicted druggable hotspots.

The synthetic protein has a pocket carved near its +x surface and (like a
real protein) a few other crevices; a correct run puts its consensus sites
in high-burial concavities, which we validate against the burial map.

Run:  python examples/binding_site_mapping.py
"""

from __future__ import annotations

import numpy as np

from repro import FTMapConfig, FTMapService, mapping_report, synthetic_protein
from repro.mapping.hotspot import burial_map, site_concavity
from repro.structure.builder import pocket_center
from repro.obs.logging import RunLogger


def main() -> None:
    log = RunLogger()

    log.section("setup")
    protein = synthetic_protein(n_residues=120, seed=3)
    config = FTMapConfig(
        probe_names=("ethanol", "acetone", "urea", "acetonitrile"),
        num_rotations=12,
        receptor_grid=48,
        grid_spacing=1.25,
        minimize_top=6,
        minimizer_iterations=40,
    )
    log.step(
        f"protein: {protein.n_atoms} atoms; probes: {', '.join(config.probe_names)}"
    )
    log.done()

    log.section("map (one request through the service front door)")
    # On a multi-CPU host the probes map side by side on worker
    # processes, one whole probe per task.
    with FTMapService(config=config) as service:
        mapped = service.map(protein, config)
    result = mapped.result
    log.done(
        f"mapping complete ({mapped.wall_time_s:.2f}s, {mapped.streaming})"
    )

    print()
    print(mapping_report(result))

    log.section("validate: consensus sites sit in concave crevices")
    top = result.top_site
    if top is None:
        log.step("no consensus site found")
        return
    bmap = burial_map(protein)
    threshold = bmap.percentile(60)
    for rank, site in enumerate(result.sites[:3], start=1):
        burial = bmap.value_at(np.asarray(site.center))
        ok = site_concavity(bmap, np.asarray(site.center))
        log.step(
            f"site #{rank}: burial {burial:.0f} "
            f"(60th percentile of surface burial: {threshold:.0f}) — "
            f"{'concave OK' if ok else 'NOT concave'}"
        )
    designed = pocket_center(protein)
    dist = float(np.linalg.norm(np.asarray(top.center) - designed))
    log.step(
        f"designed pocket at {np.round(designed, 1).tolist()}; top site at "
        f"{np.round(np.asarray(top.center), 1).tolist()} ({dist:.1f} A apart; "
        f"the protein has several competing crevices)"
    )
    log.done()


if __name__ == "__main__":
    main()
