#!/usr/bin/env python
"""Serving a request stream: the mapping system as a service.

This is the paper's end state in miniature — one resident receptor,
mapped against a stream of probe workloads through the session-scoped
:class:`repro.api.FTMapService`:

1. the receptor is **registered once** and addressed by content hash,
2. a stream of :class:`~repro.api.MapRequest` documents (JSON-shaped —
   exactly what a wire protocol would carry) is **submitted
   asynchronously**; each job reports per-stage progress events,
3. the session cache is memory-only, so each request maps its probes in
   its own job thread (forked workers would keep their memory-tier
   artifacts to themselves), and repeat workloads are served
   **mapped-or-cached** from the shared artifact cache — watch the hit
   rates climb as the stream progresses.

Run:  python examples/serve_requests.py
"""

from __future__ import annotations

import json

from repro import FTMapConfig, synthetic_protein
from repro.api import FTMapService, MapRequest
from repro.cache import CacheManager
from repro.obs.logging import RunLogger


def main() -> None:
    log = RunLogger()

    log.section("session: one service, one resident receptor")
    protein = synthetic_protein(n_residues=60, seed=3)
    base = dict(
        num_rotations=24,
        receptor_grid=40,
        grid_spacing=1.25,
        minimize_top=3,
        minimizer_iterations=8,
    )
    service = FTMapService(cache=CacheManager(policy="memory"), max_workers=2)
    receptor_id = service.register_receptor(protein)
    log.step(f"receptor registered: {receptor_id[:16]}… ({protein.n_atoms} atoms)")
    log.done()

    # A request stream: different probe panels against the same receptor,
    # ending with a repeat of the first request (a pure cache ride).
    panels = [
        ("ethanol", "acetone"),
        ("ethanol", "acetone", "urea", "acetonitrile"),
        ("benzene", "phenol"),
        ("ethanol", "acetone"),                      # repeat of request 1
    ]
    requests = [
        MapRequest(
            receptor=receptor_id,
            config=FTMapConfig(probe_names=names, **base),
            request_id=f"req-{i}",
        )
        for i, names in enumerate(panels, start=1)
    ]

    log.section("wire shape: requests serialize as plain JSON")
    wire = json.dumps(requests[0].to_dict(), indent=None)
    log.step(f"req-1 is {len(wire)} bytes of JSON (receptor by hash)")
    assert MapRequest.from_dict(json.loads(wire)) == requests[0]
    log.done()

    log.section("submit the stream, poll for results")
    with service:
        handles = [service.submit(req) for req in requests]
        results = [h.result(timeout=600) for h in handles]
        for handle, mapped in zip(handles, results):
            stages = [e.stage for e in handle.events()]
            stats = mapped.cache_stats
            log.step(
                f"{handle.job_id}: {handle.status():<9s} "
                f"{mapped.wall_time_s:6.2f}s  {mapped.streaming:<10s} "
                f"{len(mapped.sites)} site(s)  "
                f"cache {stats.hits}/{stats.lookups} hits "
                f"({stats.hit_rate:.0%})  [{len(stages)} events]"
            )
    log.done("stream served")

    first, repeat = results[0], results[-1]
    log.section("mapped-or-cached: the repeat request rode the cache")
    log.step(
        f"req-1 cold: {first.wall_time_s:.2f}s at "
        f"{first.cache_stats.hit_rate:.0%} hit rate; "
        f"req-{len(results)} warm: {repeat.wall_time_s:.2f}s at "
        f"{repeat.cache_stats.hit_rate:.0%}"
    )
    top = repeat.top_site
    if top is not None:
        import numpy as np

        log.step(
            f"top consensus site: {top.probe_count} probes at "
            f"{np.round(np.asarray(top.center), 1).tolist()}"
        )
    log.done()


if __name__ == "__main__":
    main()
