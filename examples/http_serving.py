#!/usr/bin/env python
"""Serving mappings over HTTP: the gateway end-to-end, in one process.

``examples/serve_requests.py`` showed the in-process service; this one
puts the wire in the middle.  A :class:`repro.gateway.GatewayServer`
(stdlib ``ThreadingHTTPServer``, JSON bodies) fronts the same
:class:`~repro.api.FTMapService`, and two *tenants* talk to it through
the stdlib :class:`~repro.gateway.GatewayClient`:

1. receptors are **uploaded once** (``POST /v1/receptors``) and from
   then on addressed by content hash,
2. jobs are **submitted** (``POST /v1/jobs``), **watched live** over
   Server-Sent Events (``GET /v1/jobs/{id}/events``), and **fetched**
   (``GET /v1/jobs/{id}/result``) — float-for-float identical to a
   direct ``service.map()`` call,
3. a deliberately tiny quota shows **admission control**: the gateway
   sheds the over-limit request with HTTP 429 + ``Retry-After`` instead
   of queueing it, and ``GET /v1/stats`` attributes every accepted and
   shed request to the tenant that caused it.

Run:  python examples/http_serving.py
"""

from __future__ import annotations

import json

from repro import FTMapConfig, synthetic_protein
from repro.api import FTMapService, MapRequest
from repro.api.errors import QuotaExceededError
from repro.cache import CacheManager
from repro.gateway import GatewayClient, GatewayServer, TenantSpec
from repro.obs.logging import RunLogger


def main() -> None:
    log = RunLogger()

    config = FTMapConfig(
        probe_names=("ethanol", "acetone"),
        num_rotations=12,
        receptor_grid=32,
        minimize_top=3,
        minimizer_iterations=6,
    )
    protein = synthetic_protein(n_residues=40, seed=3)

    log.section("gateway up: one service, two tenants, real TCP")
    service = FTMapService(cache=CacheManager(policy="memory"), max_workers=2)
    tenants = [
        TenantSpec("acme", api_key="acme-key", rate=100.0, burst=100),
        # 'capped' gets exactly 2 requests before the bucket runs dry.
        TenantSpec("capped", api_key="capped-key", rate=0.05, burst=2),
    ]
    with GatewayServer(service, tenants, owns_service=True) as gw:
        log.step(f"listening on {gw.url} (tenants: acme, capped)")
        acme = GatewayClient(gw.url, api_key="acme-key")
        log.step(f"healthz: {json.dumps(acme.healthz())}")
        log.done()

        log.section("upload once, map by hash")
        receptor = acme.register_receptor(protein)
        log.step(f"receptor uploaded: {receptor[:16]}… ({protein.n_atoms} atoms)")
        request = MapRequest(receptor=receptor, config=config)
        wire = json.dumps(request.to_dict())
        log.step(f"a job submission is {len(wire)} bytes of JSON")
        log.done()

        log.section("submit + watch live over SSE")
        job_id = acme.submit(request)
        for event, payload in acme.events(job_id):
            if event == "progress":
                probe = payload["probe"] or "(all probes)"
                log.step(f"{payload['stage']:<10s} {probe}")
            else:
                log.step(f"terminal: {payload['status']}")
        over_http = acme.result(job_id, timeout_s=600)
        log.done(f"{len(over_http['result']['sites'])} consensus site(s)")

        log.section("the wire is exact: HTTP result == direct map")
        direct = service.map(protein, config=config)
        wire_sites = over_http["result"]["sites"]
        direct_sites = [site.to_dict() for site in direct.sites]
        identical = json.dumps(wire_sites, sort_keys=True) == json.dumps(
            direct_sites, sort_keys=True
        )
        log.step(f"sites bitwise identical over HTTP: {identical}")
        assert identical
        log.done()

        log.section("admission control: the quota tenant gets shed")
        capped = GatewayClient(gw.url, api_key="capped-key")
        accepted = [capped.submit(request) for _ in range(2)]
        log.step(f"capped: 2 accepted ({', '.join(accepted)})")
        try:
            capped.submit(request)
        except QuotaExceededError as exc:
            log.step(
                f"3rd submit shed: HTTP 429, retry after {exc.retry_after_s:.1f}s"
            )
        for job in accepted:
            capped.result(job, timeout_s=600)
        log.done()

        log.section("per-tenant accounting (GET /v1/stats)")
        stats = acme.stats()
        for name, counters in stats["tenants"].items():
            log.step(
                f"{name:<8s} submitted={counters['submitted']} "
                f"accepted={counters['accepted']} shed={counters['shed']} "
                f"completed={counters['completed']}"
            )
        cache = stats["cache"]
        log.step(f"shared cache hit rate: {cache['hit_rate']:.0%}")
        log.done("gateway down")


if __name__ == "__main__":
    main()
