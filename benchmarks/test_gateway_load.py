"""Gateway load benchmark + serving gates (the HTTP gateway PR's artifact).

Concurrent clients hammer an in-process :class:`repro.gateway.GatewayServer`
over real TCP and we measure end-to-end request latency (submit → result
document) for cold and cache-warm mappings, plus how the gateway behaves
past saturation.  Two hard assertions:

* **warm serving overhead bounded** — the p50 latency of a cache-warm
  mapping served over HTTP must stay within ``MAX_WARM_OVERHEAD_X`` of
  the same warm mapping called directly on the service.  The gateway adds
  JSON (de)serialization, two HTTP round trips and a poll interval — a
  fixed cost that must never balloon into a multiple of the mapping
  itself beyond this bound,
* **overload sheds, it does not stall** — against a queue-bounded
  gateway, a submit burst past capacity must produce HTTP 429 sheds
  carrying ``Retry-After`` (never unbounded queueing), every *shed*
  decision must come back fast (p99 below ``MAX_SHED_LATENCY_S`` —
  rejection is cheap), and every *accepted* job must still complete.

The printed table reports p50/p99/throughput for the warm/cold mixes;
the paper column is n/a — the paper predates the serving layer, these
are ours-only operational numbers.
"""

from __future__ import annotations

import threading
import time

from repro.api import FTMapService, MapRequest
from repro.api.errors import QuotaExceededError
from repro.cache import CacheManager, reset_cache_registry
from repro.gateway import GatewayClient, GatewayServer, TenantSpec
from repro.mapping.ftmap import FTMapConfig
from repro.perf.tables import ComparisonRow
from repro.structure import synthetic_protein

#: Warm-mix HTTP p50 must stay within this multiple of the direct
#: (in-process) warm mapping latency.  The gateway's fixed cost — JSON,
#: TCP, the client's result poll interval — dominates at warm speed, so
#: this is deliberately a loose operational bound, not a micro-benchmark.
MAX_WARM_OVERHEAD_X = 25.0

#: A shed (429) decision is a constant-time bucket/queue check; even
#: under a concurrent burst its p99 must stay far below mapping time.
MAX_SHED_LATENCY_S = 1.0

CONFIG = dict(
    num_rotations=16,
    receptor_grid=32,
    grid_spacing=1.25,
    minimize_top=2,
    minimizer_iterations=3,
)


def _percentile(samples, q):
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def _warm_config():
    return FTMapConfig(probe_names=("ethanol",), **CONFIG)


def _cold_config(i):
    # A unique rotation count per request defeats every cache tier.
    return FTMapConfig(
        probe_names=("ethanol",), **{**CONFIG, "num_rotations": 17 + i}
    )


def test_gateway_warm_cold_latency(print_comparison):
    reset_cache_registry()
    protein = synthetic_protein(n_residues=40, seed=3)
    service = FTMapService(cache=CacheManager(policy="memory"), max_workers=2)

    # Direct in-process baseline: prime the cache, then time warm maps.
    service.map(protein, config=_warm_config())
    direct = []
    for _ in range(3):
        t0 = time.perf_counter()
        service.map(protein, config=_warm_config())
        direct.append(time.perf_counter() - t0)
    direct_warm_p50 = _percentile(direct, 0.5)

    tenants = [
        TenantSpec(f"t{i}", api_key=f"t{i}-key", rate=1000.0, burst=1000,
                   max_in_flight=50)
        for i in range(2)
    ]
    n_warm_per_client = 6
    n_cold_per_client = 2
    warm_lat, cold_lat = [], []
    lock = threading.Lock()
    errors = []

    with GatewayServer(
        service, tenants, max_queue_depth=64, owns_service=True
    ) as gw:
        def client_thread(name, offset):
            client = GatewayClient(gw.url, api_key=f"{name}-key")
            receptor = client.register_receptor(protein)
            mine_warm, mine_cold = [], []
            try:
                for _ in range(n_warm_per_client):
                    t0 = time.perf_counter()
                    job = client.submit(
                        MapRequest(receptor=receptor, config=_warm_config()),
                        max_retries=50,
                    )
                    client.result(job, timeout_s=600, poll_interval_s=0.005)
                    mine_warm.append(time.perf_counter() - t0)
                for i in range(n_cold_per_client):
                    t0 = time.perf_counter()
                    job = client.submit(
                        MapRequest(
                            receptor=receptor,
                            config=_cold_config(offset * n_cold_per_client + i),
                        ),
                        max_retries=50,
                    )
                    client.result(job, timeout_s=600, poll_interval_s=0.005)
                    mine_cold.append(time.perf_counter() - t0)
            except Exception as exc:  # pragma: no cover - diagnostics
                with lock:
                    errors.append((name, exc))
                return
            with lock:
                warm_lat.extend(mine_warm)
                cold_lat.extend(mine_cold)

        t_start = time.perf_counter()
        threads = [
            threading.Thread(target=client_thread, args=(spec.name, k))
            for k, spec in enumerate(tenants)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        elapsed = time.perf_counter() - t_start
        assert not errors, errors

        stats = GatewayClient(gw.url, api_key="t0-key").stats()
        total_jobs = sum(
            c["completed"] for c in stats["tenants"].values()
        )

    warm_p50 = _percentile(warm_lat, 0.5)
    warm_p99 = _percentile(warm_lat, 0.99)
    cold_p50 = _percentile(cold_lat, 0.5)
    cold_p99 = _percentile(cold_lat, 0.99)
    throughput = total_jobs / elapsed

    print_comparison(
        "gateway serving latency (2 tenants, warm/cold mix over HTTP)",
        [
            ComparisonRow("direct warm map p50", None, direct_warm_p50, "s"),
            ComparisonRow("HTTP warm p50", None, warm_p50, "s"),
            ComparisonRow("HTTP warm p99", None, warm_p99, "s"),
            ComparisonRow("HTTP cold p50", None, cold_p50, "s"),
            ComparisonRow("HTTP cold p99", None, cold_p99, "s"),
            ComparisonRow("served throughput", None, throughput, " jobs/s"),
            ComparisonRow(
                "warm overhead (HTTP/direct)", None, warm_p50 / direct_warm_p50
            ),
        ],
    )

    assert total_jobs == 2 * (n_warm_per_client + n_cold_per_client)
    # THE GATE: warm serving overhead is bounded.
    assert warm_p50 <= MAX_WARM_OVERHEAD_X * direct_warm_p50, (
        f"warm HTTP p50 {warm_p50:.3f}s exceeds "
        f"{MAX_WARM_OVERHEAD_X:g}x the direct warm map "
        f"({direct_warm_p50:.3f}s)"
    )


def test_gateway_overload_sheds_fast(print_comparison):
    reset_cache_registry()
    protein = synthetic_protein(n_residues=40, seed=3)
    service = FTMapService(cache=CacheManager(policy="memory"), max_workers=1)
    tenants = [
        TenantSpec("flood", api_key="flood-key", rate=1000.0, burst=1000,
                   max_in_flight=100)
    ]
    burst = 10
    n_threads = 4
    accepted, shed_lat = [], []
    lock = threading.Lock()

    with GatewayServer(
        service, tenants, max_queue_depth=2, max_concurrent=1,
        owns_service=True,
    ) as gw:
        client = GatewayClient(gw.url, api_key="flood-key")
        receptor = client.register_receptor(protein)
        request = MapRequest(receptor=receptor, config=_warm_config())

        def flood():
            mine_accepted, mine_shed = [], []
            for _ in range(burst):
                t0 = time.perf_counter()
                try:
                    mine_accepted.append(client.submit(request))
                except QuotaExceededError as exc:
                    assert exc.retry_after_s > 0
                    mine_shed.append(time.perf_counter() - t0)
            with lock:
                accepted.extend(mine_accepted)
                shed_lat.extend(mine_shed)

        threads = [threading.Thread(target=flood) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)

        for job_id in accepted:
            client.result(job_id, timeout_s=600)
        stats = GatewayClient(gw.url, api_key="flood-key").stats()
        counters = stats["tenants"]["flood"]

    shed_p99 = _percentile(shed_lat, 0.99) if shed_lat else 0.0
    print_comparison(
        "gateway overload (burst of 40 at queue depth 2, 1 worker)",
        [
            ComparisonRow("submits", None, float(n_threads * burst)),
            ComparisonRow("accepted", None, float(len(accepted))),
            ComparisonRow("shed (429)", None, float(len(shed_lat))),
            ComparisonRow("shed decision p99", None, shed_p99, "s"),
        ],
    )

    # THE GATE: overload sheds with 429 + Retry-After instead of queueing
    # unboundedly, sheds are fast, and accepted work still completes.
    assert len(shed_lat) >= 1, "burst past capacity produced no 429 sheds"
    assert len(accepted) >= 3
    assert counters["completed"] == len(accepted)
    assert counters["shed_queue"] == len(shed_lat)
    assert counters["submitted"] == n_threads * burst
    assert shed_p99 <= MAX_SHED_LATENCY_S, (
        f"shed p99 {shed_p99:.3f}s — rejection must be cheap, not a stall"
    )
