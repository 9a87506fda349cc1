"""End-to-end HTTP gateway tests against a real in-process server.

A module-scoped :class:`GatewayServer` wraps a real
:class:`FTMapService` (cache policy ``"off"`` so every mapping is a cold
deterministic run) and every test talks to it over actual TCP via the
stdlib :class:`GatewayClient` — the same transport external callers use.

The headline assertion is *bitwise identity*: a mapping requested over
HTTP must reproduce ``FTMapService.map()`` float-for-float, because the
wire is JSON and Python floats round-trip exactly through ``repr``.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import FTMapService, MapRequest
from repro.api.errors import (
    AuthenticationError,
    InvalidRequestError,
    JobNotFoundError,
    QuotaExceededError,
    SchemaVersionError,
    UnknownReceptorError,
)
from repro.cache.manager import CacheManager
from repro.gateway import (
    GatewayClient,
    GatewayServer,
    TenantSpec,
    molecule_from_wire,
    molecule_to_wire,
)
from repro.mapping.ftmap import FTMapConfig
from repro.structure import synthetic_protein

TINY = FTMapConfig(
    probe_names=("ethanol",),
    num_rotations=4,
    receptor_grid=24,
    minimize_top=2,
    minimizer_iterations=2,
    engine="fft",
)

TENANTS = [
    TenantSpec("acme", api_key="acme-key", rate=1000.0, burst=1000,
               max_in_flight=50, priority=0),
    TenantSpec("beta", api_key="beta-key", rate=1000.0, burst=1000,
               max_in_flight=50, priority=10),
    # One request, then an effectively-never refill: the 429 tenant.
    TenantSpec("drip", api_key="drip-key", rate=1e-6, burst=1,
               max_in_flight=50),
]


@pytest.fixture(scope="module")
def protein():
    return synthetic_protein(n_residues=30, seed=3)


@pytest.fixture(scope="module")
def gateway(protein):
    service = FTMapService(cache=CacheManager(policy="off"), max_workers=2)
    with GatewayServer(service, TENANTS, owns_service=True) as gw:
        yield gw


@pytest.fixture(scope="module")
def acme(gateway):
    return GatewayClient(gateway.url, api_key="acme-key")


@pytest.fixture(scope="module")
def beta(gateway):
    return GatewayClient(gateway.url, api_key="beta-key")


@pytest.fixture(scope="module")
def receptor_hash(acme, protein):
    return acme.register_receptor(protein)


def mapping_json(result_doc):
    """The deterministic slice of a result document, as canonical JSON.

    ``probes`` + ``sites`` carry every float the mapping produced;
    ``wall_time_s`` / ``cache_stats`` are measurement, not mapping.
    """
    inner = result_doc["result"]
    return json.dumps(
        {"probes": inner["probes"], "sites": inner["sites"]}, sort_keys=True
    )


class TestWireCodec:
    def test_molecule_round_trip_preserves_fingerprint(self, protein):
        doc = molecule_to_wire(protein)
        rebuilt, fingerprint = molecule_from_wire(doc)
        assert fingerprint == doc["fingerprint"]
        assert rebuilt.n_atoms == protein.n_atoms
        # Same fingerprint means the service would treat them as the
        # same receptor — coordinates survived JSON exactly.
        assert json.loads(json.dumps(doc)) == doc

    def test_tampered_payload_rejected(self, protein):
        doc = molecule_to_wire(protein)
        doc["coords"][0][0] += 1.0
        with pytest.raises(InvalidRequestError, match="fingerprint"):
            molecule_from_wire(doc)


class TestRoundTrip:
    def test_healthz_is_unauthenticated(self, gateway):
        anonymous = GatewayClient(gateway.url)
        doc = anonymous.healthz()
        assert doc["status"] == "ok"

    def test_http_result_bitwise_identical_to_direct_map(
        self, gateway, acme, receptor_hash, protein
    ):
        direct = gateway.service.map(protein, config=TINY)
        over_http = acme.map_remote(
            MapRequest(receptor=receptor_hash, config=TINY), timeout_s=600
        )
        assert over_http["receptor_hash"] == direct.receptor_hash
        assert mapping_json(over_http) == mapping_json(direct.to_dict())
        # The floats really did cross the wire: a site center is a list
        # of full-precision floats, not strings.
        site = over_http["result"]["sites"][0]
        assert all(isinstance(x, float) for x in site["center"])

    def test_status_then_result_then_events_replay(
        self, acme, receptor_hash
    ):
        job_id = acme.submit(MapRequest(receptor=receptor_hash, config=TINY))
        doc = acme.status(job_id)
        assert doc["job_id"] == job_id
        assert doc["tenant"] == "acme"
        acme.result(job_id, timeout_s=600)
        # Events stream replays a finished job's history, then closes.
        events = list(acme.events(job_id))
        names = [name for name, _ in events]
        stages = [p["stage"] for name, p in events if name == "progress"]
        assert names[-1] == "status"
        assert events[-1][1]["status"] == "done"
        assert "dock" in stages and "consensus" in stages
        assert all(
            payload["job_id"] == job_id for name, payload in events
            if name == "progress"
        )

    def test_cancel_queued_job_over_http(self, protein):
        # A dedicated single-slot gateway makes "queued" deterministic.
        service = FTMapService(cache=CacheManager(policy="off"), max_workers=1)
        tenants = [TenantSpec("solo", api_key="solo-key", rate=1000.0,
                              burst=1000, max_in_flight=50)]
        with GatewayServer(
            service, tenants, max_concurrent=1, owns_service=True
        ) as gw:
            client = GatewayClient(gw.url, api_key="solo-key")
            receptor = client.register_receptor(protein)
            request = MapRequest(receptor=receptor, config=TINY)
            first = client.submit(request)
            second = client.submit(request)  # waits behind `first`
            doc = client.cancel(second)
            assert doc["cancelled"] is True
            assert client.status(second)["status"] == "cancelled"
            client.result(first, timeout_s=600)  # unaffected

    def test_stats_shape(self, acme):
        stats = acme.stats()
        assert set(stats["tenants"]) == {"acme", "beta", "drip"}
        assert stats["max_concurrent"] == 2
        assert "hit_rate" in stats["cache"]


class TestProcessStreamingOverHTTP:
    """The tentpole acceptance: process workers behind the gateway."""

    MULTI = FTMapConfig(
        probe_names=("ethanol", "acetone"),
        num_rotations=4,
        receptor_grid=24,
        minimize_top=2,
        minimizer_iterations=2,
        engine="fft",
    )

    def test_process_streaming_bitwise_identical_over_tcp(
        self, gateway, acme, receptor_hash
    ):
        sequential = acme.map_remote(
            MapRequest(
                receptor=receptor_hash, config=self.MULTI,
                streaming="sequential",
            ),
            timeout_s=600,
        )
        process = acme.map_remote(
            MapRequest(
                receptor=receptor_hash, config=self.MULTI,
                streaming="process",
            ),
            timeout_s=600,
        )
        assert process["streaming"] == "process"
        assert sequential["streaming"] == "sequential"
        assert mapping_json(process) == mapping_json(sequential)

    def test_stats_reports_workers_section(self, acme):
        stats = acme.stats()
        workers = stats["workers"]
        assert set(workers) == {
            "pools", "pool_size", "busy", "shm_bytes_in_use",
            "stage_tasks_total",
        }
        # Idle between requests: every pool closed, every segment gone.
        assert workers["pools"] == 0
        assert workers["shm_bytes_in_use"] == 0

    def test_metrics_expose_worker_and_singleflight_series(
        self, gateway, acme, receptor_hash
    ):
        acme.map_remote(
            MapRequest(
                receptor=receptor_hash, config=self.MULTI,
                streaming="process",
            ),
            timeout_s=600,
        )
        text = acme.metrics()
        for name in (
            "repro_worker_pool_size",
            "repro_worker_busy",
            "repro_cache_singleflight_waits_total",
        ):
            assert name in text, name


class TestRejections:
    def test_missing_and_wrong_api_key(self, gateway):
        with pytest.raises(AuthenticationError):
            GatewayClient(gateway.url).stats()
        with pytest.raises(AuthenticationError):
            GatewayClient(gateway.url, api_key="intruder").stats()

    def test_unknown_receptor_fails_fast(self, acme):
        with pytest.raises(UnknownReceptorError, match="deadbeef"):
            acme.submit(MapRequest(receptor="deadbeef", config=TINY))

    def test_future_schema_version_rejected(self, acme, receptor_hash):
        body = MapRequest(receptor=receptor_hash, config=TINY).to_dict()
        body["schema_version"] = 99
        with pytest.raises(SchemaVersionError):
            acme.submit(body)

    @pytest.mark.parametrize("field", ["engine", "minimize_engine"])
    def test_gpu_sim_engine_rejected(self, acme, receptor_hash, field):
        body = MapRequest(receptor=receptor_hash, config=TINY).to_dict()
        body["config"][field] = "gpu-sim"
        with pytest.raises(InvalidRequestError, match="gpu-sim"):
            acme.submit(body)

    def test_malformed_json_is_400(self, gateway):
        request = urllib.request.Request(
            gateway.url + "/v1/jobs",
            data=b"{definitely not json",
            method="POST",
            headers={"Authorization": "Bearer acme-key",
                     "Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body["error"]["code"] == "invalid_request"

    def test_unknown_route_and_wrong_method(self, gateway):
        for method, path, expected in [
            ("GET", "/v1/nonsense", 404),
            ("PUT", "/v1/receptors", 405),
            ("DELETE", "/v1/stats", 405),
        ]:
            request = urllib.request.Request(
                gateway.url + path, method=method,
                headers={"Authorization": "Bearer acme-key"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == expected

    def test_job_ids_do_not_leak_across_tenants(
        self, acme, beta, receptor_hash
    ):
        job_id = acme.submit(MapRequest(receptor=receptor_hash, config=TINY))
        with pytest.raises(JobNotFoundError):
            beta.status(job_id)
        with pytest.raises(JobNotFoundError):
            beta.cancel(job_id)
        acme.result(job_id, timeout_s=600)  # the owner still can

    def test_rate_quota_returns_429_with_retry_after(
        self, gateway, receptor_hash
    ):
        drip = GatewayClient(gateway.url, api_key="drip-key")
        request = MapRequest(receptor=receptor_hash, config=TINY)
        job_id = drip.submit(request)  # consumes the single burst token
        with pytest.raises(QuotaExceededError) as excinfo:
            drip.submit(request)
        assert excinfo.value.retry_after_s > 0
        drip.result(job_id, timeout_s=600)


class TestConcurrentTraffic:
    """The satellite: N threads x M tenants against one server."""

    def test_hammering_preserves_identity_and_attribution(self, protein):
        service = FTMapService(cache=CacheManager(policy="off"), max_workers=2)
        baseline = service.map(protein, config=TINY)
        baseline_json = mapping_json(baseline.to_dict())
        tenants = [
            TenantSpec(f"t{i}", api_key=f"t{i}-key", rate=1000.0,
                       burst=1000, max_in_flight=2)
            for i in range(3)
        ]
        per_tenant_jobs = 3
        with GatewayServer(
            service, tenants, max_queue_depth=64, owns_service=True
        ) as gw:
            results: dict = {}
            errors: list = []

            def worker(name: str) -> None:
                client = GatewayClient(gw.url, api_key=f"{name}-key")
                receptor = client.register_receptor(protein)
                request = MapRequest(receptor=receptor, config=TINY)
                docs = []
                try:
                    for _ in range(per_tenant_jobs):
                        # max_in_flight=2 with 3 sequentially-waited jobs
                        # can shed under cross-tenant load; retrying on
                        # the server's Retry-After is the contract.
                        job_id = client.submit(request, max_retries=50)
                        docs.append(client.result(job_id, timeout_s=600))
                    results[name] = docs
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append((name, exc))

            threads = [
                threading.Thread(target=worker, args=(spec.name,))
                for spec in tenants
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600)
            assert not errors, errors

            # Every result from every tenant is bitwise the baseline.
            for name, docs in results.items():
                assert len(docs) == per_tenant_jobs
                for doc in docs:
                    assert mapping_json(doc) == baseline_json, name

            # Per-tenant attribution: each tenant's completions are its
            # own, and accepted + shed == submitted for everyone.
            stats = GatewayClient(gw.url, api_key="t0-key").stats()
            for spec in tenants:
                counters = stats["tenants"][spec.name]
                assert counters["completed"] == per_tenant_jobs
                assert counters["accepted"] == per_tenant_jobs
                assert (
                    counters["submitted"]
                    == counters["accepted"] + counters["shed"]
                )
                assert counters["queued"] == 0
                assert counters["running"] == 0

    def test_overload_sheds_with_429_not_stalls(self, protein):
        """A queue-bounded gateway under a submit burst must shed."""
        service = FTMapService(cache=CacheManager(policy="off"), max_workers=1)
        tenants = [TenantSpec("flood", api_key="flood-key", rate=1000.0,
                              burst=1000, max_in_flight=100)]
        with GatewayServer(
            service, tenants, max_queue_depth=2, max_concurrent=1,
            owns_service=True,
        ) as gw:
            client = GatewayClient(gw.url, api_key="flood-key")
            receptor = client.register_receptor(protein)
            request = MapRequest(receptor=receptor, config=TINY)
            accepted, shed = [], 0
            for _ in range(8):
                try:
                    accepted.append(client.submit(request))
                except QuotaExceededError as exc:
                    assert exc.retry_after_s > 0
                    shed += 1
            assert shed >= 1  # the burst overran queue(2) + slot(1)
            assert len(accepted) >= 3
            for job_id in accepted:
                client.result(job_id, timeout_s=600)
            stats = client.stats()
            assert stats["tenants"]["flood"]["shed_queue"] == shed
            assert stats["tenants"]["flood"]["completed"] == len(accepted)
