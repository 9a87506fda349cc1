"""Observability end to end: traced mappings, /v1/metrics, correlated SSE.

Service-level tests assert the trace contract (opt-in, complete span
tree, numerics untouched); gateway tests run a real HTTP server and
check the full story — ingress/queue spans stitched onto the service
trace, progress events carrying correlation ids, a Prometheus-parseable
``/v1/metrics``, and percentile deltas in ``/v1/stats``.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.api import FTMapService, MapRequest
from repro.cache.manager import CacheManager
from repro.gateway import GatewayClient, GatewayServer, TenantSpec
from repro.mapping.ftmap import FTMapConfig
from repro.obs.trace import chrome_trace, check_trace, stage_durations
from repro.structure import synthetic_protein

TINY = FTMapConfig(
    probe_names=("ethanol",),
    num_rotations=4,
    receptor_grid=24,
    minimize_top=2,
    minimizer_iterations=2,
)

TRACED = FTMapConfig(
    probe_names=("ethanol",),
    num_rotations=4,
    receptor_grid=24,
    minimize_top=2,
    minimizer_iterations=2,
    tracing=True,
)


@pytest.fixture(scope="module")
def protein():
    return synthetic_protein(n_residues=30, seed=3)


class TestServiceTracing:
    def test_tracing_off_by_default(self, protein):
        with FTMapService(cache=CacheManager(policy="off")) as service:
            result = service.map(protein, config=TINY)
        assert result.trace is None
        assert "trace" in result.to_dict()  # the field exists, null

    def test_config_opt_in_yields_complete_trace(self, protein):
        with FTMapService(cache=CacheManager(policy="off")) as service:
            result = service.map(protein, config=TRACED)
        trace = check_trace(result.trace)
        names = [s["name"] for s in trace["spans"]]
        for expected in ("map", "dock", "minimize", "cluster", "consensus"):
            assert expected in names, f"missing span {expected!r}: {names}"
        by_name = {s["name"]: s for s in trace["spans"]}
        root = by_name["map"]
        assert root["parent_id"] == ""
        # Every stage hangs off the root even across pipeline threads.
        for stage in ("dock", "minimize", "cluster", "consensus"):
            assert by_name[stage]["parent_id"] == root["span_id"]
        # Backend decisions land as attributes where the decision is made.
        assert by_name["dock"]["attributes"]["cache"] in ("miss", "off")
        assert by_name["dock"]["attributes"]["backend"]
        assert by_name["minimize"]["attributes"]["backend"]
        # The document is JSON- and chrome-exportable.
        json.dumps(trace)
        chrome = chrome_trace(trace)
        assert any(e["name"] == "map" for e in chrome["traceEvents"])
        totals = stage_durations(trace)
        assert totals["map"] >= totals["consensus"]

    def test_multi_device_minimize_records_shard_spans(self, protein):
        cfg = FTMapConfig(
            probe_names=("ethanol",),
            num_rotations=4,
            receptor_grid=24,
            minimize_top=4,
            minimizer_iterations=2,
            minimize_engine="multi-gpu-sim",
            minimize_devices=2,
            tracing=True,
        )
        with FTMapService(cache=CacheManager(policy="off")) as service:
            result = service.map(protein, config=cfg)
        trace = check_trace(result.trace)
        shards = [s for s in trace["spans"] if s["name"] == "minimize-shard"]
        assert len(shards) == 2
        minimize = next(s for s in trace["spans"] if s["name"] == "minimize")
        assert minimize["attributes"]["devices"] == 2
        # Each shard parents onto the minimize stage and sits on its own
        # per-device timeline row.
        assert {s["parent_id"] for s in shards} == {minimize["span_id"]}
        assert {s["thread"] for s in shards} == {
            "minimize-device-0", "minimize-device-1",
        }
        assert all(s["duration_s"] > 0.0 for s in shards)

    def test_request_flag_overrides_config(self, protein):
        with FTMapService(cache=CacheManager(policy="off")) as service:
            fp = service.register_receptor(protein)
            on = service.submit(
                MapRequest(receptor=fp, config=TINY, tracing=True)
            ).result(timeout=300)
            off = service.submit(
                MapRequest(receptor=fp, config=TRACED, tracing=False)
            ).result(timeout=300)
        assert on.trace is not None
        assert off.trace is None

    def test_tracing_does_not_change_numerics(self, protein):
        with FTMapService(cache=CacheManager(policy="off")) as service:
            plain = service.map(protein, config=TINY)
            traced = service.map(protein, config=TRACED)
        a = plain.result.probe_results["ethanol"]
        b = traced.result.probe_results["ethanol"]
        assert list(a.minimized_energies) == list(b.minimized_energies)
        assert [p.score for p in a.docked_poses] == [
            p.score for p in b.docked_poses
        ]

    def test_progress_events_carry_correlation(self, protein):
        with FTMapService(cache=CacheManager(policy="off")) as service:
            handle = service.submit(
                MapRequest(receptor=service.register_receptor(protein),
                           config=TRACED)
            )
            handle.result(timeout=300)
            events = handle.events()
        assert events, "no progress events recorded"
        trace_ids = {e.trace_id for e in events}
        assert trace_ids == {handle.trace_id} and handle.trace_id != ""
        assert all(e.elapsed_s >= 0.0 for e in events)
        with_spans = [e for e in events if e.span_id]
        assert with_spans, "no event carried a span id"

    def test_untraced_events_have_empty_ids(self, protein):
        with FTMapService(cache=CacheManager(policy="off")) as service:
            handle = service.submit(
                MapRequest(receptor=service.register_receptor(protein),
                           config=TINY)
            )
            handle.result(timeout=300)
        assert {e.trace_id for e in handle.events()} == {""}

    def test_tracing_field_validated(self):
        with pytest.raises(ValueError, match="tracing"):
            FTMapConfig(tracing="yes")
        with pytest.raises(ValueError, match="tracing"):
            MapRequest(receptor="a" * 64, tracing="yes")

    def test_tracing_round_trips_on_the_wire(self):
        request = MapRequest(receptor="a" * 64, config=TINY, tracing=True)
        back = MapRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert back.tracing is True


# -- gateway ------------------------------------------------------------------------

TENANTS = [
    TenantSpec("acme", api_key="acme-key", rate=1000.0, burst=1000,
               max_in_flight=50),
]

_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+=\"[^\"]*\""
    r"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})? (NaN|[+-]?(Inf|[0-9eE+.-]+))$"
)


def parse_prometheus(text):
    """Validate exposition syntax; returns {series_name: [lines]}."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _PROM_LINE.match(line), f"bad exposition line: {line!r}"
        series.setdefault(line.split("{")[0].split(" ")[0], []).append(line)
    return series


@pytest.fixture(scope="module")
def gateway(protein):
    service = FTMapService(cache=CacheManager(policy="off"), max_workers=2)
    with GatewayServer(service, TENANTS, owns_service=True) as gw:
        yield gw


@pytest.fixture(scope="module")
def acme(gateway):
    return GatewayClient(gateway.url, api_key="acme-key")


@pytest.fixture(scope="module")
def receptor_hash(acme, protein):
    return acme.register_receptor(protein)


@pytest.fixture(scope="module")
def traced_run(acme, receptor_hash):
    """One traced mapping through the gateway; (job_id, result_doc)."""
    job_id = acme.submit(
        MapRequest(receptor=receptor_hash, config=TINY, tracing=True)
    )
    return job_id, acme.result(job_id, timeout_s=300)


class TestGatewayTracing:
    def test_trace_spans_gateway_and_service(self, traced_run):
        _, doc = traced_run
        trace = check_trace(doc["trace"])
        names = [s["name"] for s in trace["spans"]]
        for expected in ("ingress", "queue", "map", "dock", "minimize",
                         "cluster", "consensus"):
            assert expected in names, f"missing span {expected!r}: {names}"
        ingress = next(s for s in trace["spans"] if s["name"] == "ingress")
        assert ingress["attributes"]["tenant"] == "acme"
        # Admission precedes execution in the one shared timeline.
        t_map = next(s for s in trace["spans"] if s["name"] == "map")
        assert ingress["start_s"] <= t_map["start_s"]

    def test_sse_events_carry_trace_ids(self, acme, traced_run, receptor_hash):
        job_id = acme.submit(
            MapRequest(receptor=receptor_hash, config=TINY, tracing=True)
        )
        progress = []
        for event, payload in acme.events(job_id):
            if event == "progress":
                progress.append(payload)
        doc = acme.result(job_id, timeout_s=300)
        assert progress, "no progress events streamed"
        trace_ids = {p["trace_id"] for p in progress}
        assert trace_ids == {doc["trace"]["trace_id"]}
        assert all(p["elapsed_s"] >= 0.0 for p in progress)
        assert any(p["span_id"] for p in progress)

    def test_untraced_request_has_no_trace(self, acme, receptor_hash):
        doc = acme.map_remote(
            MapRequest(receptor=receptor_hash, config=TINY), timeout_s=300
        )
        assert doc["trace"] is None


class TestMetricsEndpoint:
    def test_metrics_is_valid_prometheus(self, acme, traced_run):
        text = acme.metrics()
        series = parse_prometheus(text)
        assert "# TYPE" in text
        # The layers each contributed their series.
        for name in (
            "repro_gateway_requests_total",
            "repro_gateway_queue_wait_seconds_count",
            "repro_request_seconds_count",
            "repro_stage_seconds_count",
            "repro_jobs_total",
            "repro_dock_runs_total",
            "repro_minimize_poses_total",
        ):
            assert name in series, f"missing series {name}: {sorted(series)}"
        accepted = [
            line for line in series["repro_gateway_requests_total"]
            if 'tenant="acme"' in line and 'outcome="accepted"' in line
        ]
        assert accepted, series["repro_gateway_requests_total"]
        stages = " ".join(series["repro_stage_seconds_count"])
        for stage in ("dock", "minimize", "cluster", "consensus"):
            assert f'stage="{stage}"' in stages

    def test_metrics_requires_auth(self, gateway):
        from repro.api.errors import AuthenticationError

        anon = GatewayClient(gateway.url)
        with pytest.raises(AuthenticationError):
            anon.metrics()

    def test_stats_includes_registry_deltas(self, acme, traced_run):
        stats = acme.stats()
        metrics = stats["metrics"]
        assert metrics["queue_wait_count"] >= 1
        assert metrics["queue_wait_p50_s"] is not None
        tenant = metrics["tenant_latency"]["acme"]
        assert tenant["count"] >= 1
        assert tenant["p99_s"] > 0.0
        json.dumps(stats)  # the whole document must stay JSON-clean
