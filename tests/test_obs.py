"""The observability core: tracer, metrics registry, structured logging.

Everything here runs without a service or gateway — the contracts the
instrumented layers rely on: monotonic spans that serialize stably,
reservoir histograms whose quantiles match numpy on in-capacity streams,
thread-safe recording, and true no-op behaviour when disabled.
"""

from __future__ import annotations

import io
import json
import math
import threading
import time

import numpy as np
import pytest

from repro.obs.logging import (
    RunLogger,
    StructuredLogger,
    configure_logging,
    log_event,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    registry,
    render_prometheus,
    set_metrics_enabled,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    Tracer,
    check_trace,
    chrome_trace,
    current_span,
    current_tracer,
    stage_durations,
    use_span,
)


class TestSpans:
    def test_span_context_manager_records_and_times(self):
        tracer = Tracer()
        with tracer.span("work", probe="ethanol") as span:
            time.sleep(0.002)
        doc = tracer.to_dict()
        assert len(doc["spans"]) == 1
        rec = doc["spans"][0]
        assert rec["name"] == "work"
        assert rec["attributes"]["probe"] == "ethanol"
        assert rec["duration_s"] >= 0.002
        assert span.end_s is not None

    def test_nesting_sets_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            assert current_span() is outer
        assert current_span() is NULL_SPAN
        assert current_tracer() is NULL_TRACER

    def test_explicit_parent_beats_ambient(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        with tracer.span("ambient"):
            child = tracer.start_span("child", parent=root)
        assert child.parent_id == root.span_id
        by_id = tracer.start_span("by-id", parent=root.span_id)
        assert by_id.parent_id == root.span_id

    def test_foreign_tracer_ambient_is_not_a_parent(self):
        """A span must never parent onto another trace's ambient span."""
        theirs, mine = Tracer(), Tracer()
        with theirs.span("theirs"):
            orphan = mine.start_span("mine")
        assert orphan.parent_id == ""

    def test_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start_span("once")
        span.end()
        first_end = span.end_s
        span.end()
        assert span.end_s == first_end
        assert len(tracer.to_dict()["spans"]) == 1

    def test_exception_recorded_as_error_attribute(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        rec = tracer.to_dict()["spans"][0]
        assert rec["attributes"]["error"] == "RuntimeError: boom"

    def test_add_span_post_hoc_with_thread_label(self):
        tracer = Tracer()
        t = time.perf_counter()
        tracer.add_span("shard", t, t + 0.5, thread="minimize-device-1", device=1)
        rec = tracer.to_dict()["spans"][0]
        assert rec["duration_s"] == pytest.approx(0.5)
        assert rec["thread"] == "minimize-device-1"
        assert rec["attributes"]["device"] == 1

    def test_records_adopt_round_trip_keeps_ids_and_times(self):
        """A subtree recorded by another tracer (a worker process) lands
        in place: ids, parents, times, threads and attributes kept."""
        import pickle

        tracer = Tracer()
        with tracer.span("map") as root:
            pass
        worker = Tracer()
        with worker.span("dock", parent=root.span_id, probe="x") as dock:
            worker.add_span("dock-exec", dock.start_s, dock.start_s, parent=dock)
        records = pickle.loads(pickle.dumps(worker.records()))
        tracer.adopt(records)
        doc = {s["name"]: s for s in tracer.to_dict()["spans"]}
        assert doc["dock"]["parent_id"] == root.span_id
        assert doc["dock"]["span_id"] == dock.span_id
        assert doc["dock-exec"]["parent_id"] == dock.span_id
        assert doc["dock"]["attributes"] == {"probe": "x"}
        assert doc["dock"]["duration_s"] == pytest.approx(dock.duration_s)
        NULL_TRACER.adopt(records)                  # disabled: inert
        assert NULL_TRACER.records() == []

    def test_non_scalar_attributes_are_stringified(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.set_attribute("shape", (3, 4))
        doc = tracer.to_dict()
        json.dumps(doc)  # must always serialize
        assert doc["spans"][0]["attributes"]["shape"] == "(3, 4)"

    def test_use_span_propagates_across_threads(self):
        tracer = Tracer()
        seen = {}

        def worker(span):
            with use_span(tracer, span):
                seen["span"] = current_span()
                seen["tracer"] = current_tracer()

        with tracer.span("root") as root:
            t = threading.Thread(target=worker, args=(root,))
            t.start()
            t.join()
        assert seen["span"] is root
        assert seen["tracer"] is tracer


class TestTraceDocument:
    def make_trace(self):
        tracer = Tracer()
        with tracer.span("map"):
            with tracer.span("dock", probe="ethanol"):
                pass
            with tracer.span("minimize"):
                pass
        return tracer

    def test_round_trip_through_json(self):
        doc = self.make_trace().to_dict()
        assert doc["schema_version"] == TRACE_SCHEMA_VERSION
        back = json.loads(json.dumps(doc))
        assert back == doc
        assert check_trace(back) is back

    def test_times_are_relative_and_ordered(self):
        doc = self.make_trace().to_dict()
        starts = [s["start_s"] for s in doc["spans"]]
        assert starts == sorted(starts)
        assert all(s >= 0.0 for s in starts)
        assert all(s["duration_s"] >= 0.0 for s in doc["spans"])

    def test_check_trace_rejects_bad_documents(self):
        with pytest.raises(ValueError, match="dict"):
            check_trace([])
        with pytest.raises(ValueError, match="schema_version"):
            check_trace({"schema_version": 99, "trace_id": "x", "spans": []})
        with pytest.raises(ValueError, match="trace_id"):
            check_trace({"schema_version": TRACE_SCHEMA_VERSION, "spans": []})
        with pytest.raises(ValueError, match="duration_s"):
            check_trace(
                {
                    "schema_version": TRACE_SCHEMA_VERSION,
                    "trace_id": "x",
                    "spans": [{"name": "a", "span_id": "1", "parent_id": "",
                               "start_s": 0.0}],
                }
            )

    def test_chrome_trace_export(self):
        tracer = self.make_trace()
        t = time.perf_counter()
        tracer.add_span("shard", t, t + 0.1, thread="minimize-device-0")
        chrome = chrome_trace(tracer.to_dict())
        json.dumps(chrome)
        complete = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        assert len(complete) == 4
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
        # One display row per recording thread, each named.
        named = {e["args"]["name"] for e in meta}
        assert "minimize-device-0" in named
        tids = {e["tid"] for e in complete}
        assert len(tids) == len(named)

    def test_stage_durations_sums_by_name(self):
        tracer = Tracer()
        tracer.add_span("dock", 0.0, 1.0)
        tracer.add_span("dock", 2.0, 2.5)
        tracer.add_span("minimize", 1.0, 2.0)
        totals = stage_durations(tracer.to_dict())
        assert totals["dock"] == pytest.approx(1.5)
        assert totals["minimize"] == pytest.approx(1.0)

    def test_concurrent_span_recording(self):
        tracer = Tracer()
        n_threads, per_thread = 8, 50

        def hammer(k):
            for i in range(per_thread):
                with tracer.span(f"t{k}", i=i):
                    pass

        threads = [threading.Thread(target=hammer, args=(k,))
                   for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.to_dict()["spans"]) == n_threads * per_thread


class TestNullPaths:
    def test_null_tracer_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.to_dict() is None
        with NULL_TRACER.span("anything", probe="x") as span:
            assert span is NULL_SPAN
        assert NULL_TRACER.start_span("x") is NULL_SPAN
        assert NULL_TRACER.add_span("x", 0.0, 1.0) is NULL_SPAN

    def test_null_span_absorbs_everything(self):
        NULL_SPAN.set_attribute("k", "v")
        NULL_SPAN.set_attributes(a=1, b=2)
        NULL_SPAN.end()
        assert NULL_SPAN.attributes == {}
        assert NULL_SPAN.duration_s == 0.0

    def test_ambient_defaults_are_null(self):
        assert current_span() is NULL_SPAN
        assert current_tracer() is NULL_TRACER


class TestHistogram:
    def test_quantiles_match_numpy_in_capacity(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h_np", help="x")
        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=0.0, sigma=1.5, size=1000)
        for v in values:
            hist.observe(float(v))
        for q in (0.5, 0.95, 0.99):
            assert hist.quantile(q) == pytest.approx(
                float(np.percentile(values, q * 100)), rel=1e-12
            )
        assert hist.count() == 1000
        assert hist.sum() == pytest.approx(float(values.sum()))

    def test_reservoir_bounds_memory_past_capacity(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h_cap", help="x", capacity=64)
        for i in range(10_000):
            hist.observe(float(i))
        cell = hist._cell(())
        assert len(cell.sample) == 64
        assert hist.count() == 10_000
        # The sampled median of 0..9999 should land near the true median.
        assert abs(hist.quantile(0.5) - 4999.5) < 2500.0

    def test_reservoir_is_deterministic_per_series(self):
        def run():
            reg = MetricsRegistry()
            hist = reg.histogram("h_det", help="x", capacity=16)
            for i in range(1000):
                hist.observe(float(i))
            return list(hist._cell(()).sample)

        assert run() == run()

    def test_empty_histogram_is_nan(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h_empty", help="x")
        assert math.isnan(hist.quantile(0.5))


class TestRegistry:
    def test_instruments_memoized_and_conflicts_rejected(self):
        reg = MetricsRegistry()
        c1 = reg.counter("hits", ("kind",), help="x")
        c2 = reg.counter("hits", ("kind",), help="x")
        assert c1 is c2
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("hits", ("kind",))
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("hits", ("tenant",))

    def test_label_validation(self):
        reg = MetricsRegistry()
        c = reg.counter("c", ("tenant",))
        with pytest.raises(ValueError, match="labels"):
            c.inc(kind="x")
        with pytest.raises(ValueError, match="labels"):
            c.inc()

    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("c", ())
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5
        with pytest.raises(ValueError, match="decrease"):
            c.inc(-1.0)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("g", ())
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value() == 4.0

    def test_thread_safety_under_contention(self):
        reg = MetricsRegistry()
        c = reg.counter("n", ("worker",))
        h = reg.histogram("lat", ())
        n_threads, per_thread = 8, 500

        def hammer(k):
            label = str(k % 2)
            for i in range(per_thread):
                c.inc(worker=label)
                h.observe(float(i))

        threads = [threading.Thread(target=hammer, args=(k,))
                   for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = c.value(worker="0") + c.value(worker="1")
        assert total == n_threads * per_thread
        assert h.count() == n_threads * per_thread

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("c", ())
        g = reg.gauge("g", ())
        h = reg.histogram("h", ())
        c.inc()
        g.set(9)
        h.observe(1.0)
        assert c.value() == 0.0
        assert g.value() == 0.0
        assert h.count() == 0

    def test_global_kill_switch_restores(self):
        prev = set_metrics_enabled(False)
        try:
            registry().counter("kill_switch_probe", help="x").inc()
            assert registry().counter("kill_switch_probe").value() == 0.0
        finally:
            set_metrics_enabled(prev)

    def test_snapshot_is_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("jobs", ("status",), help="x").inc(status="done")
        reg.histogram("lat", help="x").observe(0.25)
        snap = reg.snapshot()
        json.dumps(snap)
        assert snap["jobs"]["series"]["status=done"] == 1.0
        lat = snap["lat"]["series"][""]
        assert lat["count"] == 1 and lat["p50"] == 0.25


class TestPrometheusRendering:
    def test_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_requests_total", ("tenant",),
                    help="Requests.").inc(tenant="acme")
        reg.gauge("repro_queue_depth", help="Depth.").set(3)
        h = reg.histogram("repro_latency_seconds", help="Latency.")
        for v in (0.1, 0.2, 0.3):
            h.observe(v)
        text = render_prometheus(reg)
        assert text.endswith("\n")
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{tenant="acme"} 1' in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 3" in text
        assert "# TYPE repro_latency_seconds summary" in text
        assert 'repro_latency_seconds{quantile="0.5"} 0.2' in text
        assert "repro_latency_seconds_count 3" in text
        assert "repro_latency_seconds_sum 0.6" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", ("path",), help="x").inc(path='a"b\\c\nd')
        text = render_prometheus(reg)
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_value_formatting(self):
        from repro.obs.metrics import _format_value

        assert _format_value(3.0) == "3"
        assert _format_value(0.25) == "0.25"
        assert _format_value(math.nan) == "NaN"
        assert _format_value(math.inf) == "+Inf"


class TestStructuredLogging:
    def test_json_lines_with_correlation_ids(self):
        stream = io.StringIO()
        logger = StructuredLogger(stream=stream)
        logger.log("job.finished", job_id="j1", trace_id="t1",
                   tenant="", error=None, status="done")
        line = json.loads(stream.getvalue())
        assert line["event"] == "job.finished"
        assert line["job_id"] == "j1" and line["trace_id"] == "t1"
        # Empty correlation ids are dropped, not rendered as "".
        assert "tenant" not in line and "error" not in line
        assert isinstance(line["t_s"], float)
        assert logger.records[0]["status"] == "done"

    def test_global_logger_configuration(self):
        stream = io.StringIO()
        configure_logging(stream=stream)
        try:
            log_event("gateway.admitted", job_id="j2")
            assert json.loads(stream.getvalue())["job_id"] == "j2"
        finally:
            configure_logging(enabled=False)
        log_event("after.disable", job_id="j3")  # swallowed, no error
        assert stream.getvalue().count("\n") == 1

    def test_non_json_fields_are_stringified(self):
        stream = io.StringIO()
        StructuredLogger(stream=stream).log("e", shape=(3, 4))
        assert json.loads(stream.getvalue())["shape"] == [3, 4]


class TestRunLoggerMigration:
    def test_obs_runlogger_works(self):
        stream = io.StringIO()
        log = RunLogger(stream=stream)
        log.section("Docking")
        log.step("rotations gridded")
        log.done()
        out = stream.getvalue()
        assert "== Docking ==" in out and "rotations gridded" in out
        assert len(log.records) == 3

    def test_util_package_reexport_is_the_obs_class(self):
        from repro.util import RunLogger as UtilLogger

        assert UtilLogger is RunLogger
