"""Request tracing: monotonic spans, context propagation, chrome export.

One :class:`Tracer` is one trace — a request's complete timing story.
Spans are measured on ``time.perf_counter()`` (monotonic, never walks
backwards under NTP), are thread-safe to record from any worker, and
carry free-form attributes (backend decisions, cache hit/miss, shard
placement).  Context propagation is a :mod:`contextvars` variable: code
deep in the pipeline reads :func:`current_span` and annotates whatever
request is executing on its thread *without any plumbing through the
call chain* — and when no trace is active it gets :data:`NULL_SPAN`,
whose methods are empty one-liners, which is what makes disabled
instrumentation near-zero-cost.

The serialized form (:meth:`Tracer.to_dict`) is schema-versioned
(:data:`TRACE_SCHEMA_VERSION`), JSON-round-trippable, and convertible to
the Chrome trace-event format (:func:`chrome_trace`) so any trace can be
dropped into ``chrome://tracing`` / Perfetto and read as a flame chart.
Span times in the document are *relative to the trace origin* — two
serializations of one trace agree exactly, wherever the process clock
happened to start.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "Span",
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "TracerLike",
    "NULL_SPAN",
    "NULL_TRACER",
    "current_span",
    "current_tracer",
    "use_span",
    "check_trace",
    "chrome_trace",
    "stage_durations",
]

#: Version stamped into every serialized trace document.
TRACE_SCHEMA_VERSION = 1

#: Attribute value types that pass into the document untouched; anything
#: else is stringified so traces always JSON-serialize.
_JSON_SCALARS = (str, int, float, bool, type(None))


#: One finished span outside its tracer:
#: ``(name, span_id, parent_id, start_s, end_s, thread, attributes)``.
SpanRecord = Tuple[str, str, str, float, float, str, Dict[str, object]]


def _new_id() -> str:
    """64-bit random hex id (span and trace ids)."""
    return os.urandom(8).hex()


def _json_safe(value):
    return value if isinstance(value, _JSON_SCALARS) else str(value)


class Span:
    """One timed operation within a trace.

    Created through :meth:`Tracer.span` / :meth:`Tracer.start_span`;
    records itself on the owning tracer when ended (exactly once —
    repeat ``end()`` calls are ignored).
    """

    __slots__ = (
        "tracer", "name", "span_id", "parent_id",
        "start_s", "end_s", "attributes", "thread",
    )

    def __init__(self, tracer: "Tracer", name: str, parent_id: str = "") -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.start_s = time.perf_counter()
        self.end_s: Optional[float] = None
        self.attributes: Dict[str, object] = {}
        self.thread = threading.current_thread().name

    @property
    def trace_id(self) -> str:
        return self.tracer.trace_id

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = _json_safe(value)

    def set_attributes(self, **attributes) -> None:
        for key, value in attributes.items():
            self.attributes[key] = _json_safe(value)

    def end(self) -> None:
        if self.end_s is None:
            self.end_s = time.perf_counter()
            self.tracer._record(self)

    @property
    def duration_s(self) -> float:
        end = self.end_s if self.end_s is not None else time.perf_counter()
        return end - self.start_s

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, id={self.span_id}, {self.duration_s:.6f}s)"


class _NullSpan:
    """The span of a disabled trace: every operation is a no-op."""

    __slots__ = ()
    name = ""
    span_id = ""
    parent_id = ""
    trace_id = ""
    start_s = 0.0
    end_s = 0.0
    duration_s = 0.0
    attributes: Dict[str, object] = {}

    def set_attribute(self, key: str, value) -> None:
        pass

    def set_attributes(self, **attributes) -> None:
        pass

    def end(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NULL_SPAN"


NULL_SPAN = _NullSpan()

#: Ambient (tracer, span) of the executing context; None when no trace
#: is active.  Contextvars are per-thread snapshots, so a thread sees
#: only the context it was handed, never another thread's mutable state;
#: work timed on other threads is recorded post hoc with an explicit
#: parent (:meth:`Tracer.add_span`, as for minimization shard spans).
_CURRENT: ContextVar[Optional[Tuple["Tracer", "Span"]]] = ContextVar(
    "repro_obs_current_span", default=None
)


def current_span():
    """The span active on this context, else :data:`NULL_SPAN`."""
    current = _CURRENT.get()
    return current[1] if current is not None else NULL_SPAN


def current_tracer():
    """The tracer active on this context, else :data:`NULL_TRACER`."""
    current = _CURRENT.get()
    return current[0] if current is not None else NULL_TRACER


@contextmanager
def use_span(tracer, span) -> Iterator[None]:
    """Attach an existing (tracer, span) pair to the current context.

    For code that receives a span across a thread boundary and wants
    downstream :func:`current_span` reads to see it — the span is *not*
    ended on exit (its creator owns its lifetime).
    """
    token = _CURRENT.set((tracer, span))
    try:
        yield
    finally:
        _CURRENT.reset(token)


class Tracer:
    """One trace: an id, a monotonic origin, and its finished spans.

    Thread-safe — spans may start, annotate and end on any thread; the
    recorded list is ordered by start time at serialization.
    """

    enabled = True

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id if trace_id else _new_id()
        self._t0 = time.perf_counter()
        self._spans: List[Span] = []
        self._lock = threading.Lock()

    # -- span creation -----------------------------------------------------------

    def start_span(self, name: str, parent=None, **attributes) -> Span:
        """Start a span (caller ends it).  ``parent`` may be a
        :class:`Span` or a span-id string; omitted, the ambient span of
        this context (if it belongs to this tracer) is the parent."""
        if parent is None:
            ambient = _CURRENT.get()
            parent_id = (
                ambient[1].span_id
                if ambient is not None and ambient[0] is self
                else ""
            )
        elif isinstance(parent, str):
            parent_id = parent
        else:
            parent_id = parent.span_id
        span = Span(self, name, parent_id=parent_id)
        if attributes:
            span.set_attributes(**attributes)
        return span

    @contextmanager
    def span(self, name: str, parent=None, **attributes) -> Iterator[Span]:
        """Timed block: starts a span, makes it ambient, ends it on exit.

        An escaping exception is recorded as an ``error`` attribute
        before re-raising, so failed stages stay visible in the trace.
        """
        s = self.start_span(name, parent=parent, **attributes)
        token = _CURRENT.set((self, s))
        try:
            yield s
        except BaseException as exc:
            s.set_attribute("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            _CURRENT.reset(token)
            s.end()

    def add_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent=None,
        thread: Optional[str] = None,
        **attributes,
    ) -> Span:
        """Record a span from already-measured ``perf_counter`` times.

        The post-hoc path for work timed elsewhere (e.g. per-shard
        minimization wall clocks measured inside the multi-device
        engine): overlap in the trace is exactly the overlap that
        happened, without threading tracer plumbing through the engine.
        ``thread`` overrides the recorded thread label so such spans land
        on their own display row (e.g. one per device).
        """
        span = self.start_span(name, parent=parent, **attributes)
        span.start_s = float(start_s)
        span.end_s = float(end_s)
        if thread is not None:
            span.thread = thread
        self._record(span)
        return span

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def records(self) -> List[SpanRecord]:
        """The finished spans as plain picklable tuples, for :meth:`adopt`.

        Times stay absolute ``perf_counter`` readings: on Linux that is
        ``CLOCK_MONOTONIC``, one clock for every process on the host, so
        a tracer in another process can record them unchanged.
        """
        with self._lock:
            spans = list(self._spans)
        return [
            (
                s.name, s.span_id, s.parent_id, s.start_s,
                s.end_s if s.end_s is not None else s.start_s,
                s.thread, dict(s.attributes),
            )
            for s in spans
        ]

    def adopt(self, records: Sequence[SpanRecord]) -> None:
        """Record spans another tracer measured (see :meth:`records`).

        Span ids and parent ids are kept, so a subtree built in a worker
        process under one of this trace's span ids lands in place.
        """
        for name, span_id, parent_id, start_s, end_s, thread, attrs in records:
            span = Span(self, name, parent_id=parent_id)
            span.span_id = span_id
            span.start_s, span.end_s, span.thread = start_s, end_s, thread
            span.attributes = dict(attrs)
            self._record(span)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Schema-versioned JSON-ready trace document.

        Span times are seconds relative to the trace origin, so the
        document is stable across serializations and process restarts.
        """
        with self._lock:
            spans = list(self._spans)
        spans.sort(key=lambda s: (s.start_s, s.span_id))
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "spans": [
                {
                    "name": s.name,
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    "start_s": s.start_s - self._t0,
                    "duration_s": (s.end_s if s.end_s is not None else s.start_s)
                    - s.start_s,
                    "thread": s.thread,
                    "attributes": dict(s.attributes),
                }
                for s in spans
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        with self._lock:
            n = len(self._spans)
        return f"Tracer({self.trace_id}, spans={n})"


class NullTracer:
    """The disabled tracer: same surface, every operation a no-op.

    This is the off-by-default guard — code paths call the tracing API
    unconditionally, and with tracing off each call is a constant-time
    no-op returning :data:`NULL_SPAN`.
    """

    enabled = False
    trace_id = ""

    def start_span(self, name: str, parent=None, **attributes):
        return NULL_SPAN

    @contextmanager
    def span(self, name: str, parent=None, **attributes) -> Iterator[_NullSpan]:
        yield NULL_SPAN

    def add_span(self, name, start_s, end_s, parent=None, thread=None, **attributes):
        return NULL_SPAN

    def records(self) -> List[SpanRecord]:
        return []

    def adopt(self, records) -> None:
        pass

    def to_dict(self) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NULL_TRACER"


NULL_TRACER = NullTracer()

#: What code holding "a tracer" actually holds: the live recorder or the
#: disabled stand-in.  The two share the full surface (``enabled``,
#: ``trace_id``, ``span``/``start_span``/``add_span``, ``records``/``adopt``,
#: ``to_dict``), so callers never branch on which one they have.
TracerLike = Union[Tracer, NullTracer]


# -- trace-document helpers ---------------------------------------------------------


def check_trace(trace: Dict[str, object]) -> Dict[str, object]:
    """Validate a serialized trace document; returns it unchanged.

    Raises :class:`ValueError` for a document this build cannot read —
    the version gate mirrors the wire-schema convention of
    :mod:`repro.api.schema`.
    """
    if not isinstance(trace, dict):
        raise ValueError(f"trace document must be a dict, got {type(trace).__name__}")
    version = trace.get("schema_version")
    if version != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema_version {version!r} "
            f"(this build reads {TRACE_SCHEMA_VERSION})"
        )
    spans = trace.get("spans")
    if not isinstance(trace.get("trace_id"), str) or not isinstance(spans, list):
        raise ValueError("trace document needs a trace_id and a span list")
    for span in spans:
        for field in ("name", "span_id", "parent_id", "start_s", "duration_s"):
            if field not in span:
                raise ValueError(f"trace span missing field {field!r}: {span}")
    return trace


def _span_list(trace: Dict[str, object]) -> List[Dict[str, Any]]:
    """Validate ``trace`` and return its span list, typed for iteration."""
    check_trace(trace)
    spans = trace["spans"]
    assert isinstance(spans, list)  # check_trace verified
    return spans


def chrome_trace(trace: Dict[str, object]) -> Dict[str, object]:
    """Convert a trace document to Chrome trace-event JSON.

    The result serializes directly to a file loadable in
    ``chrome://tracing`` or https://ui.perfetto.dev: one complete
    (``"ph": "X"``) event per span, timestamps in microseconds, one
    display row (``tid``) per recording thread so overlap reads as
    overlap.
    """
    tids: Dict[str, int] = {}
    events = []
    for span in _span_list(trace):
        thread = str(span.get("thread", ""))
        tid = tids.setdefault(thread, len(tids) + 1)
        args = dict(span.get("attributes") or {})
        args["span_id"] = span["span_id"]
        if span["parent_id"]:
            args["parent_id"] = span["parent_id"]
        events.append(
            {
                "name": span["name"],
                "cat": "repro",
                "ph": "X",
                "ts": float(span["start_s"]) * 1e6,
                "dur": float(span["duration_s"]) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    events.extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": thread},
        }
        for thread, tid in tids.items()
    )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace["trace_id"]},
    }


def stage_durations(trace: Dict[str, object]) -> Dict[str, float]:
    """Total seconds per span name — the per-stage latency breakdown.

    This is the serving-side analogue of the paper's Fig. 2/3 stage
    profiles: summing ``dock`` / ``minimize`` / ``cluster`` /
    ``consensus`` spans of one request answers "where did the time go"
    the same way the paper's per-phase timings justify what to put on
    the GPU.
    """
    totals: Dict[str, float] = {}
    for span in _span_list(trace):
        name = str(span["name"])
        totals[name] = totals.get(name, 0.0) + float(span["duration_s"])
    return totals
