"""Structured logging with trace/job/tenant correlation ids.

Two audiences, one module:

* :class:`StructuredLogger` / :func:`log_event` emit machine-parseable
  JSON lines from the service and gateway hot paths — each line carries
  whatever correlation ids the call site knows (``trace_id``,
  ``job_id``, ``tenant``) so a log stream joins against traces and
  gateway accounting.  Off until :func:`configure_logging` turns it on;
  a disabled :func:`log_event` is one flag check.
* :class:`RunLogger` is the human-facing timestamped section/step logger
  the examples and benchmark harnesses use, so the whole repo shares one
  logging home.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Dict, List, Optional, TextIO

__all__ = [
    "StructuredLogger",
    "configure_logging",
    "log_event",
    "RunLogger",
]


class StructuredLogger:
    """JSON-lines event logger.

    Each event is one line: ``{"t_s": <monotonic>, "event": <name>,
    ...fields}``.  ``t_s`` is ``time.perf_counter()`` — monotonic, for
    intra-process ordering and deltas, not wall-clock correlation.
    Thread-safe; keeps the emitted records in memory so tests and
    harnesses can assert on what was logged.
    """

    def __init__(self, stream: Optional[TextIO] = None, enabled: bool = True) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled
        self.records: List[Dict[str, object]] = []
        self._lock = threading.Lock()

    def log(self, event: str, **fields) -> None:
        if not self.enabled:
            return
        record: Dict[str, object] = {"t_s": round(time.perf_counter(), 6),
                                     "event": event}
        # Drop empty correlation ids so lines stay scannable.
        record.update({k: v for k, v in fields.items() if v not in ("", None)})
        line = json.dumps(record, sort_keys=False, default=str)
        with self._lock:
            self.records.append(record)
            print(line, file=self.stream)


class _NullStructuredLogger(StructuredLogger):
    """Default state: logging off, one flag check per call."""

    def __init__(self) -> None:
        super().__init__(stream=sys.stderr, enabled=False)

    def log(self, event: str, **fields) -> None:
        return


_logger: StructuredLogger = _NullStructuredLogger()


def configure_logging(stream: Optional[TextIO] = None,
                      enabled: bool = True) -> StructuredLogger:
    """Install (and return) the process-wide structured logger.

    ``configure_logging(enabled=False)`` restores the silent default.
    """
    global _logger
    _logger = StructuredLogger(stream=stream, enabled=enabled) if enabled \
        else _NullStructuredLogger()
    return _logger


def log_event(event: str, **fields) -> None:
    """Emit one structured event through the process-wide logger.

    Call sites pass correlation ids explicitly
    (``log_event("job.finished", job_id=..., trace_id=..., tenant=...)``);
    empty ids are dropped from the line.
    """
    _logger.log(event, **fields)


class RunLogger:
    """Timestamped section/step logger for examples and benchmarks.

    Writes to a stream (stdout by default) and keeps an in-memory record
    so harnesses can archive what a run printed.
    """

    def __init__(self, stream: Optional[TextIO] = None, enabled: bool = True) -> None:
        self.stream = stream or sys.stdout
        self.enabled = enabled
        self.records: List[str] = []
        self._t0 = time.perf_counter()
        self._section_t0 = self._t0

    def _emit(self, text: str) -> None:
        self.records.append(text)
        if self.enabled:
            print(text, file=self.stream)

    def section(self, title: str) -> None:
        self._section_t0 = time.perf_counter()
        self._emit(f"\n== {title} ==")

    def step(self, message: str) -> None:
        dt = time.perf_counter() - self._t0
        self._emit(f"[{dt:8.2f}s] {message}")

    def done(self, message: str = "done") -> None:
        dt = time.perf_counter() - self._section_t0
        self._emit(f"   ... {message} ({dt:.2f}s)")
