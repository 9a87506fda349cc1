"""`FTMapService`: the single front door of the mapping system.

The paper's end state is a mapping *service* — one resident receptor
mapped against a stream of probe workloads as fast as the hardware
allows.  This module is that request→result API: a long-lived session
that owns the resolved docking/minimization engines (through the staged
pipeline functions), one shared content-addressed
:class:`~repro.cache.manager.CacheManager`, and a worker pool for
asynchronous jobs.

Three properties define the serving layer:

* **probe streaming** — FTMap's probes are independent, so a
  multi-probe request can map them in parallel.  The default on
  multi-CPU hosts is ``"process"``: each probe is one task on a pool of
  worker *processes* (:mod:`repro.workers`), one probe per CPU at a
  time, with results returned over the workers' pipes; ``"sequential"``
  maps them one after another in the request's thread.  Both run every probe through the
  same stage body, :func:`repro.mapping.ftmap.map_probe`, so scheduling
  changes and values never do: every mode is bitwise-identical and emits
  the same progress events and span names (tested).
* **cache-aware serving** — receptors register once by content hash, and
  every artifact lookup is content-addressed, so concurrent requests
  against the same receptor share grids and whole dock results
  through the manager; a repeat request is served mapped-or-cached.
* **request-scoped accounting** — each result carries the cache delta of
  *its own* request (:meth:`CacheManager.stats_scope`), which stays
  correct when jobs overlap on the shared manager.

The job model is also the dispatch point for multi-device minimization
(``config.minimize_devices``): each shard surfaces as a
``"minimize-shard"`` :class:`ProgressEvent`, cancellation is checked at
shard and batch-chunk boundaries, and the result records shard/backend
provenance
(:attr:`MapResult.minimize_provenance`).  Warm requests skip the stage
entirely through the shard-invariant minimized-ensemble cache.

The sweep runner, the gateway, examples and benchmarks are thin clients
of this service.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from typing import Callable, ContextManager, Dict, List, Optional, Tuple, Union

from repro.api.errors import (
    DuplicateRequestError,
    InvalidRequestError,
    JobFailedError,
    JobNotFoundError,
    ServiceClosedError,
    UnknownReceptorError,
)
from repro.api.jobs import JobCancelled, JobHandle, ProgressEvent
from repro.api.requests import (
    STREAMING_MODES,
    MapRequest,
    MapResult,
    receptor_fingerprint,
)
from repro.cache.manager import CacheManager, CacheStats
from repro.mapping import ftmap as _ftmap
from repro.mapping.consensus import consensus_sites
from repro.mapping.ftmap import FTMapConfig, FTMapResult, ProbeResult
from repro.obs.logging import log_event
from repro.obs.metrics import registry
from repro.obs.trace import Tracer, TracerLike
from repro.structure.molecule import Molecule
from repro.structure.probes import build_probe
from repro.util.parallel import usable_cpus

__all__ = ["FTMapService"]

#: Service-level scheduling defaults.
_SERVICE_STREAMING = ("auto",) + STREAMING_MODES

#: Seconds between cancel-flag checks while waiting on a worker task.
_CANCEL_POLL_S = 0.05


class FTMapService:
    """Session-scoped mapping service: submit requests, receive results.

    Parameters
    ----------
    config:
        Default :class:`FTMapConfig` for requests that do not carry one
        (also the source of the service's cache policy).
    cache:
        Explicit shared :class:`CacheManager` — when given, *every*
        request uses it, whatever its config's cache fields say (the
        legacy ``cache=`` override contract).  When omitted, the service
        resolves its default config's manager; requests whose config
        names an explicit cache policy then get their own manager, and
        everything else shares the service one — that sharing is what
        makes the service cache-aware.
    max_workers:
        Worker threads for asynchronous jobs (:meth:`submit`).  Synchronous
        :meth:`map` calls run in the caller's thread and do not consume a
        worker.
    streaming:
        Default probe scheduling: ``"auto"`` (one probe per worker
        process on multi-CPU hosts, sequential otherwise), ``"process"``
        or ``"sequential"``.
    on_event:
        Optional callback invoked with every :class:`ProgressEvent`
        across all jobs (in addition to per-handle event logs).

    Use as a context manager (``with FTMapService() as service:``) or call
    :meth:`close` to release the worker pool.
    """

    def __init__(
        self,
        config: Optional[FTMapConfig] = None,
        cache: Optional[CacheManager] = None,
        max_workers: int = 2,
        streaming: str = "auto",
        on_event: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> None:
        if max_workers < 1:
            raise InvalidRequestError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if streaming not in _SERVICE_STREAMING:
            raise InvalidRequestError(
                f"unknown streaming mode {streaming!r}; expected one of "
                f"{_SERVICE_STREAMING}"
            )
        self.default_config = config if config is not None else FTMapConfig()
        # An explicitly injected manager is pinned: every request uses it,
        # whatever its config says — the contract run_sweep's cache=
        # argument relies on (a sweep sharing one manager across variants
        # with differing cache fields).
        self._cache_pinned = cache is not None
        self.cache = (
            cache if cache is not None else self.default_config.cache_manager()
        )
        self.streaming = streaming
        self.max_workers = int(max_workers)
        self._on_event = on_event
        self._receptors: Dict[str, Molecule] = {}
        self._jobs: Dict[str, JobHandle] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self._job_counter = 0
        self._lock = threading.Lock()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "FTMapService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down; pending queued jobs are cancelled."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
            handles = list(self._jobs.values())
        for handle in handles:
            if not handle.done():
                handle.cancel()
        if executor is not None:
            executor.shutdown(wait=wait)

    # -- receptor registry -------------------------------------------------------

    def register_receptor(self, receptor: Molecule) -> str:
        """Register ``receptor`` and return its content fingerprint.

        Registration is idempotent: structurally equal molecules share a
        fingerprint, and requests may reference it instead of shipping the
        molecule — the "upload once, map many" half of the serving story.
        """
        fingerprint = receptor_fingerprint(receptor)
        with self._lock:
            self._receptors.setdefault(fingerprint, receptor)
        return fingerprint

    def registered_receptors(self) -> List[str]:
        """Fingerprints of every registered receptor (insertion order)."""
        with self._lock:
            return list(self._receptors)

    def _resolve_receptor(
        self, receptor: Union[Molecule, str]
    ) -> Tuple[Molecule, str]:
        if isinstance(receptor, Molecule):
            return receptor, self.register_receptor(receptor)
        with self._lock:
            molecule = self._receptors.get(receptor)
        if molecule is None:
            raise UnknownReceptorError(
                f"unknown receptor fingerprint {receptor!r}; call "
                "register_receptor(receptor) first"
            )
        return molecule, receptor

    # -- request execution -------------------------------------------------------

    def submit(self, request: MapRequest, tracer: Optional[Tracer] = None) -> JobHandle:
        """Queue a request on the worker pool; returns its job handle.

        The handle exposes ``poll()`` / ``result(timeout)`` / ``cancel()``
        and the per-stage progress events.  Jobs run concurrently up to
        ``max_workers``; requests against the same receptor share
        artifacts through the cache whichever order they land in.
        ``tracer`` carries an upstream trace into the job (the gateway
        passes the one that already holds its ingress/queue spans);
        without one, tracing follows the request/config flags.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("FTMapService is closed")
            self._job_counter += 1
            job_id = request.request_id or f"job-{self._job_counter}"
            if job_id in self._jobs:
                raise DuplicateRequestError(f"duplicate request_id {job_id!r}")
            executor = self._executor
            if executor is None:
                executor = self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="ftmap-service",
                )
            handle = JobHandle(job_id, on_event=self._on_event)
            if tracer is not None:
                handle._set_tracer(tracer)
            self._jobs[job_id] = handle

            def task() -> None:
                handle._set_running()
                running = registry().gauge(
                    "repro_jobs_running", help="Jobs currently executing."
                )
                running.inc()
                try:
                    handle._check_cancelled()
                    result = self._execute(request, handle)
                except JobCancelled:
                    handle._finish("cancelled")
                except BaseException as exc:
                    handle._finish("failed", error=exc)
                else:
                    handle._finish("done", result=result)
                finally:
                    running.dec()

            # Scheduled under the lock: a concurrent close() either sees
            # this job registered (and cancels it) or blocks here until
            # the future exists — never a registered handle stuck
            # "queued" with no future after the executor shut down.
            handle._future = executor.submit(task)
        return handle

    def job(self, job_id: str) -> JobHandle:
        """Look a submitted job up by id.

        Raises :class:`~repro.api.errors.JobNotFoundError` (a
        :class:`KeyError` subclass) for an id no submitted job carries.
        """
        with self._lock:
            handle = self._jobs.get(job_id)
        if handle is None:
            raise JobNotFoundError(f"no job with id {job_id!r}")
        return handle

    def map(
        self,
        receptor: Union[Molecule, str],
        config: Optional[FTMapConfig] = None,
        probes: Optional[Dict[str, Molecule]] = None,
        streaming: Optional[str] = None,
    ) -> MapResult:
        """Synchronous sugar: execute one request in the calling thread.

        Equivalent to submitting ``MapRequest(receptor, config, probes)``
        and waiting, but without consuming a job worker — the right call
        for scripts, sweeps and tests.  Each call gets its own request id
        (``sync-<n>``), so concurrent calls never share per-request
        resources such as worker-pool names.
        """
        request = MapRequest(
            receptor=receptor,
            config=config if config is not None else self.default_config,
            probes=probes,
            streaming=streaming,
        )
        with self._lock:
            self._job_counter += 1
            job_id = f"sync-{self._job_counter}"
        handle = JobHandle(job_id, on_event=self._on_event)
        return self._execute(request, handle)

    # -- internals ---------------------------------------------------------------

    def _request_manager(self, config: FTMapConfig) -> CacheManager:
        """The cache a request uses.

        An explicitly injected service manager wins unconditionally
        (legacy ``cache=`` override semantics); otherwise a request whose
        config names an explicit policy resolves its own manager, and
        ``"inherit"`` requests share the service default.
        """
        if self._cache_pinned or config.cache_policy == "inherit":
            return self.cache
        return config.cache_manager()

    def _execute(self, request: MapRequest, handle: JobHandle) -> MapResult:
        t0 = time.perf_counter()
        receptor, fingerprint = self._resolve_receptor(request.receptor)
        cfg = request.config
        tracer = handle._tracer
        if not tracer.enabled:
            # Request flag overrides config; neither set means no trace.
            wants_trace = (
                request.tracing
                if request.tracing is not None
                else cfg.tracing
            )
            if wants_trace:
                tracer = Tracer()
                handle._set_tracer(tracer)
        manager = self._request_manager(cfg)
        probe_set = request.probes or {
            name: build_probe(name) for name in cfg.probe_names
        }
        items = list(probe_set.items())
        mode = self._resolve_streaming(request, len(items), manager)
        log_event(
            "request.started",
            job_id=handle.job_id,
            trace_id=tracer.trace_id,
            receptor=fingerprint,
            probes=len(items),
            streaming=mode,
        )

        with tracer.span(
            "map",
            request_id=handle.job_id,
            receptor=fingerprint,
            probes=len(items),
            streaming=mode,
        ) as root:
            scope: ContextManager[Optional[CacheStats]] = (
                manager.stats_scope() if manager.enabled else nullcontext()
            )
            with scope as stats:
                probe_results = self._run_probes(
                    receptor, items, cfg, manager, mode, handle, tracer, root
                )

            handle._check_cancelled()
            t_stage = time.perf_counter()
            with tracer.span("consensus", parent=root) as span:
                handle._emit(
                    "consensus", "", len(items), len(items),
                    span_id=span.span_id,
                )
                sites = consensus_sites(
                    {name: pr.clusters for name, pr in probe_results.items()},
                    radius=cfg.consensus_radius,
                )
            registry().histogram(
                "repro_stage_seconds", ("stage",),
                help="Wall seconds per pipeline stage.",
            ).observe(time.perf_counter() - t_stage, stage="consensus")
        ftmap_result = FTMapResult(
            probe_results=probe_results, sites=sites, cache_stats=stats
        )
        wall_s = time.perf_counter() - t0
        registry().histogram(
            "repro_request_seconds",
            help="End-to-end wall seconds per mapping request.",
        ).observe(wall_s)
        return MapResult(
            request_id=handle.job_id,
            receptor_hash=fingerprint,
            config=cfg,
            result=ftmap_result,
            wall_time_s=wall_s,
            cache_stats=stats,
            streaming=mode,
            trace=tracer.to_dict(),
        )

    @staticmethod
    def _process_streaming_available() -> bool:
        # Daemonic processes may not have children; everywhere else the
        # worker pool can run (fork preferred, spawn otherwise).
        return not mp.current_process().daemon

    def _resolve_streaming(
        self, request: MapRequest, n_items: int, manager: CacheManager
    ) -> str:
        """Actual scheduling mode for a request.

        An explicit ``request.streaming`` wins over the service default.
        ``"auto"`` picks a worker pool only where it pays off and loses
        nothing: ≥2 probes, ≥2 usable CPUs, and a manager that is not
        memory-only (what a forked worker puts in its memory tier never
        reaches the parent, so memory-only requests would stop sharing
        artifacts).  Everything else runs the sequential loop, as does a
        process request with one probe or under a daemonic parent.
        """
        mode = request.streaming or self.streaming
        if mode == "auto":
            pays_off = (
                n_items > 1
                and usable_cpus() >= 2
                and manager.policy != "memory"
            )
            mode = "process" if pays_off else "sequential"
        if mode == "process" and (
            n_items <= 1 or not self._process_streaming_available()
        ):
            mode = "sequential"
        return mode

    def _run_probes(
        self,
        receptor: Molecule,
        items: List[Tuple[str, Molecule]],
        cfg: FTMapConfig,
        manager: CacheManager,
        mode: str,
        handle: JobHandle,
        tracer: TracerLike,
        root,
    ) -> Dict[str, ProbeResult]:
        if mode == "process":
            results = self._run_probes_process(
                receptor, items, cfg, manager, handle, tracer, root
            )
        else:
            results = []
            total = len(items)
            for index, (name, probe) in enumerate(items):

                def on_event(stage, span, shard, name=name, index=index):
                    at, count = shard if shard is not None else (index, total)
                    handle._emit(stage, name, at, count, span_id=span.span_id)

                results.append(
                    _ftmap.map_probe(
                        receptor, name, probe, cfg, cache=manager,
                        tracer=tracer, parent=root, on_event=on_event,
                        cancel_check=handle._check_cancelled,
                    )
                )
        return {pr.probe_name: pr for pr in results}

    def _run_probes_process(
        self,
        receptor: Molecule,
        items: List[Tuple[str, Molecule]],
        cfg: FTMapConfig,
        manager: CacheManager,
        handle: JobHandle,
        tracer: TracerLike,
        root,
    ) -> List[ProbeResult]:
        """Process streaming: each worker process maps whole probes.

        FTMap's probes are independent, so each probe's
        :func:`~repro.mapping.ftmap.map_probe` is one
        :func:`~repro.workers.stages.probe_task` on a pool of
        ``min(probes, usable CPUs)`` worker processes (recorded as the
        ``workers`` attribute of the ``map`` span).  Results come back
        pickled over the workers' pipes and are taken in probe order.
        For each one the parent folds the task's cache-stats delta into
        the request scope, adopts the worker's spans (``dock``/
        ``minimize``/``cluster`` under the root, each with its ``*-exec``
        child) and replays the stage and shard events at the times the
        worker recorded them.  While it waits, the parent watches the
        job's cancel flag and terminates the pool on cancellation.  A
        worker that dies breaks the pool; the job then fails with
        :class:`~repro.api.errors.JobFailedError` naming the probes that
        did not finish.
        """
        # Imported lazily: repro.workers pulls repro.api.errors back in,
        # and this module is importable before the workers package.
        from repro.workers import ProcessWorkerPool
        from repro.workers import stages as _stages

        handle._check_cancelled()
        total = len(items)
        n_workers = min(total, usable_cpus())
        root.set_attributes(workers=n_workers)
        stage_seconds = registry().histogram(
            "repro_stage_seconds", ("stage",),
            help="Wall seconds per pipeline stage.",
        )
        pool = ProcessWorkerPool(
            n_workers,
            initializer=_stages.init_stage_worker,
            initargs=(receptor, cfg, manager),
            name=f"ftmap-{handle.job_id}",
        )
        results: List[ProbeResult] = []
        try:
            futures = [
                pool.submit(_stages.probe_task, name, probe, root.span_id)
                for name, probe in items
            ]
            for index, ((name, _), future) in enumerate(zip(items, futures)):
                while not wait([future], timeout=_CANCEL_POLL_S).done:
                    handle._check_cancelled()
                try:
                    out = future.result()
                except BrokenProcessPool as exc:
                    lost = [
                        n for (n, _), f in zip(items[index:], futures[index:])
                        if not f.done() or f.exception() is not None
                    ]
                    raise JobFailedError(
                        f"a worker process died; probes {', '.join(lost)} "
                        "did not finish"
                    ) from exc
                manager.merge(out["cache_stats"])
                tracer.adopt(out["spans"])
                for stage, span_id, shard, at_s in out["events"]:
                    handle._check_cancelled()
                    at, count = shard if shard is not None else (index, total)
                    handle._emit(
                        stage, name, at, count,
                        span_id=span_id if tracer.enabled else "", at_s=at_s,
                    )
                # The worker's histogram stays in the worker; its stage
                # spans carry the same durations.
                for stage, _, parent_id, start_s, end_s, _, _ in out["spans"]:
                    if parent_id == root.span_id:
                        stage_seconds.observe(end_s - start_s, stage=stage)
                results.append(out["result"])
        except BaseException:
            # Cancellation, a task failure or a dead worker: stop hard.
            pool.close(cancel=True)
            raise
        pool.close()
        return results
