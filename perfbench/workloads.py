"""Workloads, their set-up and the timed closed loop.

Each workload is one client in a closed loop: the next request goes out
only after the previous one returned.  Inputs come from the seed alone;
the service only ever sees the generated receptors and requests.

* ``map-cold``   - every request maps a receptor the service has never
  seen, through ``FTMapService.map`` with default backends, cache policy
  and streaming.  Minimization is most of the request's work.
* ``dock-scan``  - the same request with many more rotations and one
  refined pose of a few iterations, so docking dominates.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import FTMapConfig, FTMapService, MapRequest, Molecule, synthetic_protein
from repro.gateway import GatewayClient, GatewayServer
from repro.gateway.auth import TenantSpec
from repro.obs.trace import NULL_TRACER
from repro.workers import shm_bytes_in_use

from replay import ReplayMismatch, replay_request

PROBES = ("ethanol", "acetone", "benzene", "isopropanol")
#: Receptor size shared by every workload (about 330 atoms).
RESIDUES = 40
#: Cold set-ups per run: the one the timed loop runs after, plus this
#: many minus one in fresh child processes; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Fresh receptors generated up front; more are generated (outside
#: request timing) if a fast host runs past them.
RECEPTORS = 24
TENANT = TenantSpec("bench", "bench-key", rate=1000.0, burst=1000, max_in_flight=4)

#: Small request on an extra receptor that set-up sends once sequentially
#: (warming the parent that stage workers fork from) and once with default
#: streaming (warming the worker-pool path): a process's first docking call
#: runs far slower than later ones.
WARMUP_CONFIG = FTMapConfig(
    probe_names=PROBES, num_rotations=2, minimize_top=1, minimizer_iterations=1
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: FTMapConfig
    #: A request slower than this counts as failed and ends the run.
    deadline_s: float


WORKLOADS: Dict[str, Workload] = {
    "map-cold": Workload(
        "map-cold",
        FTMapConfig(probe_names=PROBES, minimize_top=2, minimizer_iterations=20),
        deadline_s=30.0,
    ),
    "dock-scan": Workload(
        "dock-scan",
        FTMapConfig(
            probe_names=PROBES,
            num_rotations=72,
            minimize_top=1,
            minimizer_iterations=5,
        ),
        deadline_s=30.0,
    ),
}


# -- inputs -------------------------------------------------------------------------


def receptor(seed: int) -> Molecule:
    return synthetic_protein(n_residues=RESIDUES, seed=seed)


@dataclass
class Inputs:
    """Everything a workload sends, drawn from one seed."""

    tag: str
    warmup: Molecule
    receptor_seeds: List[int]
    receptors: List[Molecule]

    def receptor_seed(self, index: int) -> int:
        """Seed of request ``index``'s receptor (drawn past the list too)."""
        if index < len(self.receptor_seeds):
            return self.receptor_seeds[index]
        return random.Random(f"{self.tag}:extra:{index}").randrange(2**31)


def make_inputs(workload: Workload, seed: int) -> Inputs:
    tag = f"{workload.name}:{seed}"
    rng = random.Random(tag)
    draws = [rng.randrange(2**31) for _ in range(1 + RECEPTORS)]
    return Inputs(tag, receptor(draws[0]), draws[1:], [receptor(s) for s in draws[1:]])


def comparable(result_doc: dict) -> dict:
    """A ``to_dict()["result"]`` document without cache provenance.

    ``minimize_cached`` (whether the stage was served from cache) is
    checked on its own; everything else must match bit for bit.
    """
    probes = {
        name: {k: v for k, v in probe.items() if k != "minimize_cached"}
        for name, probe in result_doc["probes"].items()
    }
    return {"probes": probes, "sites": result_doc["sites"]}


def minimize_cached_flags(result_doc: dict) -> List[bool]:
    return [bool(p["minimize_cached"]) for p in result_doc["probes"].values()]


# -- set-up -------------------------------------------------------------------------


@dataclass
class Session:
    """What one set-up built; ``close`` tears it down."""

    workload: Workload
    service: FTMapService
    fingerprints: List[str]
    warmup_fingerprint: str
    gateway: Optional[GatewayServer] = None
    client: Optional[GatewayClient] = None

    @property
    def config(self) -> FTMapConfig:
        return self.workload.config

    def start_gateway(self) -> GatewayClient:
        if self.gateway is None:
            self.gateway = GatewayServer(self.service, [TENANT]).start()
            self.client = GatewayClient(
                self.gateway.url,
                api_key=TENANT.api_key,
                timeout_s=self.workload.deadline_s,
            )
        assert self.client is not None
        return self.client

    def close(self, wait: bool = True) -> None:
        if self.gateway is not None:
            self.gateway.close()
        self.service.close(wait=wait)


def setup(workload: Workload, inputs: Inputs) -> Session:
    """Start the service, register the receptors, warm up."""
    service = FTMapService(config=workload.config)
    session = Session(
        workload,
        service,
        [service.register_receptor(m) for m in inputs.receptors],
        service.register_receptor(inputs.warmup),
    )
    service.map(session.warmup_fingerprint, WARMUP_CONFIG, streaming="sequential")
    service.map(session.warmup_fingerprint, WARMUP_CONFIG)
    return session


def cold_setup(workload: Workload, seed: int, started: float):
    """Generate the inputs, then set up; returns the inputs, session and ``setup_s``.

    ``setup_s`` runs from ``started`` (the start of the entry point, before
    ``repro`` was imported) to the first request, less the input generation:
    that is the harness's work, not the service's.
    """
    t_inputs = time.perf_counter()
    inputs = make_inputs(workload, seed)
    t_setup = time.perf_counter()
    session = setup(workload, inputs)
    setup_s = (t_inputs - started) + (time.perf_counter() - t_setup)
    return inputs, session, setup_s


def setup_only(workload: Workload, seed: int, started: float) -> float:
    """One cold set-up in this process, torn down again; returns ``setup_s``."""
    _, session, setup_s = cold_setup(workload, seed, started)
    session.close()
    return setup_s


def child_setups(workload: Workload, seed: int, count: int) -> List[float]:
    """``setup_s`` of ``count`` cold set-ups, each in a fresh child process."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", workload.name, "--seed", str(seed), "--seconds", "0",
             "--setup-only"],
            capture_output=True, text=True, timeout=30, check=True,
        )
        times.append(float(json.loads(done.stdout.splitlines()[-1])["setup_s"]))
    return times


def abort(session: Session, grace_s: float = 5.0) -> None:
    """End a run that missed a deadline: close without waiting, kill workers.

    A killed worker fails the stuck job, whose thread then unlinks its
    shared memory; the pool may fork a replacement first, so workers are
    killed until none is left and the shared memory is released.
    """
    try:
        session.close(wait=False)
    finally:
        give_up = time.monotonic() + grace_s
        while time.monotonic() < give_up and (stop_children() or shm_bytes_in_use()):
            time.sleep(0.1)
        stop_children()


def stop_children() -> int:
    """Terminate and reap every child process still alive; returns the count."""
    children = mp.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join(5.0)
    return len(children)


# -- requests -----------------------------------------------------------------------


@dataclass
class Outcome:
    """One request as the client saw it."""

    latency_s: float
    ok: bool
    wall_time_s: float = 0.0
    result: Optional[dict] = None
    streaming: str = ""
    cache_stats: Optional[dict] = None
    result_bytes: int = 0
    error: str = ""
    #: Missed the deadline (the request may still be running).
    late: bool = False


def map_cold(session: Session, inputs: Inputs, index: int) -> Outcome:
    """One in-process ``FTMapService.map`` request on fresh receptor ``index``."""
    while index >= len(session.fingerprints):
        seed = inputs.receptor_seed(len(session.fingerprints))
        session.fingerprints.append(session.service.register_receptor(receptor(seed)))
    fp = session.fingerprints[index]
    t0 = time.perf_counter()
    mapped = session.service.map(fp, session.config)
    latency = time.perf_counter() - t0
    doc = mapped.to_dict()
    outcome = Outcome(
        latency, True, mapped.wall_time_s, doc["result"], mapped.streaming,
        doc["cache_stats"],
    )
    if any(minimize_cached_flags(doc["result"])) or len(doc["result"]["probes"]) != len(PROBES):
        outcome.ok, outcome.error = False, "cold result served from cache or missing probes"
    return outcome


def gateway_request(
    client: GatewayClient, fingerprint: str, config: FTMapConfig
) -> Outcome:
    """Submit over TCP, wait for the SSE ``status`` event, fetch the result."""
    t0 = time.perf_counter()
    job_id = client.submit(MapRequest(receptor=fingerprint, config=config))
    status = {}
    for event, payload in client.events(job_id):
        if event == "status":
            status = payload
    if status.get("status") != "done":
        return Outcome(time.perf_counter() - t0, False, error=f"job ended {status!r}")
    doc = client.result(job_id)
    latency = time.perf_counter() - t0
    return Outcome(
        latency, True, float(doc["wall_time_s"]), doc["result"], doc["streaming"],
        doc["cache_stats"], len(json.dumps(doc).encode("utf-8")),
    )


def guarded(deadline_s: float, fn: Callable[[], Outcome]) -> Outcome:
    """Run one request on a daemon thread under the deadline.

    A failed request becomes a failed ``Outcome``; a late one is marked
    ``late`` and keeps running, and the caller ends the run with ``abort``.
    """
    box: Dict[str, object] = {}

    def target() -> None:
        try:
            box["outcome"] = fn()
        except Exception as exc:  # a failed request is counted, not fatal
            box["error"] = f"{type(exc).__name__}: {exc}"

    t0 = time.perf_counter()
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(deadline_s)
    elapsed = time.perf_counter() - t0
    if thread.is_alive():
        return Outcome(elapsed, False, error=f"missed the {deadline_s} s deadline", late=True)
    if "error" in box:
        # A socket read that timed out is a missed deadline too.
        late = elapsed >= deadline_s
        return Outcome(elapsed, False, error=str(box["error"]), late=late)
    outcome = box["outcome"]
    assert isinstance(outcome, Outcome)
    return outcome


def check_shm(outcome: Outcome) -> Outcome:
    """With one client, no shared memory may stay leased after a request."""
    leaked = shm_bytes_in_use()
    if leaked and outcome.ok:
        outcome.ok, outcome.error = False, f"{leaked} shared-memory bytes still in use"
    return outcome


def one_request(session: Session, inputs: Inputs, index: int) -> Outcome:
    """Send request ``index`` of the timed loop."""
    deadline = session.workload.deadline_s
    return check_shm(guarded(deadline, lambda: map_cold(session, inputs, index)))


# -- the timed run ------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def replay_check(session: Session, inputs: Inputs, index: int, result_doc: dict) -> Optional[str]:
    """Compare cold request ``index`` with its sequential stage-by-stage replay."""
    try:
        doc = replay_request(
            receptor(inputs.receptor_seed(index)), session.config, NULL_TRACER, detail=False
        )
    except ReplayMismatch as exc:
        return str(exc)
    if comparable(doc) != comparable(result_doc):
        return f"request {index} differs from its sequential replay"
    return None


def run_timed(workload: Workload, seed: int, seconds: float, started: float) -> dict:
    """Set up, run the closed loop for ``seconds``, check outputs.

    ``started`` is when the entry point began, so the set-up the loop runs
    after is timed cold, imports included.
    """
    inputs, session, setup_s = cold_setup(workload, seed, started)
    outcomes: List[Outcome] = []
    aborted = False
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        outcome = one_request(session, inputs, len(outcomes))
        outcomes.append(outcome)
        if outcome.late:
            aborted = True
            break
    phase_s = time.perf_counter() - t_start
    streaming = sorted({o.streaming for o in outcomes if o.streaming})
    if aborted:
        abort(session)
    else:
        session.close()
    leftover = stop_children()
    # Read before the child set-ups, which are reaped children too.
    rss = peak_rss_mb()

    errors = [o.error for o in outcomes if not o.ok]
    if leftover:
        errors.append(f"{leftover} child processes outlived the service")
    setup_times = [setup_s]
    if not aborted:
        try:
            setup_times += child_setups(workload, seed, SETUP_REPEATS - 1)
        except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
            errors.append(f"child set-up failed: {type(exc).__name__}: {exc}")
    if outcomes and not aborted:
        # One request per run, chosen by the seed, is replayed stage by
        # stage; the traced pass replays every request it sends.
        done = [i for i, o in enumerate(outcomes) if o.ok]
        if done:
            index = done[seed % len(done)]
            message = replay_check(session, inputs, index, outcomes[index].result or {})
            if message:
                outcomes[index].ok = False
                errors.append(message)
    failed = sum(1 for o in outcomes if not o.ok)
    latencies = [o.latency_s for o in outcomes if o.ok] or [o.latency_s for o in outcomes]
    completed_probes = len(PROBES) * sum(1 for o in outcomes if o.ok)
    attempted = max(1, len(outcomes))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "map_s": (statistics.median(latencies), "s"),
        "map_p90_s": (p90(latencies), "s"),
        "probes_per_s": (completed_probes / phase_s, "1/s"),
        "peak_rss_mb": (rss, "MiB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not errors,
        "errors": errors,
        "record": {
            "setup_times_s": setup_times,
            "latencies_s": [o.latency_s for o in outcomes],
            "wall_times_s": [o.wall_time_s for o in outcomes],
            "requests_beyond_p90": sum(1 for v in latencies if v > metrics["map_p90_s"][0]),
            "timed_phase_s": phase_s,
            "streaming": streaming,
            "error_rate": failed / attempted,
            "aborted_on_deadline": aborted,
        },
    }
