"""Benchmark entry point: one workload, one run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload map-cold --seed 1 --seconds 40 --trace 0

``--trace 0`` times the workload's closed loop with tracing off and prints
the end-to-end metrics; ``--trace 1`` runs the traced pass instead and
prints the per-layer metrics plus the measured paper profiles next to the
paper's and the cost model's.  The last line of standard output is the
result object; the run record (host fingerprint, seed, streaming modes,
raw samples) and, for traced runs, a chrome://tracing file are written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import multiprocessing as mp
import os
import platform
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def blas_info() -> dict:
    """BLAS library and its thread count, as numpy reports them."""
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (KeyError, TypeError):
        pass
    libs = glob.glob(
        os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    )
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


#: prctl option that re-parents orphaned descendants to the caller (Linux).
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process, where
    ``stop_descendants`` finds and reaps them (Linux only; a no-op elsewhere)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list:
    """Pids of this process's children, exited ones included, read from /proc."""
    me, pids = os.getpid(), []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            fields = Path(stat).read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(stat.split("/")[2]))
    return pids


def stop_descendants(grace_s: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Stage workers are terminated; the multiprocessing resource tracker
    exits once its pipe is closed; orphans of child processes come back
    here as children (see ``become_subreaper``).  Whatever is still alive
    after ``grace_s`` is killed.
    """
    from multiprocessing import resource_tracker

    import workloads as wl

    wl.stop_children()
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = tracker._pid = None
    kill_at = time.monotonic() + grace_s
    give_up = kill_at + grace_s
    while time.monotonic() < give_up:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        alive = child_pids()
        if not alive:
            return
        if time.monotonic() >= kill_at:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)
    print(f"perfbench: child processes {child_pids()} did not end", file=sys.stderr)


def host_fingerprint() -> dict:
    import numpy as np

    from repro.util.parallel import usable_cpus

    methods = mp.get_all_start_methods()
    return {
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        # ProcessWorkerPool's choice: fork where available, else spawn.
        "worker_start_method": "fork" if "fork" in methods else "spawn",
    }


def print_report(workload: str, trace: bool, result: dict) -> None:
    print(f"workload {workload}  trace={int(trace)}  correct={result['correct']}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    for error in result["errors"]:
        print(f"  check failed: {error}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    record = result["record"]
    if "error_rate" in record:
        print(f"  {'error_rate':34s} {record['error_rate']:14.6g} ratio")
        print(f"  requests beyond p90: {record['requests_beyond_p90']}")
    print(f"  streaming: {', '.join(record['streaming']) or 'none'}")
    if trace:
        print("  self time per layer (traced replay and gateway requests):")
        for layer, seconds in record["self_time_s"].items():
            print(f"    {layer:12s} {seconds:10.4f} s")
        print("  work per request (fixed by the inputs; reported, not scored):")
        for name, value in record["fixed_work"].items():
            print(f"    {name:28s} {value:10.6g} count")
        print("  paper profiles: paper figure | cost model (repro.perf.profiles, a model) "
              "| measured on this host")
        for name, row in record["profiles"].items():
            print(f"    {name:28s} paper {row['paper']:7.4f} | model {row['model']:7.4f} "
                  f"| measured {row['measured']:7.4f}")
        print(f"  chrome trace: {record['chrome_trace']}")


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # A timed run sends itself back with this flag for its extra cold set-ups.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The library's defaults, not the caller's environment, set the cache policy.
    for var in ("REPRO_CACHE_POLICY", "REPRO_CACHE_DIR", "REPRO_CACHE_MEMORY_BYTES"):
        os.environ.pop(var, None)

    import workloads as wl

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    become_subreaper()
    try:
        if args.setup_only:
            setup_s = wl.setup_only(workload, args.seed, started)
        elif args.trace:
            import traced

            result = traced.run_traced(workload, args.seed, OUT)
        else:
            result = wl.run_timed(workload, args.seed, args.seconds, started)
    finally:
        stop_descendants()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "config": workload.config.to_dict(),
        "host": host_fingerprint(),
        "correct": result["correct"],
        "errors": result["errors"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        **result["record"],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    print_report(workload.name, bool(args.trace), result)
    print(f"  run record: {record_path}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
