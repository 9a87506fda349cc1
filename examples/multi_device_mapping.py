#!/usr/bin/env python
"""Multi-device mapping: topology config -> service request -> provenance.

The paper's stated future work is a multi-GPU FTMap server (Sec. VI).
This example walks that path end to end on virtual devices:

1. a :class:`~repro.cuda.multigpu.DeviceTopology` describes the node (here 4
   virtual Tesla C1060s) and the predicted shard scaling of the
   minimization phase comes straight from the shared cost models,
2. a :class:`~repro.api.MapRequest` asks for sharded minimization with
   two config knobs (``minimize_engine="multi-gpu-sim"``,
   ``minimize_devices=4``); the service dispatches each probe's
   conformation ensemble across the devices and emits a
   ``minimize-shard`` progress event per shard,
3. the result records **where the work actually ran** — device count,
   per-shard pose counts, reduction order — and a warm repeat skips the
   stage entirely through the shard-invariant minimized-ensemble cache.

Sharding never renumbers anything: the per-pose results are
bitwise-identical to the single-device batched minimizer.

Run:  python examples/multi_device_mapping.py
"""

from __future__ import annotations

from repro import FTMapConfig, synthetic_protein
from repro.api import FTMapService, MapRequest
from repro.cache import CacheManager
from repro.cuda.multigpu import DeviceTopology
from repro.perf.speedup import multigpu_minimization_scaling
from repro.perf.tables import render_table
from repro.obs.logging import RunLogger


def main() -> None:
    log = RunLogger()

    log.section("device topology: 4 virtual C1060s, predicted shard scaling")
    topology = DeviceTopology(num_devices=4)
    for device in topology.devices:
        log.step(f"device {device.index}: {device.spec.name}")
    plan = topology.plan(12)
    log.step(
        f"a 12-pose ensemble shards as {plan.shard_sizes} "
        f"(reduction order {plan.reduction_order})"
    )
    rows, predicted = multigpu_minimization_scaling(device_counts=(1, 2, 4, 8))
    print(render_table("Paper-scale minimization phase vs device count", rows))
    log.step(f"predicted speedup at 4 devices: {predicted[4]:.2f}x")
    log.done()

    log.section("service request: shard the minimization over the devices")
    protein = synthetic_protein(n_residues=40, seed=3)
    config = FTMapConfig(
        probe_names=("ethanol", "benzene"),
        num_rotations=8,
        receptor_grid=32,
        grid_spacing=1.4,
        minimize_top=8,
        minimizer_iterations=10,
        engine="direct",
        minimize_engine="multi-gpu-sim",
        minimize_devices=topology.num_devices,
        cache_policy="memory",
    )
    shard_events = []
    service = FTMapService(
        cache=CacheManager(policy="memory"),
        on_event=lambda e: shard_events.append(e)
        if e.stage == "minimize-shard"
        else None,
    )
    with service:
        receptor_id = service.register_receptor(protein)
        handle = service.submit(
            MapRequest(receptor=receptor_id, config=config, request_id="cold")
        )
        cold = handle.result(timeout=600)
        for event in shard_events:
            log.step(
                f"[{event.job_id}] probe {event.probe}: shard "
                f"{event.index + 1}/{event.total} dispatched"
            )
        log.done("cold request mapped")

        log.section("shard provenance: where the work actually ran")
        for name, prov in cold.minimize_provenance.items():
            log.step(
                f"{name}: backend={prov['backend']} devices={prov['devices']} "
                f"shards={prov['shard_sizes']} "
                f"reduction={prov['reduction_order']} cached={prov['cached']}"
            )
        log.done()

        log.section("warm repeat: the minimized ensembles ride the cache")
        warm = service.map(receptor_id, config)
        for name, prov in warm.minimize_provenance.items():
            log.step(
                f"{name}: cached={prov['cached']} (no shards ran: "
                f"shards={prov['shard_sizes']})"
            )
        stats = warm.cache_stats
        log.step(
            f"warm request: {stats.hits}/{stats.lookups} cache hits "
            f"({stats.hit_rate:.0%}), {warm.wall_time_s:.2f}s vs cold "
            f"{cold.wall_time_s:.2f}s"
        )
    # The invariant that makes all of this safe to deploy: sharded
    # results equal the cached (originally sharded) ones bitwise.
    for name in cold.probe_results:
        a = cold.probe_results[name].minimized_energies
        b = warm.probe_results[name].minimized_energies
        assert (a == b).all()
    log.done("multi-device mapping served")


if __name__ == "__main__":
    main()
