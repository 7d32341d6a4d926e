"""EXP-OVERHEAD (Table B) — the "low overhead" claim.

Six measurements:

* checkpoint cost (wall time and retained bytes) as a function of RIB
  size — expected shape: linear, small constants;
* clone-restore cost as a function of RIB size, and the share of the
  restored routes that *are* the checkpoint's objects — expected: linear
  in the spine, and exactly 1.0 (a copy reintroduced anywhere between
  ``export_state`` and ``import_state`` drops it to 0.0, which the CI
  regression gate catches without a wall-clock threshold);
* the clones one exploration session spends beyond one per input —
  expected: exactly 1, the null probe (reading the explored router
  restores that one checkpoint, not the system); a counter, so gated;
* what a task ships — attribute values per attribute object in a
  converged 40-router snapshot and the size of its pickle — expected:
  exactly 1.0 (a network's routers hold one object per distinct value)
  and ~470 KiB; both deterministic, so gated;
* snapshot latency (simulated seconds for the marker cut to close) as a
  function of system size — expected shape: bounded by network
  diameter, not node count;
* live-system slowdown while DiCE snapshots it — expected shape:
  indistinguishable totals (exploration happens on clones).

Run:  pytest benchmarks/bench_overhead.py --benchmark-only -s
"""

import pickle
import time

import pytest

import benchlib

from repro import (
    IPv4Address,
    LiveSystem,
    NeighborConfig,
    Prefix,
    RouterConfig,
)
from repro.bgp.config import AddNetwork
from repro.bgp.router import BGPRouter
from repro.core.checkpoint import capture, checkpoint_size
from repro.topo.internet import TopologyParams, build_internet


def router_with_routes(count):
    """A standalone router originating ``count`` /24s."""
    config = RouterConfig(
        name="big",
        local_as=65001,
        router_id=IPv4Address("9.9.9.9"),
        neighbors=(NeighborConfig(peer="peer", peer_as=65002),),
    )
    router = BGPRouter(config)
    for index in range(count):
        prefix = Prefix(
            (10 << 24) | ((index >> 8) << 16) | ((index & 0xFF) << 8), 24
        )
        router.config = AddNetwork(prefix).apply(router.config)
    router._originate_networks()  # noqa: SLF001 - offline, no network
    return router


@pytest.mark.parametrize("routes", [10, 100, 1000, 5000])
def test_checkpoint_cost_vs_rib_size(benchmark, routes):
    """Checkpoint time scales with RIB size; constants stay small."""
    router = router_with_routes(routes)
    checkpoint = benchmark(lambda: capture(router, 0.0))
    size = checkpoint_size(checkpoint)
    print(f"\n  routes={routes:<6} retained={size / 1024:.0f} KiB")
    benchlib.record(
        "overhead",
        metrics={
            f"checkpoint_kib_at_{routes}_routes": round(size / 1024, 1),
            f"checkpoint_ms_at_{routes}_routes": round(
                benchmark.stats.stats.mean * 1000, 3
            ),
        },
        config={"workers": benchlib.workers()},
    )
    assert len(checkpoint.state["loc_rib"]) == routes


@pytest.mark.parametrize("routes", [10, 100, 1000, 5000])
def test_clone_restore_cost_vs_rib_size(benchmark, routes):
    """Restoring a clone builds RIB spines around the checkpoint's own
    route objects: time scales with RIB size, no route is copied."""
    checkpoint = capture(router_with_routes(routes), 0.0)

    def restore():
        clone = BGPRouter(checkpoint.state["config"])
        checkpoint.restore_into(clone)
        return clone

    clone = benchmark(restore)
    shared = sum(
        clone.loc_rib.get(route.prefix) is route
        for route in checkpoint.state["loc_rib"]
    )
    sharing = shared / routes
    print(f"\n  routes={routes:<6} shared with checkpoint={sharing:.0%}")
    benchlib.record(
        "overhead",
        metrics={
            f"restore_ms_at_{routes}_routes": round(
                benchmark.stats.stats.mean * 1000, 3
            ),
            "clone_route_sharing": sharing,
        },
    )
    assert len(clone.loc_rib) == routes
    assert sharing == 1.0


def test_session_clone_budget():
    """One concolic session on demo27 spends a clone per input plus the
    null probe; picking the peer and seeding the grammar read one
    restored router and clone nothing."""
    from repro.checks import default_property_suite
    from repro.core.explorer import ExplorationConfig, Explorer
    from repro.core.sharing import SharingRegistry
    from repro.topo.demo27 import build_demo27

    topology = build_demo27()
    live = LiveSystem.build(topology.configs, topology.links, seed=27)
    live.converge()
    node = topology.nodes_in_tier(1)[0]
    explorer = Explorer(
        live.coordinator.capture(node),
        default_property_suite(),
        SharingRegistry.from_configs(live.initial_configs),
    )
    report = explorer.explore(ExplorationConfig(node=node, inputs=3, seed=1))
    overhead = report.clones_created - report.executions
    print(f"\n  clones={report.clones_created} inputs={report.executions}")
    benchlib.record("overhead", metrics={"session_overhead_clones": overhead})
    assert report.executions == 3
    assert overhead == 1


@pytest.mark.parametrize("scale", [
    TopologyParams(tier1=2, transit=2, stubs=2, seed=1),     # 6 nodes
    TopologyParams(tier1=2, transit=4, stubs=8, seed=1),     # 14 nodes
    TopologyParams(tier1=3, transit=8, stubs=16, seed=2711),  # 27 nodes
], ids=["n6", "n14", "n27"])
def test_snapshot_latency_vs_size(benchmark, scale):
    """Marker-cut latency is diameter-bound, not node-count-bound."""
    topology = build_internet(scale)
    live = LiveSystem.build(topology.configs, topology.links, seed=4)
    live.converge(deadline=600)
    initiator = topology.nodes_in_tier(1)[0]

    def snap():
        return live.coordinator.capture(initiator)

    snapshot = benchmark.pedantic(snap, rounds=3, iterations=1)
    assert snapshot.node_count == scale.total
    print(
        f"\n  nodes={scale.total:<4} cut latency={snapshot.latency * 1000:.1f} ms "
        f"(simulated)"
    )
    benchlib.record(
        "overhead",
        metrics={
            f"cut_latency_ms_at_{scale.total}_nodes": round(
                snapshot.latency * 1000, 2
            )
        },
    )
    # Diameter-bound: even the 27-node system closes in well under a
    # second of simulated time (a few link RTTs).
    assert snapshot.latency < 1.0


def test_live_slowdown_with_dice_attached(benchmark):
    """Simulated work processed per wall second, with periodic marker
    snapshots running vs not."""
    topology = build_internet(TopologyParams(tier1=2, transit=3, stubs=4,
                                             seed=5))

    def run_with_snapshots(enabled):
        live = LiveSystem.build(topology.configs, topology.links, seed=6)
        live.converge(deadline=300)
        live.enable_churn(
            topology.nodes_in_tier(3)[0], Prefix("10.200.0.0/16"),
            period=4.0, start_at=live.network.sim.now + 1,
        )
        deadline = live.network.sim.now + 60
        while live.network.sim.now < deadline:
            live.run(until=live.network.sim.now + 10)
            if enabled:
                live.coordinator.capture(topology.nodes_in_tier(1)[0])
        return live.network.sim.events_run

    baseline_events = run_with_snapshots(False)
    events_with_dice = benchmark.pedantic(
        lambda: run_with_snapshots(True), rounds=1, iterations=1
    )
    overhead = events_with_dice / baseline_events - 1.0
    print(
        f"\n  events without DiCE={baseline_events} "
        f"with DiCE={events_with_dice} (event overhead {overhead:+.1%})"
    )
    benchlib.record(
        "overhead",
        metrics={"live_event_overhead": round(overhead, 4)},
    )
    # Markers add a bounded, small number of events.
    assert overhead < 0.25


def test_snapshot_sharing(benchmark):
    """What a task ships: on a converged 40-router internet every
    distinct attribute value is one object in the snapshot (routers hand
    each other the same decoded message and keep one set per value), so
    pickle writes it once.  The ratio and the size are deterministic and
    gated; the two timings are informational."""
    topology = build_internet(
        TopologyParams(tier1=3, transit=12, stubs=25, seed=2711)
    )
    live = LiveSystem.build(topology.configs, topology.links, seed=0)
    live.converge(deadline=600)
    snapshot = live.coordinator.capture(topology.nodes_in_tier(1)[0])
    held = {}
    for checkpoint in snapshot.checkpoints.values():
        state = checkpoint.state
        ribs = [state["loc_rib"], *state["adj_rib_in"].values(),
                *state["adj_rib_out"].values()]
        for rib in ribs:
            for route in rib:
                held[id(route.attributes)] = route.attributes
    values = len(set(held.values()))
    sharing = values / len(held)
    blob = benchmark(lambda: pickle.dumps(snapshot))
    dumps_ms = benchmark.stats.stats.min * 1000
    started = time.perf_counter()
    restored = pickle.loads(blob)
    loads_ms = (time.perf_counter() - started) * 1000
    print(
        f"\n  {values} attribute values in {len(held)} "
        f"objects (sharing {sharing:.2f}); pickle {len(blob) / 1024:.0f} KiB, "
        f"dumps {dumps_ms:.1f} ms, loads {loads_ms:.1f} ms"
    )
    benchlib.record(
        "overhead",
        metrics={
            "snapshot_attr_sharing": round(sharing, 4),
            "snapshot_pickle_kib": round(len(blob) / 1024, 1),
            "snapshot_dumps_ms": round(dumps_ms, 2),
            "snapshot_loads_ms": round(loads_ms, 2),
        },
    )
    assert restored.node_count == snapshot.node_count
    assert sharing == 1.0


def test_task_shipping_overhead(benchmark):
    """What parallel sharding pays per task: pickling the snapshot,
    suite and claims both ways.  This bounds the break-even exploration
    budget for ``--workers`` (ship cost must stay well under one input's
    exploration cost; see bench_fig2's per-input measurement)."""
    from repro.checks import default_property_suite
    from repro.concolic.frontier import FrontierShard
    from repro.core.explorer import ExplorationConfig
    from repro.core.parallel import ExplorationTask, claims_to_spec
    from repro.core.sharing import SharingRegistry

    topology = build_internet(TopologyParams(tier1=2, transit=3, stubs=4,
                                             seed=5))
    live = LiveSystem.build(topology.configs, topology.links, seed=6)
    live.converge(deadline=300)
    snapshot = live.coordinator.capture(topology.nodes_in_tier(1)[0])
    config = ExplorationConfig(node=topology.nodes_in_tier(2)[0], seed=1)
    task = ExplorationTask(
        config=config,
        shard=FrontierShard(round=0, index=0, count=1, budget=config.inputs),
        snapshot=snapshot,
        suite=default_property_suite(),
        claims=claims_to_spec(
            SharingRegistry.from_configs(live.initial_configs)
        ),
    )

    def ship_round_trip():
        return pickle.loads(pickle.dumps(task))

    restored = benchmark(ship_round_trip)
    wire_bytes = len(pickle.dumps(task))
    print(f"\n  task wire size: {wire_bytes / 1024:.1f} KiB")
    benchlib.record(
        "overhead",
        metrics={"task_wire_kib": round(wire_bytes / 1024, 1)},
    )
    assert restored.snapshot.node_count == snapshot.node_count
