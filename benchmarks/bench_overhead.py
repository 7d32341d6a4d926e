"""EXP-OVERHEAD (Table B) — the "low overhead" claim.

Ten measurements:

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
* the routers a clone restores — expected: only those its run reaches,
  1 per clone for grammar inputs at a converged 40-router internet's
  transit router over a 3 s horizon, where every router was restored
  before clones were copy-on-touch; a counter, so gated;
* what a clone of that internet costs before anything runs — expected:
  one heap entry per router with timers (40, not one per checkpoint
  timer) and no link made; both counters, so gated, beside the
  wall-clock ms, informational;
* what a task ships — attribute set, prefix, AS path and address
  values per object in a converged 40-router snapshot, the size of its
  pickle and of a smaller system's whole task — expected: exactly 1.0
  each (a network's routers hold one object per distinct value),
  ~188 KiB (a router's RIBs pickle as rows) and ~23 KiB; all
  deterministic, so gated;
* the RIB blocks a pooled demo27 campaign pickles for its four
  captures — expected: 1, as no router's RIBs change between them; a
  counter, so gated;
* the RIB containers a steady-state demo27 capture builds — expected:
  0 of 235, as a capture hands back the last one's container for every
  RIB that has not changed; a counter, so gated;
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
from repro.net import network as network_module
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


def test_session_clone_budget(benchmark):
    """One concolic session on demo27 spends a clone per input plus the
    null probe; picking the peer and seeding the grammar read one
    restored router and clone nothing."""
    from repro.checks import default_property_suite
    from repro.core.explorer import ExplorationConfig, Explorer
    from repro.core.sharing import ClaimTable
    from repro.topo.demo27 import build_demo27

    topology = build_demo27()
    live = LiveSystem.build(topology.configs, topology.links, seed=27)
    live.converge()
    node = topology.nodes_in_tier(1)[0]
    explorer = Explorer(
        live.coordinator.capture(node),
        default_property_suite(),
        ClaimTable.from_configs(live.initial_configs),
    )
    report = benchmark.pedantic(
        explorer.explore, (ExplorationConfig(node=node, inputs=3, seed=1),),
        rounds=1, iterations=1,
    )
    overhead = report.clones_created - report.executions
    print(f"\n  clones={report.clones_created} inputs={report.executions}")
    benchlib.record("overhead", metrics={"session_overhead_clones": overhead})
    assert report.executions == 3
    assert overhead == 1


@pytest.fixture(scope="module")
def internet40():
    """The converged 40-router internet of the e2e internet40 campaign:
    its topology, live system and one snapshot initiated at its first
    tier-1 router.  A capture advances the live system, so it is taken
    here, once, and every test reads the same snapshot whichever tests
    run."""
    topology = build_internet(
        TopologyParams(tier1=3, transit=12, stubs=25, seed=2711)
    )
    live = LiveSystem.build(topology.configs, topology.links, seed=0)
    live.converge(deadline=600)
    return topology, live, live.coordinator.capture(
        topology.nodes_in_tier(1)[0])


def test_routers_restored_per_clone(benchmark, internet40):
    """Clones restore a router only once something reaches it.  Grammar
    inputs at a transit router of a converged 40-router internet (the
    e2e internet40 campaign's) change nothing its neighbours hear within
    a 3 s horizon, and no checkpoint timer comes up that soon, so each
    clone restores the explored router alone (40, every router, while
    clones restored eagerly)."""
    from repro.checks import default_property_suite
    from repro.core.explorer import (
        STRATEGY_GRAMMAR,
        ExplorationConfig,
        Explorer,
    )
    from repro.core.sharing import ClaimTable

    topology, live, snapshot = internet40
    node = topology.nodes_in_tier(2)[0]
    explorer = Explorer(
        snapshot,
        default_property_suite(),
        ClaimTable.from_configs(live.initial_configs),
    )
    restored = []
    new_clone = explorer._new_clone

    def counted(seed):
        # Every clone is closed once read; count what it built by then.
        clone = new_clone(seed)
        close = clone.close

        def counted_close():
            restored.append(len(clone.materialized()))
            close()

        clone.close = counted_close
        return clone

    explorer._new_clone = counted
    report = benchmark.pedantic(explorer.explore, (ExplorationConfig(
        node=node, inputs=4, strategy=STRATEGY_GRAMMAR, horizon=3.0, seed=1,
    ),), rounds=1, iterations=1)
    assert len(restored) == report.clones_created
    per_clone = sum(restored) / report.clones_created
    print(f"\n  clones={report.clones_created} restores={sum(restored)} "
          f"per clone={per_clone:.2f} of {len(topology.configs)} routers")
    benchlib.record(
        "overhead", metrics={"routers_restored_per_clone": per_clone}
    )
    assert report.clones_created == 5
    assert per_clone == 1.0


def test_clone_setup(benchmark, internet40, monkeypatch):
    """What ``Snapshot.clone`` does before anything runs, at the same
    converged 40-router internet: heap entries it writes (328 while a
    clone scheduled one placeholder per checkpoint timer, 40 since it
    schedules one per router, its earliest timer) and links it makes
    (82, every link, while a clone made them up front, 0 since a link is
    made when a message first crosses it).  Counters, so gated; the
    median ms per clone is wall clock, so informational."""
    from repro.core.live import bgp_process_factory

    _, _, snapshot = internet40
    made = []

    class CountedLink(network_module.Link):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(network_module, "Link", CountedLink)
    clone = snapshot.clone(bgp_process_factory, seed=1)
    events = len(clone.sim._queue)  # noqa: SLF001 - measuring the queue
    links = len(made)
    clone.close()
    benchmark(lambda: snapshot.clone(bgp_process_factory, seed=1).close())
    setup_ms = benchmark.stats.stats.median * 1000
    print(f"\n  routers={snapshot.node_count} "
          f"timers={sum(len(c.timers) for c in snapshot.checkpoints.values())} "
          f"links={len(snapshot.links)}: clone set-up events={events} "
          f"links made={links} {setup_ms:.3f} ms")
    benchlib.record(
        "overhead",
        metrics={
            "clone_setup_events": events,
            "clone_setup_links": links,
            "clone_setup_ms": round(setup_ms, 3),
        },
    )
    assert events == snapshot.node_count
    assert links == 0


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
    distinct attribute set, prefix, AS path and address value is one
    object in the snapshot (routers hand each other the same decoded
    message and keep one object per value), so pickle writes each once,
    and the RIBs pickle as rows.  The ratios and the size are deterministic and
    gated; the two timings are informational."""
    topology = build_internet(
        TopologyParams(tier1=3, transit=12, stubs=25, seed=2711)
    )
    live = LiveSystem.build(topology.configs, topology.links, seed=0)
    live.converge(deadline=600)
    snapshot = live.coordinator.capture(topology.nodes_in_tier(1)[0])
    held = {"attribute": {}, "prefix": {}, "AS path": {}, "address": {}}

    def hold(kind, value):
        held[kind][id(value)] = value

    for checkpoint in snapshot.checkpoints.values():
        state = checkpoint.state
        for session in state["sessions"].values():
            if session["peer_bgp_id"] is not None:
                hold("address", session["peer_bgp_id"])
        ribs = [state["loc_rib"], *state["adj_rib_in"].values()]
        for rib in ribs:
            for route in rib:
                hold("prefix", route.prefix)
                hold("attribute", route.attributes)
                if route.peer_bgp_id is not None:
                    hold("address", route.peer_bgp_id)
        # an Adj-RIB-Out maps each prefix to the attribute set sent
        for sent in state["adj_rib_out"].values():
            for prefix, attributes in sent.items():
                hold("prefix", prefix)
                hold("attribute", attributes)
    for attributes in list(held["attribute"].values()):
        hold("AS path", attributes.as_path)
        if attributes.next_hop is not None:
            hold("address", attributes.next_hop)
    sharing = {
        kind: len(set(objects.values())) / len(objects)
        for kind, objects in held.items()
    }
    blob = benchmark(lambda: pickle.dumps(snapshot))
    dumps_ms = benchmark.stats.stats.min * 1000
    loads = []
    for _ in range(20):
        started = time.perf_counter()
        restored = pickle.loads(blob)
        loads.append(time.perf_counter() - started)
    loads_ms = min(loads) * 1000
    for kind, objects in held.items():
        print(f"\n  {len(set(objects.values()))} {kind} values in "
              f"{len(objects)} objects (sharing {sharing[kind]:.2f})", end="")
    print(
        f"\n  pickle {len(blob) / 1024:.0f} KiB, "
        f"dumps {dumps_ms:.1f} ms, loads {loads_ms:.1f} ms (best of 20)"
    )
    benchlib.record(
        "overhead",
        metrics={
            "snapshot_attr_sharing": round(sharing["attribute"], 4),
            "snapshot_prefix_sharing": round(sharing["prefix"], 4),
            "snapshot_aspath_sharing": round(sharing["AS path"], 4),
            "snapshot_address_sharing": round(sharing["address"], 4),
            "snapshot_pickle_kib": round(len(blob) / 1024, 1),
            "snapshot_dumps_ms": round(dumps_ms, 2),
            "snapshot_loads_best_ms": round(loads_ms, 2),
        },
    )
    assert restored.node_count == snapshot.node_count
    assert sharing == {
        "attribute": 1.0, "prefix": 1.0, "AS path": 1.0, "address": 1.0,
    }


def test_task_shipping_overhead(benchmark):
    """What parallel sharding pays per task: pickling the snapshot,
    suite and claims both ways.  This bounds the break-even exploration
    budget for ``--workers`` (ship cost must stay well under one input's
    exploration cost, about 10 ms on a 9-router internet; see
    "Exploration claims" in docs/architecture.md)."""
    from repro.checks import default_property_suite
    from repro.concolic.frontier import FrontierShard
    from repro.core.explorer import ExplorationConfig
    from repro.core.parallel import ExplorationTask
    from repro.core.sharing import ClaimTable

    topology = build_internet(TopologyParams(tier1=2, transit=3, stubs=4,
                                             seed=5))
    live = LiveSystem.build(topology.configs, topology.links, seed=6)
    live.converge(deadline=300)
    snapshot = live.coordinator.capture(topology.nodes_in_tier(1)[0])
    config = ExplorationConfig(node=topology.nodes_in_tier(2)[0], seed=1)
    task = ExplorationTask(
        config=config,
        shard=FrontierShard(index=0, count=1, budget=config.inputs),
        snapshot=snapshot,
        suite=default_property_suite(),
        claims=ClaimTable.from_configs(live.initial_configs),
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


def test_rib_blocks_pickled(benchmark, monkeypatch):
    """What a pooled campaign pickles per capture: the e2e
    demo27-parallel campaign (tr-1 and tr-2, 2 cycles of 2 inputs, seed
    27, two loopback slots).  Its four captures hold the same RIB
    objects, so the campaign pickles one RIB block (4 while every
    capture pickled its RIBs) and each slot decodes it once; a counter,
    so gated.  The payload's total ``dumps`` and ``loads`` ms are wall
    clock, so informational."""
    from repro import DiceOrchestrator, OrchestratorConfig
    from repro.checks import default_property_suite
    from repro.core.parallel import ExplorationTask
    from repro.core.payload import SnapshotEncoder
    from repro.topo.demo27 import build_demo27

    encoders, dumps, loads = [], [], []
    encode = SnapshotEncoder.__call__
    resolve = ExplorationTask.resolve_snapshot

    def timed_encode(encoder, snapshot):
        if encoder not in encoders:
            encoders.append(encoder)
        started = time.perf_counter()
        payload = encode(encoder, snapshot)
        dumps.append(time.perf_counter() - started)
        return payload

    def timed_resolve(task):
        started = time.perf_counter()
        snapshot = resolve(task)
        loads.append(time.perf_counter() - started)
        return snapshot

    monkeypatch.setattr(SnapshotEncoder, "__call__", timed_encode)
    monkeypatch.setattr(ExplorationTask, "resolve_snapshot", timed_resolve)
    topology = build_demo27()
    live = LiveSystem.build(topology.configs, topology.links, seed=0)
    live.converge(deadline=600)
    result = benchmark.pedantic(
        DiceOrchestrator(live, default_property_suite()).run_campaign,
        (OrchestratorConfig(
            explorer_nodes=["tr-1", "tr-2"], cycles=2, inputs_per_node=2,
            grammar_seeds=1, horizon=3.0, seed=27, workers=2,
            transport="loopback",
        ),), rounds=1, iterations=1,
    )
    (encoder,) = encoders
    blocks = encoder.blocks_pickled
    print(f"\n  captures={len(dumps)} rib blocks pickled={blocks} "
          f"payload dumps {sum(dumps) * 1000:.1f} ms, "
          f"loads {sum(loads) * 1000:.1f} ms over {len(loads)} tasks")
    benchlib.record(
        "overhead",
        metrics={
            "rib_blocks_pickled": blocks,
            "payload_dumps_ms": round(sum(dumps) * 1000, 2),
            "payload_loads_ms": round(sum(loads) * 1000, 2),
        },
    )
    assert len(dumps) == result.snapshots_taken == 4
    assert blocks == 1


def test_rib_containers_built_per_capture(benchmark):
    """What a steady-state capture rebuilds: converged demo27, captured
    once, run 30 simulated seconds (keepalives, no route change) and
    captured again.  The second capture's RIB containers — each
    router's Loc-RIB and its Adj-RIB-In and Adj-RIB-Out per peer, 235
    in all — that are not the first capture's own objects: 235 while
    every capture built every container, 0 since a capture hands back
    the last one's for a RIB that has not changed.  A counter, so
    gated; the capture's ms is wall clock, so informational."""
    from repro.topo.demo27 import build_demo27

    def containers(snapshot):
        found = {}
        for name, checkpoint in snapshot.checkpoints.items():
            state = checkpoint.state
            found[name, "loc_rib", None] = state["loc_rib"]
            for field in ("adj_rib_in", "adj_rib_out"):
                for peer, container in state[field].items():
                    found[name, field, peer] = container
        return found

    topology = build_demo27()
    live = LiveSystem.build(topology.configs, topology.links, seed=0)
    live.converge(deadline=600)
    first = containers(live.coordinator.capture("tr-1"))
    live.run(until=live.network.sim.now + 30.0)
    second = benchmark.pedantic(
        live.coordinator.capture, ("tr-2",), rounds=1, iterations=1
    )
    second = containers(second)
    built = sum(
        container is not first.get(key) for key, container in second.items()
    )
    capture_ms = benchmark.stats.stats.min * 1000
    print(f"\n  rib containers built={built} of {len(second)}, "
          f"capture {capture_ms:.2f} ms")
    benchlib.record(
        "overhead",
        metrics={
            "rib_containers_built_per_capture": built,
            "steady_capture_ms": round(capture_ms, 3),
        },
    )
    assert len(second) == 235
    assert built == 0
