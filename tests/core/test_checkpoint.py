"""Tests for lightweight node checkpoints."""

import pickle
from collections import deque
from dataclasses import replace

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.config import AddNetwork, RemoveNetwork, RouterConfig
from repro.bgp.damping import FLAP_WITHDRAW, DampingParams
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.rib import AdjRibIn, AdjRibOut, LocRib, RibChange
from repro.bgp.route import Route
from repro.bgp.router import BGPRouter
from repro.checks.oscillation import RouteStability
from repro.core.checkpoint import capture, checkpoint_size
from repro.core.live import LiveSystem, bgp_process_factory
from repro.core.properties import CheckContext
from repro.core.sharing import SharingRegistry
from repro.differential.extract import capture_canonical_ribs
from repro.net.network import Network
from repro.topo.gadgets import build_bad_gadget
from repro.topo.internet import TopologyParams, build_internet


class TestCapture:
    def test_checkpoint_metadata(self, converged3):
        router = converged3.router("r2")
        checkpoint = capture(router, converged3.network.sim.now)
        assert checkpoint.node == "r2"
        assert checkpoint.taken_at == converged3.network.sim.now
        assert checkpoint.wall_time_s >= 0

    def test_restore_reproduces_state(self, converged3):
        router = converged3.router("r2")
        checkpoint = capture(router, converged3.network.sim.now)
        clone = BGPRouter(checkpoint.state["config"])
        clone.attach(converged3.network)
        checkpoint.restore_into(clone)
        assert set(clone.loc_rib.prefixes()) == set(router.loc_rib.prefixes())
        assert clone.established_peers() == router.established_peers()

    def test_checkpoint_isolated_from_live_mutation(self, converged3):
        """Mutating the router after capture must not affect the
        checkpoint — the isolation DiCE's exploration depends on."""
        router = converged3.router("r2")
        checkpoint = capture(router, 0.0)
        routes_before = len(checkpoint.state["loc_rib"])
        # Mutate the live router heavily.
        router.apply_config_change(RemoveNetwork(Prefix("10.2.0.0/16")))
        for peer in list(router.adj_rib_in):
            router.adj_rib_in[peer].clear()
        assert len(checkpoint.state["loc_rib"]) == routes_before

    def test_two_restores_do_not_share_state(self, converged3):
        router = converged3.router("r2")
        checkpoint = capture(router, 0.0)
        clone_a = BGPRouter(checkpoint.state["config"])
        clone_b = BGPRouter(checkpoint.state["config"])
        clone_a.attach(converged3.network)
        clone_b.attach(converged3.network)
        checkpoint.restore_into(clone_a)
        checkpoint.restore_into(clone_b)
        clone_a.adj_rib_in["r1"].clear()
        assert len(clone_b.adj_rib_in["r1"]) > 0


class TestSize:
    def test_size_positive(self, converged3):
        checkpoint = capture(converged3.router("r2"), 0.0)
        assert checkpoint_size(checkpoint) > 0

    def test_size_grows_with_rib(self, converged3):
        router = converged3.router("r2")
        small = checkpoint_size(capture(router, 0.0))
        for index in range(200):
            router.apply_config_change(
                AddNetwork(Prefix((10 << 24) | (100 << 16) | (index << 8), 24))
            )
        large = checkpoint_size(capture(router, 0.0))
        assert large > small


# -- zero-copy isolation (docs/architecture.md invariant 5) -----------------

# What a checkpoint, its clones and the live router are allowed to share.
_ATOMS = (str, bytes, int, float, bool, type(None))
_IMMUTABLE_LEAVES = (
    Route, PathAttributes, AsPath, Prefix, IPv4Address, RibChange,
    RouterConfig, DampingParams,
)
_SHAREABLE = _ATOMS + _IMMUTABLE_LEAVES
# Everything a router's import_state rebuilds.  `network`, the hooks and
# the timer callbacks lead back into the owning simulation, not into state.
_STATE_ATTRS = (
    "sessions", "adj_rib_in", "adj_rib_out", "loc_rib", "_pending_export",
    "dampener", "_timers",
)


def reachable(*roots, leaves: tuple = ()) -> list[object]:
    """Every object reachable from ``roots``, once each (by identity).
    Atoms, callables and instances of ``leaves`` are neither listed nor
    looked into."""
    seen: dict[int, object] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _ATOMS + leaves) or callable(obj):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        else:
            for klass in type(obj).__mro__:
                stack.extend(
                    getattr(obj, slot)
                    for slot in getattr(klass, "__slots__", ())
                    if hasattr(obj, slot)
                )
            stack.extend(getattr(obj, "__dict__", {}).values())
    return list(seen.values())


def mutable_objects(*roots) -> dict[int, object]:
    """Every object reachable from ``roots`` that is not an immutable
    leaf, keyed by identity.  Tuples are looked through."""
    return {
        id(obj): obj
        for obj in reachable(*roots, leaves=_IMMUTABLE_LEAVES)
        if not isinstance(obj, (tuple, frozenset))
    }


def router_state_objects(network) -> dict[int, object]:
    return mutable_objects(
        *(
            getattr(router, attr)
            for router in network.processes.values()
            for attr in _STATE_ATTRS
        )
    )


def exported(network) -> dict[str, dict]:
    return {name: p.export_state() for name, p in sorted(network.processes.items())}


@pytest.fixture(scope="module")
def demo27_mid_churn(demo27_topology):
    """demo27 with MRAI and damping on, snapshotted just after a stub
    flapped, so that pending-export maps, dampener entries and MRAI/hold
    timers are all populated when the cut is taken."""
    configs = [
        replace(config, mrai=2.0, damping=DampingParams())
        for config in demo27_topology.configs
    ]
    live = LiveSystem.build(configs, demo27_topology.links, seed=27)
    live.converge(deadline=600)
    stub = demo27_topology.nodes_in_tier(3)[0]
    prefix = live.router(stub).config.networks[0]
    live.apply_change(stub, RemoveNetwork(prefix))
    live.run(until=live.network.sim.now + 0.5)
    live.apply_change(stub, AddNetwork(prefix))
    live.run(until=live.network.sim.now + 0.3)
    snapshot = live.coordinator.capture(demo27_topology.nodes_in_tier(1)[0])
    return live, snapshot


def wreck(clone) -> None:
    """Write to every container of every router in ``clone``."""
    bogus = Prefix("203.0.113.0/24")
    for router in clone.processes.values():
        router.apply_config_change(AddNetwork(bogus))
        for session in router.sessions.values():
            session.stats.updates_received += 1000
            session.reset()
        for peer, rib in router.adj_rib_in.items():
            for route in list(rib.routes()):
                if router.dampener is not None:
                    router.dampener.record_flap(
                        peer, route.prefix, FLAP_WITHDRAW, clone.sim.now
                    )
            rib.clear()
            rib.update(router._static_route(bogus))
        for rib in router.adj_rib_out.values():
            rib.clear()
        for prefix in list(router.loc_rib.prefixes()):
            router.loc_rib.set(clone.sim.now, prefix, None)
        for pending in router._pending_export.values():
            pending.clear()
        router._pending_export["nobody"] = {}
        if router.dampener is not None:
            router.dampener._entries.clear()
        router.cancel_all_timers()
        router.set_timer("bogus", 1.0)
        router.sessions.clear()
        router.adj_rib_in.clear()
        router.adj_rib_out.clear()


class TestZeroCopyIsolation:
    def test_fixture_populates_every_container(self, demo27_mid_churn):
        _, snapshot = demo27_mid_churn
        states = [cp.state for cp in snapshot.checkpoints.values()]
        for key in ("timers", "sessions", "adj_rib_in", "adj_rib_out",
                    "loc_rib", "pending_export", "damping"):
            assert any(state[key] for state in states), key
        assert any(p for s in states for p in s["pending_export"].values())

    def test_only_immutable_leaves_are_shared(self, demo27_mid_churn):
        """Export side: checkpoint vs live.  Import side: clone vs
        checkpoint, clone vs clone.  No container in common anywhere."""
        live, snapshot = demo27_mid_churn
        holders = {
            "live": router_state_objects(live.network),
            "snapshot": mutable_objects(
                *(cp.state for cp in snapshot.checkpoints.values())
            ),
            "clone_a": router_state_objects(
                snapshot.clone(bgp_process_factory, seed=1)
            ),
            "clone_b": router_state_objects(
                snapshot.clone(bgp_process_factory, seed=2)
            ),
        }
        names = sorted(holders)
        for i, first in enumerate(names):
            assert len(holders[first]) > 27  # the walk found the containers
            for second in names[i + 1:]:
                shared = holders[first].keys() & holders[second].keys()
                assert not shared, (
                    f"{first} and {second} share "
                    f"{sorted({type(holders[first][k]).__name__ for k in shared})}"
                )

    def test_routers_share_leaves_and_no_container(self, demo27_mid_churn):
        """Routers of one network now hold the *same* attribute sets,
        AS paths, prefixes and addresses (one object per distinct value
        on the wire).  Everything two routers have in common must be an
        immutable leaf: no container is reachable from both."""
        live, _ = demo27_mid_churn
        owner: dict[int, str] = {}
        for name, router in sorted(live.network.processes.items()):
            mine = mutable_objects(
                *(getattr(router, attr) for attr in _STATE_ATTRS)
            )
            for key, obj in mine.items():
                assert key not in owner, (
                    f"{name} and {owner[key]} share a {type(obj).__name__}"
                )
                owner[key] = name
        def state_of(name):
            router = live.router(name)
            return {
                id(obj): obj
                for obj in reachable(
                    *(getattr(router, attr) for attr in _STATE_ATTRS)
                )
            }

        first, second = state_of("t1-1"), state_of("t1-2")  # neighbors
        shared = {type(first[key]) for key in first.keys() & second.keys()}
        assert {PathAttributes, AsPath, Prefix, IPv4Address} <= shared
        # ... and nothing else but the tuples inside those leaves and
        # the one empty read-only ``Route.sym`` every plain route has.
        no_sym = type(Route(Prefix("10.0.0.0/8"), PathAttributes()).sym)
        assert shared <= set(_IMMUTABLE_LEAVES) | {tuple, no_sym}

    @pytest.mark.parametrize("pickled", [False, True],
                             ids=["captured", "unpickled"])
    def test_one_attribute_object_per_distinct_value(
        self, demo27_mid_churn, pickled
    ):
        """774 values in 2 577 objects on converged demo27 before the
        routers shared what they learn; pickle's memo carries the
        sharing across the wire, so a worker's copy is as small."""
        _, snapshot = demo27_mid_churn
        if pickled:
            snapshot = pickle.loads(pickle.dumps(snapshot))
        sets = [
            obj for obj in reachable(snapshot.checkpoints)
            if type(obj) is PathAttributes
        ]
        assert len(sets) > 500
        assert len(sets) == len(set(sets))

    def test_routes_are_shared_not_copied(self, demo27_mid_churn):
        _, snapshot = demo27_mid_churn
        clone = snapshot.clone(bgp_process_factory, seed=1)
        for name, checkpoint in snapshot.checkpoints.items():
            router = clone.processes[name]
            for peer, routes in checkpoint.state["adj_rib_in"].items():
                for route in routes:
                    assert router.adj_rib_in[peer].get(route.prefix) is route
            # The checkpoint holds a list of routes, not (prefix, route)
            # pairs: pickle would write an unshared prefix twice.
            for route in checkpoint.state["loc_rib"]:
                assert router.loc_rib.get(route.prefix) is route
            assert router.config is checkpoint.state["config"]

    def test_wrecking_one_clone_leaves_everyone_else_unchanged(
        self, demo27_mid_churn
    ):
        live, snapshot = demo27_mid_churn
        clone_a = snapshot.clone(bgp_process_factory, seed=1)
        clone_b = snapshot.clone(bgp_process_factory, seed=2)
        snapshot_bytes = pickle.dumps(snapshot)
        live_before = exported(live.network)
        b_before = exported(clone_b)
        assert exported(clone_a) == b_before

        clone_a.run(until=clone_a.sim.now + 30.0)
        wreck(clone_a)
        assert exported(clone_a) != b_before  # the wrecking ball hit

        assert exported(clone_b) == b_before
        assert exported(live.network) == live_before
        assert pickle.dumps(snapshot) == snapshot_bytes
        # and the checkpoint still restores to the same thing
        assert exported(snapshot.clone(bgp_process_factory, seed=2)) == b_before


def replay_ribs(router, state) -> None:
    """Rebuild ``router``'s RIBs from ``state`` through the public
    mutators, one route at a time: what ``import_state`` did before
    restore became a bulk build, kept here as the reference."""
    router.adj_rib_in = {}
    for peer, routes in state["adj_rib_in"].items():
        rib = AdjRibIn(peer)
        for route in routes:
            rib.update(route)
        router.adj_rib_in[peer] = rib
    router.adj_rib_out = {}
    for peer, routes in state["adj_rib_out"].items():
        rib = AdjRibOut(peer)
        for route in routes:
            rib.record_announce(route)
        router.adj_rib_out[peer] = rib
    router.loc_rib = LocRib()
    for route in state["loc_rib"]:
        router.loc_rib.set(router.now, route.prefix, route)


def restore_alone(checkpoint, replay=False):
    """``checkpoint`` restored into a one-router network (timers need a
    simulator), in bulk or with its RIBs replayed."""
    router = Network().add_process(bgp_process_factory(checkpoint))
    checkpoint.restore_into(router)
    if replay:
        replay_ribs(router, checkpoint.state)
    return router


def canonical_rib(router):
    class OneRouter:
        def routers(self):
            return [router]

    return capture_canonical_ribs(OneRouter())[router.name]


def _demo27_converged(demo27_topology):
    live = LiveSystem.build(
        demo27_topology.configs, demo27_topology.links, seed=27
    )
    live.converge()
    return live.coordinator.capture(demo27_topology.nodes_in_tier(1)[0])


def _internet40_mid_churn(_):
    """40 routers, marker cut 20 ms after a stub's prefix flipped: the
    UPDATE wave is on the wire, so the snapshot records channel state."""
    topology = build_internet(
        TopologyParams(tier1=3, transit=12, stubs=25, seed=2711)
    )
    live = LiveSystem.build(topology.configs, topology.links, seed=3)
    live.converge(deadline=600)
    flip_at = live.network.sim.now + 1.0
    live.enable_churn(topology.nodes_in_tier(3)[0], Prefix("10.200.0.0/16"),
                      period=4.0, start_at=flip_at)
    live.run(until=flip_at + 0.02)
    snapshot = live.coordinator.capture(topology.nodes_in_tier(1)[0])
    assert snapshot.channels
    return snapshot


def _bad_gadget_oscillating(_):
    live = LiveSystem.build(*build_bad_gadget(), seed=7)
    live.run(until=2)  # sessions up, oscillation under way
    return live.coordinator.capture("r1")


@pytest.fixture(
    scope="module",
    params=[_demo27_converged, _internet40_mid_churn, _bad_gadget_oscillating],
    ids=["demo27", "internet40-mid-churn", "bad-gadget"],
)
def system_snapshot(request, demo27_topology):
    return request.param(demo27_topology)


class TestBulkRestoreEqualsReplay:
    """``import_state`` builds each RIB in one pass; rebuilding through
    ``AdjRibIn.update`` / ``AdjRibOut.record_announce`` / ``LocRib.set``
    must give the same router, except that a replay journals."""

    def test_same_router_either_way(self, system_snapshot):
        for name, checkpoint in sorted(system_snapshot.checkpoints.items()):
            bulk = restore_alone(checkpoint)
            replayed = restore_alone(checkpoint, replay=True)
            assert canonical_rib(bulk) == canonical_rib(replayed), name
            state = bulk.export_state()
            assert state == replayed.export_state(), name
            # which object a dict holds as its key decides what pickle
            # can share: a bulk build must not cost snapshot bytes
            assert len(pickle.dumps(state)) <= len(
                pickle.dumps(replayed.export_state())
            ), name
            assert len(replayed.loc_rib.journal()) == len(state["loc_rib"])

    def test_export_import_export_is_idempotent(self, system_snapshot):
        for name, checkpoint in sorted(system_snapshot.checkpoints.items()):
            first = restore_alone(checkpoint).export_state()
            assert first == checkpoint.state, name
            second = restore_alone(replace(checkpoint, state=first)).export_state()
            assert second == first, name
            assert len(pickle.dumps(second)) == len(pickle.dumps(first)), name

    def test_fresh_clone_has_no_history(self, system_snapshot):
        clone = system_snapshot.clone(bgp_process_factory, seed=1)
        for router in clone.processes.values():
            assert router.loc_rib.journal() == []
            assert router.loc_rib.changes_total == 0

    def test_route_stability_ignores_restore_history(self):
        """The one journal reader on clones baselines on
        ``changes_total`` in ``prepare``: the bad gadget's null probe
        reports the same oscillation whether the clone arrived with an
        empty journal or, as a replay leaves it, one entry per route."""
        snapshot = _bad_gadget_oscillating(None)

        def null_probe(replay):
            clone = snapshot.clone(bgp_process_factory, seed=5)
            if replay:
                for name, checkpoint in snapshot.checkpoints.items():
                    replay_ribs(clone.processes[name], checkpoint.state)
            check = RouteStability()
            context = CheckContext(
                clone=clone, node="r1", sharing=SharingRegistry()
            )
            check.prepare(context)
            clone.run(until=clone.sim.now + 15.0)
            return check.check(context)

        violations = null_probe(replay=False)
        assert violations and violations == null_probe(replay=True)
