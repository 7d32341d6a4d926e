"""Tests for the consistent-snapshot protocol and snapshot cloning."""

import logging
import pickle

import pytest

from repro import IPv4Address, LiveSystem, NeighborConfig, RouterConfig
from repro.bgp.config import AddNetwork
from repro.bgp.ip import Prefix
from repro.core.live import bgp_process_factory
from repro.core.snapshot import SnapshotCoordinator, _Marker
from repro.net.link import LinkProfile


def converged_line():
    """Routers a–b–c–d in a line on jitter-free links: a marker's
    arrival time depends on the cut alone, not on a random draw."""
    names = "abcd"
    configs = [
        RouterConfig(
            name=name,
            local_as=65001 + index,
            router_id=IPv4Address(f"172.16.0.{index + 1}"),
            networks=(Prefix(f"10.{index + 1}.0.0/16"),),
            neighbors=tuple(
                NeighborConfig(peer=names[peer], peer_as=65001 + peer)
                for peer in (index - 1, index + 1) if 0 <= peer < 4
            ),
        )
        for index, name in enumerate(names)
    ]
    links = [(a, b, LinkProfile(latency_s=0.01))
             for a, b in zip(names, names[1:])]
    live = LiveSystem.build(configs, links, seed=0)
    live.converge()
    return live


def cut(snapshot):
    """What a snapshot recorded, by value: everything but its id and
    the wall-clock it cost."""
    return pickle.dumps((
        snapshot.initiator, snapshot.taken_at, snapshot.completed_at,
        [(c.node, c.taken_at, c.state)
         for _, c in sorted(snapshot.checkpoints.items())],
        snapshot.channels, snapshot.links,
    ))


def markers_in_flight(live):
    return [m for m in live.network.in_flight()
            if isinstance(m.payload, _Marker)]


class TestAtomicCapture:
    def test_captures_all_nodes(self, converged3):
        snapshot = converged3.coordinator.capture_atomic("r1")
        assert set(snapshot.checkpoints) == {"r1", "r2", "r3"}
        assert snapshot.latency == 0.0

    def test_in_flight_captured(self, live3):
        live3.run(max_events=6)  # mid-handshake: messages in flight
        expected = len(live3.network.in_flight())
        snapshot = live3.coordinator.capture_atomic("r1")
        assert len(snapshot.channels) == expected


class TestMarkerProtocol:
    def test_completes_and_covers_all_nodes(self, converged3):
        snapshot = converged3.coordinator.capture("r2")
        assert set(snapshot.checkpoints) == {"r1", "r2", "r3"}
        assert snapshot.initiator == "r2"

    def test_latency_bounded_by_network(self, converged3):
        snapshot = converged3.coordinator.capture("r1")
        # Markers traverse the 2-hop line: latency > 0 but < 1 second
        # given ~20-25 ms per hop.
        assert 0 < snapshot.latency < 1.0

    def test_unknown_initiator_rejected(self, converged3):
        with pytest.raises(KeyError):
            converged3.coordinator.capture("ghost")

    def test_snapshot_during_convergence_is_consistent(self, live3):
        """Take the snapshot mid-churn; the cut must still be a valid
        global state: restoring it and running yields convergence with
        no duplicate or lost routes."""
        live3.run(max_events=10)
        snapshot = live3.coordinator.capture("r2")
        clone = snapshot.clone(bgp_process_factory, seed=99)
        clone.run(until=clone.sim.now + 60)
        prefixes = {
            str(p) for p in clone.processes["r3"].loc_rib.prefixes()
        }
        assert prefixes == {"10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16"}

    def test_snapshot_counter(self, converged3):
        coordinator = converged3.coordinator
        before = coordinator.snapshots_taken
        coordinator.capture("r1")
        coordinator.capture_atomic("r1")
        assert coordinator.snapshots_taken == before + 2

    def test_ids_count_the_coordinators_captures_begun(self, converged3):
        coordinator = converged3.coordinator
        assert coordinator.capture("r1").snapshot_id == "snap-1"
        with pytest.raises(TimeoutError):
            coordinator.capture("r1", deadline=0.0)
        assert coordinator.capture_atomic("r2").snapshot_id == "snap-3"
        fresh = SnapshotCoordinator(converged3.network)
        assert fresh.capture_atomic("r2").snapshot_id == "snap-1"

    def test_stale_markers_of_an_aborted_capture_are_ignored(self):
        """A capture that hits its deadline leaves its markers in
        flight; the next capture on the same network must not take
        them for its own.  Its cut equals, by value, one taken at the
        same point on an identical system that never aborted."""
        aborted, reference = converged_line(), converged_line()
        with pytest.raises(TimeoutError):
            aborted.coordinator.capture("a", deadline=0.0)
        assert markers_in_flight(aborted)
        assert aborted.network.sim.now == reference.network.sim.now
        # Initiated at the far end, the new cut reaches b one hop after
        # the stale a→b marker lands there.
        snapshot = aborted.coordinator.capture("d")
        expected = reference.coordinator.capture("d")
        assert not markers_in_flight(aborted)
        assert (snapshot.snapshot_id, expected.snapshot_id) == (
            "snap-2", "snap-1",
        )
        assert cut(snapshot) == cut(expected)

    def test_live_system_continues_after_snapshot(self, converged3):
        """The marker protocol must not disturb the live system."""
        routes_before = converged3.total_routes()
        converged3.coordinator.capture("r1")
        converged3.run(until=converged3.network.sim.now + 30)
        assert converged3.total_routes() == routes_before
        for router in converged3.routers():
            assert router.crash_count == 0

    def test_markers_invisible_to_routers(self, converged3):
        notifications_before = sum(
            session.stats.notifications_received
            for router in converged3.routers()
            for session in router.sessions.values()
        )
        converged3.coordinator.capture("r1")
        converged3.run(until=converged3.network.sim.now + 5)
        notifications_after = sum(
            session.stats.notifications_received
            for router in converged3.routers()
            for session in router.sessions.values()
        )
        assert notifications_after == notifications_before


class TestClone:
    def test_clone_matches_source_state(self, converged3):
        snapshot = converged3.coordinator.capture("r1")
        clone = snapshot.clone(bgp_process_factory, seed=1)
        for name in ("r1", "r2", "r3"):
            original = converged3.router(name)
            copy = clone.processes[name]
            assert set(copy.loc_rib.prefixes()) == set(
                original.loc_rib.prefixes()
            )
            assert copy.established_peers() == original.established_peers()

    def test_clone_isolated_from_live(self, converged3):
        snapshot = converged3.coordinator.capture("r1")
        clone = snapshot.clone(bgp_process_factory, seed=1)
        # Drive the clone hard: hijack a prefix and run.
        clone.processes["r3"].apply_config_change(
            AddNetwork(Prefix("10.1.0.0/16"))
        )
        clone.run(until=clone.sim.now + 30)
        # The live system must be bit-for-bit unaffected.
        live_route = converged3.router("r1").loc_rib.get(Prefix("10.1.0.0/16"))
        assert live_route is not None
        assert live_route.source == "static"
        assert converged3.router("r2").loc_rib.get(
            Prefix("10.1.0.0/16")
        ).peer == "r1"

    def test_clone_isolated_from_sibling_clones(self, converged3):
        snapshot = converged3.coordinator.capture("r1")
        clone_a = snapshot.clone(bgp_process_factory, seed=1)
        clone_b = snapshot.clone(bgp_process_factory, seed=2)
        clone_a.processes["r2"].adj_rib_in["r1"].clear()
        assert len(clone_b.processes["r2"].adj_rib_in["r1"]) > 0

    def test_clone_runs_independently(self, converged3):
        snapshot = converged3.coordinator.capture("r1")
        clone = snapshot.clone(bgp_process_factory, seed=1)
        live_now = converged3.network.sim.now
        clone.run(until=clone.sim.now + 100)
        assert converged3.network.sim.now == live_now

    def test_clone_keeps_sessions_alive(self, converged3):
        """Restored keepalive/hold timers must keep sessions up in the
        clone for the whole exploration horizon."""
        snapshot = converged3.coordinator.capture("r1")
        clone = snapshot.clone(bgp_process_factory, seed=1)
        clone.run(until=clone.sim.now + 120)
        for name in ("r1", "r2", "r3"):
            assert clone.processes[name].established_peers(), name

    def test_clone_records_no_trace(self, converged3, caplog):
        """Nothing reads a clone's history, so a clone keeps none: it
        runs and changes state, but its network holds no trace and it
        emits no record above DEBUG."""
        caplog.set_level(logging.INFO, logger="repro")
        snapshot = converged3.coordinator.capture("r1")
        clone = snapshot.clone(bgp_process_factory, seed=1)
        added = Prefix("10.9.0.0/16")
        clone.processes["r3"].apply_config_change(AddNetwork(added))
        clone.run(until=clone.sim.now + 60)
        assert clone.sim.events_run > 0
        assert clone.processes["r1"].loc_rib.get(added) is not None
        assert not hasattr(clone, "trace")
        assert caplog.records == []

    def test_factory_name_mismatch_rejected(self, converged3):
        snapshot = converged3.coordinator.capture("r1")

        # A factory that renames the process must be refused.
        def renaming_factory(checkpoint):
            router = bgp_process_factory(checkpoint)
            router.name = "imposter"
            return router

        with pytest.raises(ValueError):
            snapshot.clone(renaming_factory, seed=1)


class TestDisconnectedTopology:
    def test_capture_with_isolated_node(self):
        from repro import NeighborConfig, RouterConfig, IPv4Address, LiveSystem
        from repro.net.link import LinkProfile

        configs = [
            RouterConfig(name="a", local_as=1,
                         router_id=IPv4Address("1.1.1.1"),
                         neighbors=(NeighborConfig(peer="b", peer_as=2),)),
            RouterConfig(name="b", local_as=2,
                         router_id=IPv4Address("2.2.2.2"),
                         neighbors=(NeighborConfig(peer="a", peer_as=1),)),
            RouterConfig(name="island", local_as=3,
                         router_id=IPv4Address("3.3.3.3")),
        ]
        live = LiveSystem.build(
            configs, [("a", "b", LinkProfile.lan())], seed=0
        )
        live.converge()
        coordinator = SnapshotCoordinator(live.network)
        snapshot = coordinator.capture("a")
        assert "island" in snapshot.checkpoints
