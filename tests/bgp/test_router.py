"""Router behaviour tests: sessions, update pipeline, policy, export."""

import logging
from collections import defaultdict
from dataclasses import replace

import pytest

from repro.bgp import faults
from repro.bgp.attributes import (
    AsPath,
    COMMUNITY_NO_ADVERTISE,
    COMMUNITY_NO_EXPORT,
    PathAttributes,
)
from repro.bgp.config import (
    AddNetwork,
    NeighborConfig,
    RemoveNetwork,
    RouterConfig,
)
from repro.bgp.fsm import SessionState
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.messages import UpdateMessage
from repro.bgp.policy import Filter
from repro.bgp.rib import RibChange
from repro.bgp.route import SOURCE_EBGP, SOURCE_IBGP, Route
from repro.bgp.router import BGPRouter
from repro.concolic.expr import Var
from repro.concolic.symbolic import PathRecorder, SymInt
from repro.core.live import LiveSystem
from repro.net.link import LinkProfile
from repro.net.node import Process
from repro.topo.demo27 import build_demo27
from repro.topo.gadgets import build_mrai_race
from repro.topo.internet import TopologyParams, build_internet

P_R1 = Prefix("10.1.0.0/16")
P_R2 = Prefix("10.2.0.0/16")
P_R3 = Prefix("10.3.0.0/16")


def build_line(filters=None, r2_extra=None, seed=3):
    """r1 -- r2 -- r3 line, one /16 each."""
    r2_kwargs = r2_extra or {}
    configs = [
        RouterConfig(
            name="r1",
            local_as=65001,
            router_id=IPv4Address("172.16.0.1"),
            networks=(P_R1,),
            neighbors=(NeighborConfig(peer="r2", peer_as=65002),),
        ),
        RouterConfig(
            name="r2",
            local_as=65002,
            router_id=IPv4Address("172.16.0.2"),
            networks=(P_R2,),
            neighbors=(
                NeighborConfig(peer="r1", peer_as=65001,
                               **(filters or {}).get("r1", {})),
                NeighborConfig(peer="r3", peer_as=65003,
                               **(filters or {}).get("r3", {})),
            ),
            filters=(filters or {}).get("compiled", {}),
            **r2_kwargs,
        ),
        RouterConfig(
            name="r3",
            local_as=65003,
            router_id=IPv4Address("172.16.0.3"),
            networks=(P_R3,),
            neighbors=(NeighborConfig(peer="r2", peer_as=65002),),
        ),
    ]
    links = [
        ("r1", "r2", LinkProfile.wan(latency_ms=10)),
        ("r2", "r3", LinkProfile.wan(latency_ms=10)),
    ]
    return LiveSystem.build(configs, links, seed=seed)


class TestSessionEstablishment:
    def test_sessions_establish(self):
        live = build_line()
        live.run(until=5)
        assert live.router("r1").established_peers() == ["r2"]
        assert live.router("r2").established_peers() == ["r1", "r3"]

    def test_open_records_peer_id(self):
        live = build_line()
        live.run(until=5)
        session = live.router("r1").sessions["r2"]
        assert session.peer_bgp_id == IPv4Address("172.16.0.2")

    def test_wrong_peer_as_refused(self):
        configs = [
            RouterConfig(
                name="a", local_as=1, router_id=IPv4Address("1.1.1.1"),
                neighbors=(NeighborConfig(peer="b", peer_as=99),),
            ),
            RouterConfig(
                name="b", local_as=2, router_id=IPv4Address("2.2.2.2"),
                neighbors=(NeighborConfig(peer="a", peer_as=1),),
            ),
        ]
        live = LiveSystem.build(configs, [("a", "b", LinkProfile.lan())])
        live.run(until=2)
        assert live.router("a").established_peers() == []

    def test_keepalives_flow(self):
        live = build_line()
        live.run(until=65)
        stats = live.router("r1").sessions["r2"].stats
        assert stats.keepalives_sent >= 2
        assert stats.keepalives_received >= 2


class TestRoutePropagation:
    def test_full_propagation(self):
        live = build_line()
        live.converge()
        for name in ("r1", "r2", "r3"):
            prefixes = set(live.router(name).loc_rib.prefixes())
            assert prefixes == {P_R1, P_R2, P_R3}

    def test_as_path_grows_per_hop(self):
        live = build_line()
        live.converge()
        route = live.router("r3").loc_rib.get(P_R1)
        assert list(route.attributes.as_path.asns()) == [65002, 65001]

    def test_next_hop_rewritten_per_ebgp_hop(self):
        live = build_line()
        live.converge()
        route = live.router("r3").loc_rib.get(P_R1)
        assert route.attributes.next_hop == IPv4Address("172.16.0.2")

    def test_withdraw_propagates(self):
        live = build_line()
        live.converge()
        live.apply_change("r1", RemoveNetwork(P_R1))
        live.converge()
        assert live.router("r3").loc_rib.get(P_R1) is None

    def test_announce_after_convergence(self):
        live = build_line()
        live.converge()
        new_prefix = Prefix("10.55.0.0/16")
        live.apply_change("r3", AddNetwork(new_prefix))
        live.converge()
        assert live.router("r1").loc_rib.get(new_prefix) is not None

    def test_no_echo_back_to_sender(self):
        live = build_line()
        live.converge()
        r2 = live.router("r2")
        # r2 must not have advertised r1's prefix back to r1.
        assert r2.adj_rib_out["r1"].advertised(P_R1) is None

    def test_an_assigned_config_replaces_the_neighbor_table(self):
        """Callers assign ``config`` directly; the per-peer table the
        router reads neighbors from must follow it."""
        live = build_line()
        live.converge()
        r2 = live.router("r2")
        r2.config = replace(r2.config, neighbors=(
            r2.config.neighbor("r1"),
            replace(r2.config.neighbor("r3"), export_med=7),
        ))
        new_prefix = Prefix("10.55.0.0/16")
        live.apply_change("r2", AddNetwork(new_prefix))
        live.converge()
        assert live.router("r3").loc_rib.get(new_prefix).attributes.med == 7
        assert live.router("r1").loc_rib.get(new_prefix).attributes.med is None

    def test_update_suppression(self):
        live = build_line()
        live.converge()
        updates_before = live.router("r3").sessions["r2"].stats.updates_received
        # Re-running the decision process must not emit duplicates.
        live.router("r2").rerun_decision([P_R1, P_R2, P_R3])
        live.run(until=live.network.sim.now + 3)
        updates_after = live.router("r3").sessions["r2"].stats.updates_received
        assert updates_after == updates_before


class TestLoopPrevention:
    def test_own_as_in_path_rejected(self, router_events):
        live = build_line()
        live.converge()
        r2 = live.router("r2")
        looped = UpdateMessage(
            attributes=PathAttributes(
                as_path=AsPath.from_sequence(65001, 65002),
                next_hop=IPv4Address("172.16.0.1"),
            ),
            nlri=(Prefix("10.77.0.0/16"),),
        )
        r2.handle_raw("r1", looped.encode())
        assert r2.loc_rib.get(Prefix("10.77.0.0/16")) is None
        assert router_events("loop_rejected") == [("r2", "r1")]

    def test_first_as_enforced(self, router_events):
        live = build_line()
        live.converge()
        r2 = live.router("r2")
        spoofed = UpdateMessage(
            attributes=PathAttributes(
                as_path=AsPath.from_sequence(64999),
                next_hop=IPv4Address("172.16.0.1"),
            ),
            nlri=(Prefix("10.77.0.0/16"),),
        )
        r2.handle_raw("r1", spoofed.encode())
        assert r2.loc_rib.get(Prefix("10.77.0.0/16")) is None
        assert router_events("first_as_mismatch") == [("r2", "r1")]


class TestPolicyIntegration:
    def test_import_filter_rejects(self):
        reject_r1 = Filter.compile("filter imp_strict { reject; }")
        live = build_line(
            filters={
                "r1": {"import_filter": "imp_strict"},
                "compiled": {"imp_strict": reject_r1},
            }
        )
        live.converge()
        assert live.router("r2").loc_rib.get(P_R1) is None
        assert live.router("r3").loc_rib.get(P_R1) is None

    def test_import_filter_sets_local_pref(self):
        boost = Filter.compile(
            "filter imp_boost { bgp_local_pref = 250; accept; }"
        )
        live = build_line(
            filters={
                "r1": {"import_filter": "imp_boost"},
                "compiled": {"imp_boost": boost},
            }
        )
        live.converge()
        route = live.router("r2").loc_rib.get(P_R1)
        assert route.attributes.local_pref == 250

    def test_export_filter_blocks(self):
        no_export_r3 = Filter.compile(
            "filter exp_block { if net ~ [ 10.1.0.0/16 ] then reject; accept; }"
        )
        live = build_line(
            filters={
                "r3": {"export_filter": "exp_block"},
                "compiled": {"exp_block": no_export_r3},
            }
        )
        live.converge()
        assert live.router("r3").loc_rib.get(P_R1) is None
        assert live.router("r3").loc_rib.get(P_R2) is not None


class TestCommunities:
    def _inject(self, live, communities, prefix=None):
        prefix = prefix or Prefix("10.88.0.0/16")
        r2 = live.router("r2")
        message = UpdateMessage(
            attributes=PathAttributes(
                as_path=AsPath.from_sequence(65001),
                next_hop=IPv4Address("172.16.0.1"),
                communities=communities,
            ),
            nlri=(prefix,),
        )
        r2.handle_raw("r1", message.encode())
        live.run(until=live.network.sim.now + 3)
        return prefix

    def test_no_export_honored(self):
        live = build_line()
        live.converge()
        prefix = self._inject(live, (COMMUNITY_NO_EXPORT,))
        assert live.router("r2").loc_rib.get(prefix) is not None
        assert live.router("r3").loc_rib.get(prefix) is None

    def test_no_advertise_honored(self):
        live = build_line()
        live.converge()
        prefix = self._inject(live, (COMMUNITY_NO_ADVERTISE,))
        assert live.router("r2").loc_rib.get(prefix) is not None
        assert live.router("r3").loc_rib.get(prefix) is None

    def test_plain_communities_propagate(self):
        live = build_line()
        live.converge()
        prefix = self._inject(live, (12345,))
        route = live.router("r3").loc_rib.get(prefix)
        assert route is not None
        assert 12345 in route.attributes.communities


class TestCrashSemantics:
    def test_injected_bug_crashes_and_recovers(self):
        live = build_line(
            r2_extra={"enabled_bugs": frozenset({faults.BUG_COMMUNITY_CRASH})}
        )
        live.converge()
        r2 = live.router("r2")
        message = UpdateMessage(
            attributes=PathAttributes(
                as_path=AsPath.from_sequence(65001),
                next_hop=IPv4Address("172.16.0.1"),
                communities=(faults.COMMUNITY_CRASH_VALUE,),
            ),
            nlri=(Prefix("10.66.0.0/16"),),
        )
        r2.handle_raw("r1", message.encode())
        assert r2.crash_count == 1
        assert "community_crash" in r2.last_crash
        # Sessions dropped (daemon restart semantics)...
        assert r2.established_peers() == []
        # ...and re-establish after the restart backoff; routes return.
        live.run(until=live.network.sim.now + 15)
        assert r2.established_peers() == ["r1", "r3"]
        assert r2.loc_rib.get(P_R1) is not None

    def test_protocol_error_is_not_a_crash(self, router_events):
        live = build_line()
        live.converge()
        r2 = live.router("r2")
        r2.handle_raw("r1", b"\x00" * 19)
        assert r2.crash_count == 0
        assert router_events("protocol_error") == [("r2", "r1")]
        assert router_events("router_crash") == []

    def test_malformed_input_resets_session(self):
        live = build_line()
        live.converge()
        r2 = live.router("r2")
        r2.handle_raw("r1", b"\xff" * 19)
        assert r2.sessions["r1"].state == SessionState.IDLE

    def test_unknown_sender_ignored(self):
        live = build_line()
        live.converge()
        r2 = live.router("r2")
        r2.handle_raw("stranger", b"\x00")
        assert r2.crash_count == 0


class TestSemanticBugs:
    """A seeded decision bug changes which candidate a router installs.

    Two eBGP candidates for one prefix; ``a`` has the lower BGP id and
    loses on the criterion the bug corrupts, which with the bug reads
    as a tie or a win for ``a``."""

    PREFIX = Prefix("10.70.0.0/16")

    @pytest.mark.parametrize("bug,a,b", [
        # 7 hops against 6: the bug reads a's 7 as 6, a tie.
        pytest.param(faults.BUG_ASPATH_OFF_BY_ONE,
                     {"path": (65001, 1, 2, 3, 4, 5, 6)},
                     {"path": (65002, 1, 2, 3, 4, 5)},
                     id=faults.BUG_ASPATH_OFF_BY_ONE),
        # One neighbor AS, so MEDs compare: 2^31 reads as negative.
        pytest.param(faults.BUG_MED_SIGNED_OVERFLOW,
                     {"path": (65001, 1), "med": faults.MED_SIGN_BIT},
                     {"path": (65001, 2), "med": 10},
                     id=faults.BUG_MED_SIGNED_OVERFLOW),
        pytest.param(faults.BUG_INVERTED_LOCAL_PREF,
                     {"path": (65001,), "local_pref": 50},
                     {"path": (65002,), "local_pref": 200},
                     id=faults.BUG_INVERTED_LOCAL_PREF),
    ])
    def test_the_bug_flips_the_selection(self, bug, a, b):
        for bugs, winner in ((frozenset(), "b"), (frozenset({bug}), "a")):
            router = BGPRouter(RouterConfig(
                name="r", local_as=65000, router_id=IPv4Address("10.0.0.9"),
                neighbors=(NeighborConfig(peer="a", peer_as=a["path"][0]),
                           NeighborConfig(peer="b", peer_as=b["path"][0])),
                enabled_bugs=bugs,
            ))
            routes = {}
            for peer, bgp_id, spec in (("a", "1.1.1.1", a),
                                       ("b", "2.2.2.2", b)):
                routes[peer] = Route(
                    prefix=self.PREFIX,
                    attributes=PathAttributes(
                        as_path=AsPath.from_sequence(*spec["path"]),
                        next_hop=IPv4Address(bgp_id),
                        med=spec.get("med"),
                        local_pref=spec.get("local_pref"),
                    ),
                    source=SOURCE_EBGP, peer=peer, peer_as=spec["path"][0],
                    peer_bgp_id=IPv4Address(bgp_id),
                )
                router.adj_rib_in[peer].update(routes[peer])
            router.rerun_decision([self.PREFIX])
            assert router.loc_rib.get(self.PREFIX) is routes[winner], bugs


class TestHoldTimer:
    def test_hold_expiry_resets_session(self, router_events):
        live = build_line()
        live.converge()
        r1, r2 = live.router("r1"), live.router("r2")
        # Sever the link so keepalives stop flowing.
        live.network.link_between("r1", "r2").set_up(False)
        live.run(until=live.network.sim.now + 120)
        expired = set(router_events("hold_timer_expired"))
        assert expired and expired <= {("r1", "r2"), ("r2", "r1")}
        assert r2.loc_rib.get(P_R1) is None or not r2.sessions["r1"].is_established()


class TestEventLog:
    """Router events worth an operator's attention go to the
    ``repro.bgp.router`` logger at ``DEBUG``, naming router and peer."""

    def test_session_established_logged_per_side(self, router_events):
        live = build_line()
        live.run(until=5)
        assert sorted(router_events("session_established")) == [
            ("r1", "r2"), ("r2", "r1"), ("r2", "r3"), ("r3", "r2"),
        ]

    def test_notification_and_reset_logged_on_both_ends(self, router_events):
        live = build_line()
        live.converge()
        live.router("r2").handle_raw("r1", b"\xff" * 19)
        live.run(until=live.network.sim.now + 1)
        assert router_events("notification_received") == [("r1", "r2")]
        assert sorted(router_events("session_reset")) == [
            ("r1", "r2"), ("r2", "r1"),
        ]

    def test_config_change_logged(self, router_events):
        live = build_line()
        live.converge()
        live.apply_change("r3", AddNetwork(Prefix("10.55.0.0/16")))
        assert router_events("config_change") == [("r3", None)]

    def test_crash_logged_without_peer(self, router_events):
        live = build_line(
            r2_extra={"enabled_bugs": frozenset({faults.BUG_COMMUNITY_CRASH})}
        )
        live.converge()
        message = UpdateMessage(
            attributes=PathAttributes(
                as_path=AsPath.from_sequence(65001),
                next_hop=IPv4Address("172.16.0.1"),
                communities=(faults.COMMUNITY_CRASH_VALUE,),
            ),
            nlri=(Prefix("10.66.0.0/16"),),
        )
        live.router("r2").handle_raw("r1", message.encode())
        assert router_events("router_crash") == [("r2", None)]
        assert router_events("protocol_error") == []

    def test_filter_fall_through_logged(self, router_events):
        no_verdict = Filter.compile("filter imp_open { bgp_med = 5; }")
        live = build_line(
            filters={
                "r1": {"import_filter": "imp_open"},
                "compiled": {"imp_open": no_verdict},
            }
        )
        live.converge()
        assert live.router("r2").loc_rib.get(P_R1) is None
        assert ("r2", "r1") in router_events("filter_fell_through")
        assert {router for router, _ in router_events("filter_fell_through")} \
            == {"r2"}


class TestCheckpointContract:
    def test_export_import_roundtrip(self):
        live = build_line()
        live.converge()
        r2 = live.router("r2")
        state = r2.export_state()
        fresh = BGPRouter(state["config"])
        # Attach to the same network namespace for timer machinery.
        import copy

        fresh.attach(live.network)
        fresh.import_state(copy.deepcopy(state))
        assert set(fresh.loc_rib.prefixes()) == set(r2.loc_rib.prefixes())
        assert fresh.established_peers() == r2.established_peers()
        assert len(fresh.adj_rib_in["r1"]) == len(r2.adj_rib_in["r1"])
        assert fresh.crash_count == r2.crash_count


class TestConfigChangeDeterminism:
    """Regression: the networks diff in ``apply_config_change`` once
    iterated a set straight into the decision/propagation sequence, so
    message order varied with the interpreter's hash salt (DET001)."""

    def test_network_diff_reaches_decision_sorted(self, monkeypatch):
        from dataclasses import dataclass, replace

        from repro.bgp.config import ConfigChange

        @dataclass(frozen=True)
        class ReplaceNetworks(ConfigChange):
            networks: tuple

            def apply(self, config):
                return replace(config, networks=self.networks)

            def describe(self):
                return "replace networks"

        live = build_line()
        live.converge()
        router = live.router("r1")
        captured = []
        original = router._run_decision

        def spy(prefixes):
            captured.append(list(prefixes))
            return original(prefixes)

        monkeypatch.setattr(router, "_run_decision", spy)
        added = tuple(
            Prefix(f"10.{octet}.0.0/16") for octet in (99, 7, 42, 63, 18)
        )
        router.apply_config_change(ReplaceNetworks(networks=(P_R1, *added)))
        assert captured, "config change never reached the decision process"
        dirty = captured[0]
        assert set(dirty) == set(added)
        # Sorted order, not whatever order the salted-hash set yields.
        assert dirty == sorted(dirty)


# -- update groups -------------------------------------------------------------


def reference_export_route(router, peer, route):
    """What ``route`` is exported to ``peer`` as when every peer runs
    its own checks, its own filter and its own egress rewrite, past the
    router's filter and egress memos: the reference for update groups."""
    neighbor = router.config.neighbor(peer)
    ibgp = neighbor.is_ibgp(router.config.local_as)
    if route.peer == peer or (route.source == SOURCE_IBGP and ibgp):
        return None
    attrs = route.attributes
    if attrs.has_community(COMMUNITY_NO_ADVERTISE):
        return None
    if not ibgp and (attrs.has_community(COMMUNITY_NO_EXPORT)
                     or attrs.as_path.contains(neighbor.peer_as)):
        return None
    policy = router.config.get_filter(neighbor.export_filter)
    result = policy.evaluate(
        route, default_local_pref=router.config.default_local_pref,
    )
    if not result.accepted:
        return None
    attrs = result.attributes
    if not ibgp:
        attrs = attrs.replace(
            as_path=attrs.as_path.prepend(router.config.local_as),
            next_hop=router.config.router_id,
            local_pref=None,
            med=neighbor.export_med,
        )
    elif attrs.local_pref is None:
        attrs = attrs.replace(local_pref=router.config.default_local_pref)
    return router._canonical(attrs)


def reference_export_changes(router, peer, changes):
    """``BGPRouter._export_changes`` with no update groups: each peer
    exports each change on its own, then withdraws and announces by
    attribute set as the router does."""
    rib = router.adj_rib_out[peer]
    announce = {}
    withdraw = []
    for change in changes:
        new = change.new
        attrs = (None if new is None
                 else reference_export_route(router, peer, new))
        if attrs is None:
            if rib.record_withdraw(change.prefix):
                withdraw.append(change.prefix)
        elif rib.record_announce(new.prefix, attrs):
            announce.setdefault(attrs.key(), (attrs, []))[1].append(new.prefix)
    if withdraw:
        router.send_message(peer, UpdateMessage(withdrawn=tuple(withdraw)))
    for attrs, prefixes in announce.values():
        router.send_message(
            peer, UpdateMessage(attributes=attrs, nlri=tuple(prefixes))
        )


def _demo27_converged():
    topology = build_demo27()
    live = LiveSystem.build(topology.configs, topology.links, seed=27)
    live.converge()
    return live


def _internet40_mid_churn():
    """Converged, then a stub's prefix flips twice; cut 20 ms into the
    second UPDATE wave."""
    topology = build_internet(
        TopologyParams(tier1=3, transit=12, stubs=25, seed=2711)
    )
    live = LiveSystem.build(topology.configs, topology.links, seed=3)
    live.converge(deadline=600)
    flip_at = live.network.sim.now + 1.0
    live.enable_churn(topology.nodes_in_tier(3)[0], Prefix("10.200.0.0/16"),
                      period=4.0, start_at=flip_at)
    live.run(until=flip_at + 4.02)
    return live


def _mrai_race_converged():
    live = LiveSystem.build(*build_mrai_race(), seed=0)
    live.converge()
    return live


def recording_wire(patch):
    """Record every payload a router sends, by (router, peer), from here
    on."""
    wire = defaultdict(list)

    def recording_send(router, dst, payload):
        wire[router.name, dst].append(payload)
        Process.send(router, dst, payload)

    patch.setattr(BGPRouter, "send", recording_send)
    return wire


def memo_entries(network, tag):
    """The keys ``network``'s routers keep under ``tag`` ("FILTER",
    "WITH", "EGRESS") in its interned table."""
    return {key for key in network.interned
            if type(key) is tuple and key[0] == tag}


def counting_evaluations(patch):
    """Count ``Filter.evaluate`` runs by filter name from here on."""
    runs = defaultdict(int)
    evaluate = Filter.evaluate

    def counted(policy, route, default_local_pref=100):
        runs[policy.name] += 1
        return evaluate(policy, route, default_local_pref)

    patch.setattr(Filter, "evaluate", counted)
    return runs


class TestUpdateGroups:
    """A filter outcome and an egress rewrite are each kept once per
    distinct input, so the peers of an update group (export filter,
    iBGP, export MED) share one canonical set: that must send every peer
    what exporting to each peer alone sends, byte for byte."""

    @pytest.mark.parametrize("build", [
        _demo27_converged, _internet40_mid_churn, _mrai_race_converged,
    ], ids=["demo27", "internet40-mid-churn", "mrai-race"])
    def test_groups_equal_a_per_peer_export(self, build, monkeypatch):
        def run(reference):
            with monkeypatch.context() as patch:
                wire = recording_wire(patch)
                if reference:
                    patch.setattr(BGPRouter, "_export_changes",
                                  reference_export_changes)
                runs = counting_evaluations(patch)
                live = build()
            ribs = {
                name: {peer: rib.sent()
                       for peer, rib in router.adj_rib_out.items()}
                for name, router in live.network.processes.items()
            }
            return ribs, wire, sum(runs.values())

        ribs, wire, runs = run(reference=False)
        reference_ribs, reference_wire, reference_runs = run(reference=True)
        for name in sorted(reference_ribs):
            for peer, sent in sorted(reference_ribs[name].items()):
                assert ribs[name][peer] == sent, (name, peer)
        assert sorted(wire) == sorted(reference_wire)
        for pair in sorted(reference_wire):
            assert wire[pair] == reference_wire[pair], pair
        assert any(sent for peers in ribs.values() for sent in peers.values())
        assert runs < reference_runs  # the groups did share work

    HUB_PREFIX = Prefix("10.50.0.0/16")
    GROUP = {"export_filter": "exp_x"}

    def build_hub(self, export_filter, members=(("a", 65012, {}),
                                                ("b", 65013, {}))):
        """Hub ``h`` (AS 65010) learns a prefix from ``s`` and exports
        it to ``members``, each ``(name, AS, neighbor settings)`` with
        export filter ``exp_x``: by default ``a`` and ``b``, one update
        group (eBGP, no MED)."""
        def edge(name, asn, index, networks=()):
            return RouterConfig(
                name=name, local_as=asn,
                router_id=IPv4Address(f"172.16.5.{index}"),
                networks=networks,
                neighbors=(NeighborConfig(peer="h", peer_as=65010),),
            )

        configs = [
            RouterConfig(
                name="h", local_as=65010,
                router_id=IPv4Address("172.16.5.1"),
                neighbors=(
                    NeighborConfig(peer="s", peer_as=65011),
                    *(NeighborConfig(peer=name, peer_as=asn,
                                     **self.GROUP, **settings)
                      for name, asn, settings in members),
                ),
                filters={"exp_x": Filter.compile(export_filter)},
            ),
            edge("s", 65011, 2, networks=(self.HUB_PREFIX,)),
            *(edge(name, asn, 3 + i)
              for i, (name, asn, _) in enumerate(members)),
        ]
        links = [(config.name, "h", LinkProfile.lan())
                 for config in configs[1:]]
        live = LiveSystem.build(configs, links, seed=1)
        live.converge()
        return live

    def test_a_group_is_filter_ibgp_and_med(self, monkeypatch):
        """Peers with one filter split into three groups — ``a`` and
        ``b``; ``c`` with an export MED; iBGP peer ``i`` — and a change
        list of routes with different paths is one export per change
        and group, each peer sent what it would be sent alone."""
        members = (("a", 65012, {}), ("b", 65013, {}),
                   ("c", 65014, {"export_med": 7}), ("i", 65010, {}))
        paths = [(65011,), (65011, 65099), (65011, 65098, 65097)]

        def propagate(reference):
            live = self.build_hub(
                "filter exp_x { if bgp_path.len > 2 then reject; accept; }",
                members,
            )
            hub = live.router("h")
            learned = hub.loc_rib.get(self.HUB_PREFIX)
            changes = [RibChange(hub.now, self.HUB_PREFIX, learned, None)]
            for octet, path in enumerate(paths, start=51):
                prefix = Prefix(f"10.{octet}.0.0/16")
                attributes = learned.attributes.replace(
                    as_path=AsPath.from_sequence(*path)
                )
                route = learned.replace(prefix=prefix, attributes=attributes)
                changes.append(RibChange(hub.now, prefix, None, route))
            kept = memo_entries(hub.network, "FILTER")
            with monkeypatch.context() as patch:
                wire = recording_wire(patch)
                if reference:
                    patch.setattr(BGPRouter, "_export_changes",
                                  reference_export_changes)
                runs = counting_evaluations(patch)
                hub._propagate(changes)
            sent = {peer: rib.sent() for peer, rib in hub.adj_rib_out.items()}
            added = memo_entries(hub.network, "FILTER") - kept
            return sent, dict(wire), runs["exp_x"], added

        sent, wire, runs, added = propagate(reference=False)
        reference_sent, reference_wire, reference_runs, _ = propagate(
            reference=True
        )
        assert sent == reference_sent
        assert wire == reference_wire
        assert sorted(wire) == [("h", "a"), ("h", "b"), ("h", "c"),
                                ("h", "i")]
        assert reference_runs == 4 * len(paths)
        # The filter reads the path alone: it runs once per path the hub
        # had not filtered yet, whatever the group, and each run is kept.
        # The one-hop path was filtered while the hub converged.
        assert runs == len(added) == len(paths) - 1
        assert {key[3] for key in added} == {
            AsPath.from_sequence(*path) for path in paths[1:]
        }
        assert sent["c"] != sent["a"] == sent["b"] != sent["i"]
        assert len(sent["a"]) == 2  # the longest path was rejected

    @pytest.mark.parametrize("kind,expected", [
        ("concrete", 1), ("symbolic-med", 2),
    ])
    def test_symbolic_routes_are_filtered_once_per_peer(
        self, kind, expected, monkeypatch
    ):
        export_filter = "filter exp_x { if bgp_med > 10 then reject; accept; }"

        def propagate(reference):
            live = self.build_hub(export_filter)
            hub = live.router("h")
            route = hub.loc_rib.get(self.HUB_PREFIX)
            med = {"concrete": 3,
                   "symbolic-med": SymInt(Var("m", 0, 255), 3)}[kind]
            route = route.with_attributes(route.attributes.replace(med=med))
            kept = {tag: memo_entries(hub.network, tag)
                    for tag in ("FILTER", "WITH")}
            with monkeypatch.context() as patch:
                if reference:
                    patch.setattr(BGPRouter, "_export_changes",
                                  reference_export_changes)
                runs = counting_evaluations(patch)
                with PathRecorder() as recorder:
                    hub._propagate([
                        RibChange(hub.now, self.HUB_PREFIX, None, route)
                    ])
            branches = [(c.fp, taken) for c, taken in recorder.branches]
            sent = {peer: hub.adj_rib_out[peer].advertised(self.HUB_PREFIX)
                    for peer in ("a", "b")}
            added = {tag: memo_entries(hub.network, tag) - entries
                     for tag, entries in kept.items()}
            return runs["exp_x"], branches, sent, added

        runs, branches, sent, added = propagate(reference=False)
        reference_runs, reference_branches, reference_sent, _ = propagate(
            reference=True
        )
        # A concrete MED the hub has not met runs the filter once and
        # keeps its outcome for the second peer; a symbolic route runs
        # it for each peer and keeps nothing.
        assert runs == expected
        assert len(added["FILTER"]) == (kind == "concrete")
        assert not added["WITH"]
        assert reference_runs == 2
        assert branches == reference_branches
        if kind == "symbolic-med":
            # each evaluation records its own comparison of the MED
            assert len(branches) >= 2
        assert sent == reference_sent
        assert sent["a"] is not None

    def test_fell_through_is_logged_per_peer_when_shared(
        self, caplog, monkeypatch
    ):
        live = self.build_hub("filter exp_x { bgp_med = 5; }")
        hub = live.router("h")
        route = hub.loc_rib.get(self.HUB_PREFIX)
        caplog.set_level(logging.DEBUG, logger="repro.bgp.router")
        caplog.clear()
        with monkeypatch.context() as patch:
            runs = counting_evaluations(patch)
            hub._propagate([RibChange(hub.now, self.HUB_PREFIX, None, route)])
        exports = [
            record.getMessage() for record in caplog.records
            if record.name == "repro.bgp.router"
            and record.getMessage().startswith("filter_fell_through h ")
            and " export " in record.getMessage()
        ]
        # The outcome kept while the hub converged serves both peers ...
        assert runs["exp_x"] == 0
        assert [hub.network.interned[key] for key in
                memo_entries(hub.network, "FILTER")
                if key[1].name == "exp_x"] == [(False, True, ())]
        assert [message.split()[3] for message in exports] == [
            "peer=a", "peer=b",
        ]  # ... and is logged for each peer
        assert hub.adj_rib_out["a"].advertised(self.HUB_PREFIX) is None
