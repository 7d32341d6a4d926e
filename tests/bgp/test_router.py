"""Router behaviour tests: sessions, update pipeline, policy, export."""

from dataclasses import replace

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
from repro.bgp.router import BGPRouter
from repro.core.live import LiveSystem
from repro.net.link import LinkProfile

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
