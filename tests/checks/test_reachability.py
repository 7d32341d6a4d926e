"""Tests for the oracle reachability checks."""

from repro.bgp.config import RemoveNetwork
from repro.bgp.ip import Prefix
from repro.checks.reachability import (
    convergence_complete,
    find_blackholes,
    find_forwarding_loops,
    forwarding_path,
)


class TestForwardingPath:
    def test_delivery_along_line(self, converged3):
        path, outcome = forwarding_path(
            converged3.network, "r3", Prefix("10.1.0.0/16")
        )
        assert outcome == "delivered"
        assert path == ["r3", "r2", "r1"]

    def test_originator_delivers_immediately(self, converged3):
        path, outcome = forwarding_path(
            converged3.network, "r1", Prefix("10.1.0.0/16")
        )
        assert outcome == "delivered"
        assert path == ["r1"]

    def test_blackhole_when_no_route(self, converged3):
        path, outcome = forwarding_path(
            converged3.network, "r3", Prefix("203.0.113.0/24")
        )
        assert outcome == "blackhole"


class TestGlobalChecks:
    def test_converged_system_clean(self, converged3):
        assert find_forwarding_loops(converged3.network) == []
        assert find_blackholes(converged3.network) == []
        assert convergence_complete(converged3.network)

    def test_blackhole_after_partial_withdrawal(self, converged3):
        """Withdraw at origin but keep checking the old universe."""
        converged3.apply_change("r1", RemoveNetwork(Prefix("10.1.0.0/16")))
        converged3.converge()
        holes = find_blackholes(
            converged3.network, [Prefix("10.1.0.0/16")]
        )
        assert ("r2", Prefix("10.1.0.0/16")) in holes
        assert ("r3", Prefix("10.1.0.0/16")) in holes

    def test_prefix_universe_from_configs(self, converged3):
        assert not find_blackholes(converged3.network)
        converged3.apply_change("r1", RemoveNetwork(Prefix("10.1.0.0/16")))
        converged3.converge()
        # The universe now excludes the withdrawn prefix: still clean.
        assert not find_blackholes(converged3.network)

    def test_loop_detection_on_crafted_state(self, converged3):
        """Manufacture a two-node forwarding loop in Loc-RIBs."""
        r2 = converged3.router("r2")
        r3 = converged3.router("r3")
        prefix = Prefix("10.1.0.0/16")
        route_at_r2 = r2.loc_rib.get(prefix)
        looped_r2 = route_at_r2.replace(peer="r3")
        r2.loc_rib.set(0.0, prefix, looped_r2)
        route_at_r3 = r3.loc_rib.get(prefix)
        looped_r3 = route_at_r3.replace(peer="r2")
        r3.loc_rib.set(0.0, prefix, looped_r3)
        loops = find_forwarding_loops(converged3.network, [prefix])
        assert any(node == "r2" for node, _, _ in loops)
        assert any(node == "r3" for node, _, _ in loops)
