"""Tests for the session-cascade check."""

from repro.checks.sessions import SessionCascade
from repro.core.properties import CheckContext


def make_context(live, node="r2", peer="r1"):
    return CheckContext(
        clone=live.network, node=node, peer=peer
    )


class TestSessionCascade:
    def test_quiet_system_clean(self, converged3):
        prop = SessionCascade()
        context = make_context(converged3)
        prop.prepare(context)
        assert prop.check(context) == []

    def test_own_session_reset_tolerated(self, converged3):
        """Malformed input resetting the session it arrived on (both
        ends) is expected protocol behaviour."""
        prop = SessionCascade()
        context = make_context(converged3, node="r2", peer="r1")
        prop.prepare(context)
        converged3.router("r2").handle_raw("r1", b"\x00" * 19)
        converged3.run(until=converged3.network.sim.now + 1)
        assert prop.check(context) == []

    def test_remote_reset_flagged(self, converged3):
        """A reset beyond the impersonated pair is emergent behaviour."""
        prop = SessionCascade()
        context = make_context(converged3, node="r2", peer="r1")
        prop.prepare(context)
        # Simulate an unrelated session falling over.
        converged3.router("r3").sessions["r2"].reset()
        violations = prop.check(context)
        assert violations
        assert violations[0].evidence["session"] == "r3<->r2"
        assert violations[0].fault_class == "programming_error"

    def test_crash_cascade_flagged(self, converged3_with_bug):
        """A crash at the explorer node resets *all* its sessions — the
        r2<->r3 collateral must be flagged."""
        from repro.bgp import faults
        from repro.bgp.attributes import AsPath, PathAttributes
        from repro.bgp.ip import IPv4Address, Prefix
        from repro.bgp.messages import UpdateMessage

        live = converged3_with_bug
        prop = SessionCascade()
        context = make_context(live, node="r2", peer="r1")
        prop.prepare(context)
        crasher = UpdateMessage(
            attributes=PathAttributes(
                as_path=AsPath.from_sequence(65001),
                next_hop=IPv4Address("172.16.0.1"),
                communities=(faults.COMMUNITY_CRASH_VALUE,),
            ),
            nlri=(Prefix("10.66.0.0/16"),),
        )
        live.router("r2").handle_raw("r1", crasher.encode())
        violations = prop.check(context)
        sessions = {v.evidence["session"] for v in violations}
        assert "r2<->r3" in sessions

    def test_no_peer_context_flags_everything(self, converged3):
        prop = SessionCascade()
        context = make_context(converged3, node="r2", peer=None)
        prop.prepare(context)
        converged3.router("r2").sessions["r1"].reset()
        assert prop.check(context)
