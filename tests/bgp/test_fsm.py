"""Tests for session FSM state handling."""

import pytest

from repro.bgp.fsm import Session, SessionState, SessionStats


class TestSession:
    def test_initial_state_idle(self):
        session = Session(peer="p", peer_as=65001)
        assert session.state == SessionState.IDLE
        assert not session.is_established()

    def test_transition_returns_previous(self):
        session = Session(peer="p", peer_as=65001)
        previous = session.transition(SessionState.CONNECT)
        assert previous == SessionState.IDLE
        assert session.state == SessionState.CONNECT

    def test_bad_state_rejected(self):
        session = Session(peer="p", peer_as=65001)
        with pytest.raises(ValueError):
            session.transition("Flying")

    def test_reset_counts_and_clears(self):
        session = Session(peer="p", peer_as=65001)
        session.transition(SessionState.ESTABLISHED)
        session.peer_bgp_id = 42
        session.established_at = 1.5
        session.reset()
        assert session.state == SessionState.IDLE
        assert session.peer_bgp_id is None
        assert session.established_at is None
        assert session.stats.resets == 1

    def test_keepalive_interval_third_of_hold(self):
        session = Session(peer="p", peer_as=65001, negotiated_hold_time=90)
        assert session.keepalive_interval() == 30.0

    def test_keepalive_interval_zero_hold(self):
        session = Session(peer="p", peer_as=65001, negotiated_hold_time=0)
        assert session.keepalive_interval() == 0.0

    def test_keepalive_interval_floor(self):
        session = Session(peer="p", peer_as=65001, negotiated_hold_time=2)
        assert session.keepalive_interval() == 1.0

    def test_export_import_roundtrip(self):
        session = Session(peer="p", peer_as=65001)
        session.transition(SessionState.ESTABLISHED)
        session.peer_bgp_id = 7
        session.established_at = 3.2
        session.stats.updates_received = 5
        session.stats.resets = 2
        restored = Session.import_state(session.export_state())
        assert restored.state == SessionState.ESTABLISHED
        assert restored.peer_bgp_id == 7
        assert restored.established_at == 3.2
        # Statistics are not protocol state: the restored session counts
        # from its restore, the original keeps its own.
        assert restored.stats == SessionStats()
        assert session.stats.updates_received == 5

    def test_export_is_plain_data(self):
        state = Session(peer="p", peer_as=65001).export_state()
        assert isinstance(state, dict)
        assert "stats" not in state
