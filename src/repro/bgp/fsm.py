"""BGP session finite state machine (RFC 4271 section 8, reduced).

The simulator has no TCP, so Connect/Active collapse into a single
"connecting" delay; the observable protocol states and transitions —
OPEN exchange, KEEPALIVE confirmation, hold-timer expiry, NOTIFICATION
reset — are all present, because session resets and their system-wide
consequences are one of the fault behaviours the paper targets ("emergent
behavior resulting from a local session reset").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.ip import IPv4Address


class SessionState:
    """Session states; a subset of the RFC 4271 names."""

    IDLE = "Idle"
    CONNECT = "Connect"
    OPEN_SENT = "OpenSent"
    OPEN_CONFIRM = "OpenConfirm"
    ESTABLISHED = "Established"

    ALL = (IDLE, CONNECT, OPEN_SENT, OPEN_CONFIRM, ESTABLISHED)


@dataclass
class SessionStats:
    """Counters a real speaker exposes per session."""

    opens_sent: int = 0
    opens_received: int = 0
    updates_sent: int = 0
    updates_received: int = 0
    keepalives_sent: int = 0
    keepalives_received: int = 0
    notifications_sent: int = 0
    notifications_received: int = 0
    resets: int = 0


@dataclass
class Session:
    """Per-neighbor session state."""

    peer: str
    peer_as: int
    state: str = SessionState.IDLE
    hold_time: int = 90
    negotiated_hold_time: int = 90
    peer_bgp_id: IPv4Address | None = None
    established_at: float | None = None
    stats: SessionStats = field(default_factory=SessionStats)

    def is_established(self) -> bool:
        """True when UPDATE exchange is permitted."""
        return self.state == SessionState.ESTABLISHED

    def transition(self, new_state: str) -> str:
        """Move to ``new_state``; returns the previous state."""
        if new_state not in SessionState.ALL:
            raise ValueError(f"unknown session state {new_state!r}")
        previous = self.state
        self.state = new_state
        return previous

    def reset(self) -> None:
        """Drop back to Idle (NOTIFICATION sent/received, hold expiry)."""
        self.state = SessionState.IDLE
        self.peer_bgp_id = None
        self.established_at = None
        self.stats.resets += 1

    def keepalive_interval(self) -> float:
        """KEEPALIVE period: one third of the negotiated hold time."""
        if self.negotiated_hold_time == 0:
            return 0.0
        return max(1.0, self.negotiated_hold_time / 3.0)

    def export_state(self) -> dict:
        """Checkpointable representation: the session's protocol state,
        not its :class:`SessionStats`."""
        return {
            "peer": self.peer,
            "peer_as": self.peer_as,
            "state": self.state,
            "hold_time": self.hold_time,
            "negotiated_hold_time": self.negotiated_hold_time,
            "peer_bgp_id": self.peer_bgp_id,
            "established_at": self.established_at,
        }

    @staticmethod
    def import_state(state: dict) -> "Session":
        """Rebuild from :meth:`export_state` output, every counter at 0."""
        return Session(**state)
