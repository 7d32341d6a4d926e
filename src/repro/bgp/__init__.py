"""A complete BGP-4 speaker in Python — the BIRD substitute.

The paper integrates DiCE with the BIRD open-source router; the
reproduction provides an equivalently structured speaker so that DiCE's
concolic exploration exercises the same classes of decision points:

* RFC 4271 wire format (``messages``/``attributes``) — parsing branches;
* the session finite state machine (``fsm``) — protocol-level branches;
* Adj-RIB-In / Loc-RIB / Adj-RIB-Out (``rib``) and the route selection
  process (``decision``) — the "locally most preferred" condition the
  paper marks symbolic;
* a BIRD-style filter language with a compiler (``policy_lang``,
  ``policy``) — so configuration, not just code, contributes constraints;
* injectable programming-error bugs (``faults``) for the fault-detection
  experiments.
"""

from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.messages import (
    BGPMessage,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    decode_message,
)
from repro.bgp.attributes import (
    AsPath,
    Origin,
    PathAttributes,
)
from repro.bgp.route import Route
from repro.bgp.rib import AdjRibIn, AdjRibOut, LocRib
from repro.bgp.decision import best_route, compare_routes
from repro.bgp.config import NeighborConfig, RouterConfig
from repro.bgp.router import BGPRouter
from repro.bgp.fsm import SessionState

__all__ = [
    "IPv4Address",
    "Prefix",
    "BGPMessage",
    "OpenMessage",
    "UpdateMessage",
    "KeepaliveMessage",
    "NotificationMessage",
    "decode_message",
    "AsPath",
    "Origin",
    "PathAttributes",
    "Route",
    "AdjRibIn",
    "LocRib",
    "AdjRibOut",
    "best_route",
    "compare_routes",
    "NeighborConfig",
    "RouterConfig",
    "BGPRouter",
    "SessionState",
]
