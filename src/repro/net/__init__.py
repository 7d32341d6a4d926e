"""Discrete-event network substrate.

This package replaces the paper's physical testbed ("a set of BGP routers
in a testbed with Internet-like conditions").  It provides a deterministic
discrete-event simulator with a simulated clock, processes with timers and
message handlers, and links with configurable latency, jitter, loss and
serialization delay.

Determinism matters twice over here: once so experiments are replayable,
and once because DiCE clones *running* networks — a snapshot restored into
a fresh simulator must behave identically to the original, which only
holds if all scheduling is a pure function of (state, seed).
"""

from repro.net.sim import Simulator, Event
from repro.net.node import Process
from repro.net.link import Link, LinkProfile
from repro.net.network import Network

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Link",
    "LinkProfile",
    "Network",
]
