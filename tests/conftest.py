"""Shared fixtures.

Expensive artifacts (the 27-router topology, converged systems) are
session-scoped where safe; anything a test mutates is function-scoped.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import sys

import pytest

# Belt-and-braces with pyproject's `pythonpath = ["src"]`: keep plain
# `pytest` (and editors that invoke it oddly) working without the
# manual PYTHONPATH=src dance.
_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import quickstart_system
from repro.bgp import faults
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.messages import UpdateMessage
from repro.core.live import LiveSystem
from repro.topo.demo27 import build_demo27
from repro.topo.gadgets import build_bad_gadget


def pytest_collection_modifyitems(config, items):
    """Auto-skip ``bird``-marked tests where the oracle cannot run.

    The end-to-end BIRD tests need the bird2 binaries, root, and ``ip
    netns``; everywhere else they skip with the concrete reason, and the
    dedicated bird-smoke CI job runs them for real.
    """
    from repro.differential.bird import BirdBackend

    usable, reason = BirdBackend().available()
    if usable:
        return
    skip = pytest.mark.skip(reason=f"bird oracle unavailable: {reason}")
    for item in items:
        if item.get_closest_marker("bird") is not None:
            item.add_marker(skip)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Enforce the ``timeout`` marker without a plugin dependency.

    Slow socket tests budget their wall clock so a hung daemon or a
    lost frame fails loudly instead of stalling the whole suite; the
    alarm fires on the main thread, which is where those tests block.
    SIGALRM is POSIX-only — elsewhere the marker is a no-op, and the
    CI timeout is the backstop.
    """
    marker = item.get_closest_marker("timeout")
    if marker is None or not hasattr(signal, "SIGALRM"):
        return (yield)
    seconds = float(marker.args[0]) if marker.args else 60.0

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded its {seconds:.0f}s timeout marker"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def live3():
    """The 3-router line system, not yet started."""
    return quickstart_system(seed=42)


@pytest.fixture
def converged3(live3):
    """The 3-router line system, converged."""
    live3.converge()
    return live3


@pytest.fixture
def converged3_with_bug():
    """Converged 3-router system with the community crash bug on r2."""
    live = quickstart_system(seed=42)
    router = live.router("r2")
    router.config = dataclasses.replace(
        router.config,
        enabled_bugs=frozenset({faults.BUG_COMMUNITY_CRASH}),
    )
    live.converge()
    return live


def build_scarred3():
    """The r1–r2–r3 line with history: r3 has crashed once and the
    r2–r3 session has been reset four times, all long before any cut.
    r2's Loc-RIB journal alone would read as an oscillation of r3's
    prefix (nine changes, seven revisits), and every counter of r2 and
    r3 is non-zero."""
    live = quickstart_system(seed=0)
    router = live.router("r3")
    router.config = dataclasses.replace(
        router.config, enabled_bugs=frozenset({faults.BUG_COMMUNITY_CRASH})
    )
    live.converge()
    crash = UpdateMessage(
        attributes=PathAttributes(
            as_path=AsPath.from_sequence(65001),
            next_hop=IPv4Address("172.16.0.1"),
            communities=(faults.COMMUNITY_CRASH_VALUE,),
        ),
        nlri=(Prefix("10.66.0.0/16"),),
    ).encode()
    live.network.inject("r2", "r3", crash)
    for _ in range(4):
        # A bad marker: r2 answers with a NOTIFICATION and resets.
        live.network.inject("r3", "r2", b"\xff" * 16 + b"\x00\x13\x09")
        live.run(until=live.network.sim.now + 60)
    assert live.router("r3").crash_count == 1
    assert live.router("r2").sessions["r3"].stats.resets >= 4
    assert live.router("r2").established_peers() == ["r1", "r3"]
    return live


@pytest.fixture(scope="session")
def scarred_live():
    """:func:`build_scarred3`: each call builds the system afresh."""
    return build_scarred3


def build_two_router_as(originator):
    """A federation whose AS 65200 has two routers, ``a`` and ``b``,
    over iBGP: ``originator`` of them originates 10.7.0.0/16, and ``b``
    alone peers with ``y`` (AS 65300), which peers with ``z``
    (AS 65400).  Converged."""
    from repro.bgp.config import NeighborConfig, RouterConfig
    from repro.net.link import LinkProfile

    neighbors = {
        "a": [("b", 65200)], "b": [("a", 65200), ("y", 65300)],
        "y": [("b", 65200), ("z", 65400)], "z": [("y", 65300)],
    }
    as_of = {"a": 65200, "b": 65200, "y": 65300, "z": 65400}
    configs = [
        RouterConfig(
            name=name,
            local_as=as_of[name],
            router_id=IPv4Address(f"172.16.7.{index}"),
            networks=(Prefix("10.7.0.0/16"),) if name == originator else (),
            neighbors=tuple(
                NeighborConfig(peer=peer, peer_as=peer_as)
                for peer, peer_as in neighbors[name]
            ),
        )
        for index, name in enumerate(sorted(neighbors), start=1)
    ]
    links = [("a", "b", LinkProfile.lan()), ("b", "y", LinkProfile.wan()),
             ("y", "z", LinkProfile.wan())]
    live = LiveSystem.build(configs, links, seed=0)
    live.converge()
    return live


@pytest.fixture(scope="session")
def two_router_as():
    """:func:`build_two_router_as`: each call builds the system afresh."""
    return build_two_router_as


@pytest.fixture
def bad_gadget_live():
    """The BAD GADGET system, freshly built."""
    configs, links = build_bad_gadget()
    return LiveSystem.build(configs, links, seed=7)


@pytest.fixture(scope="session")
def demo27_topology():
    """The canonical 27-router topology (read-only)."""
    return build_demo27()
