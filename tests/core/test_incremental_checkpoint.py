"""Checkpoints cost what changed (see :mod:`repro.core.checkpoint`).

A capture hands back the last capture's container for every RIB whose
version has not moved since, through the memo its coordinator keeps
per router.  The memo may change what a checkpoint costs and nothing
else: after any mix of UPDATEs, withdrawals, session resets, crashes,
configuration changes and time, a checkpoint through the memo equals a
fresh ``export_state()`` and pickles to the same bytes.
"""

import dataclasses
import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import quickstart_system
from repro.bgp import faults
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.config import (
    AddFilter,
    AddNetwork,
    RemoveNetwork,
    SetNeighborFilter,
)
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.messages import UpdateMessage
from repro.bgp.policy import Filter

RIB_FIELDS = ("adj_rib_in", "adj_rib_out", "loc_rib")
PREFIXES = [Prefix(f"10.50.{index}.0/24") for index in range(4)]
NO_10_50 = Filter.compile(
    "filter no_10_50 { if net ~ [ 10.50.0.0/16{16,32} ] then { reject; } "
    "accept; }"
)
CONFIG_CHANGES = {
    "add": ("r3", AddNetwork(Prefix("10.60.0.0/16"))),
    "remove": ("r3", RemoveNetwork(Prefix("10.60.0.0/16"))),
    "narrow": ("r2", SetNeighborFilter("r3", "export", "no_10_50")),
    "widen": ("r2", SetNeighborFilter("r3", "export", "accept_all")),
}


def live_system():
    """quickstart, converged, r2 crashing on the crash community and
    holding the filter the config changes name."""
    live = quickstart_system(seed=7)
    r2 = live.router("r2")
    r2.config = dataclasses.replace(
        AddFilter(NO_10_50).apply(r2.config),
        enabled_bugs=frozenset({faults.BUG_COMMUNITY_CRASH}),
    )
    live.converge()
    return live


def announce(index: int, hops: int, crash: bool = False) -> bytes:
    return UpdateMessage(
        attributes=PathAttributes(
            as_path=AsPath.from_sequence(65001, *range(64600, 64600 + hops)),
            next_hop=IPv4Address("172.16.0.1"),
            communities=(faults.COMMUNITY_CRASH_VALUE,) if crash else (),
        ),
        nlri=(PREFIXES[index],),
    ).encode()


def apply(live, step) -> None:
    kind, *args = step
    r2 = live.router("r2")
    if kind == "announce":
        r2.handle_raw("r1", announce(*args))
    elif kind == "withdraw":
        r2.handle_raw(
            "r1", UpdateMessage(withdrawn=(PREFIXES[args[0]],)).encode()
        )
    elif kind == "reset":
        r2.handle_raw("r3", b"\x00" * 19)  # no marker: a session reset
    elif kind == "crash":
        r2.handle_raw("r1", announce(0, 0, crash=True))
    elif kind == "config":
        live.apply_change(*CONFIG_CHANGES[args[0]])
    else:
        live.network.run(until=live.network.sim.now + args[0])


steps = st.one_of(
    st.tuples(st.just("announce"), st.integers(0, 3), st.integers(0, 2)),
    st.tuples(st.just("withdraw"), st.integers(0, 3)),
    st.tuples(st.just("reset")),
    st.tuples(st.just("crash")),
    st.tuples(st.just("config"), st.sampled_from(sorted(CONFIG_CHANGES))),
    st.tuples(st.just("run"), st.sampled_from([0.05, 0.5, 5.0, 40.0])),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(steps, min_size=1, max_size=12))
def test_a_memo_export_equals_a_fresh_one(script):
    """After every step, each router's checkpoint through the
    coordinator's memo equals its fresh ``export_state()`` and pickles
    to the same bytes."""
    live = live_system()
    coordinator = live.coordinator
    coordinator.capture_atomic("r1")  # fills the memos
    for step in script:
        apply(live, step)
        snapshot = coordinator.capture_atomic("r1")
        for router in live.routers():
            held = snapshot.checkpoints[router.name].state
            fresh = router.export_state()
            assert held == fresh, step
            assert pickle.dumps(held) == pickle.dumps(fresh), step


def containers(snapshot) -> dict[tuple, object]:
    """Every RIB container of a snapshot, by (router, field, peer)."""
    found = {}
    for name, checkpoint in snapshot.checkpoints.items():
        state = checkpoint.state
        found[name, "loc_rib", None] = state["loc_rib"]
        for field in ("adj_rib_in", "adj_rib_out"):
            for peer, container in state[field].items():
                found[name, field, peer] = container
    return found


def test_an_unchanged_rib_hands_back_its_container():
    """Two marker captures of a converged system share every RIB
    container; once one router's RIBs change, that router's changed
    RIBs — and only those — get new ones, equal to a fresh export."""
    live = live_system()
    coordinator = live.coordinator
    first = containers(coordinator.capture("r1"))
    second = containers(coordinator.capture("r3"))
    assert first.keys() == second.keys()
    assert all(second[key] is first[key] for key in first)

    live.router("r2").handle_raw("r1", announce(1, 1))
    # Delivered to r3 before the cut closes: r2's in and out, r3's in.
    snapshot = coordinator.capture("r2")
    third = containers(snapshot)
    changed = {key for key in first if third[key] is not first[key]}
    assert changed == {
        ("r2", "adj_rib_in", "r1"), ("r2", "adj_rib_out", "r3"),
        ("r2", "loc_rib", None),
        ("r3", "adj_rib_in", "r2"), ("r3", "loc_rib", None),
    }
    for router in live.routers():
        fresh = router.export_state()
        for field in RIB_FIELDS:
            assert snapshot.checkpoints[router.name].state[field] == (
                fresh[field]
            )


def test_a_rebuilt_rib_is_not_mistaken_for_the_old_one():
    """RIB objects that ``import_state`` replaced start again at version
    0, so a version alone can match another RIB's: a capture after two
    restores of different states exports the second afresh."""
    live = live_system()
    coordinator = live.coordinator
    r2 = live.router("r2")
    old = r2.export_state()
    r2.handle_raw("r1", announce(1, 1))
    r2.import_state(r2.export_state())  # RIBs rebuilt, at version 0
    before = containers(coordinator.capture_atomic("r1"))
    r2.import_state(old)  # rebuilt again, at version 0, holding less
    snapshot = coordinator.capture_atomic("r1")
    held, fresh = snapshot.checkpoints["r2"].state, r2.export_state()
    assert held == fresh
    assert pickle.dumps(held) == pickle.dumps(fresh)
    for key, container in containers(snapshot).items():
        assert (container is before[key]) == (key[0] != "r2"), key
