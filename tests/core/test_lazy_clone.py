"""Copy-on-touch clones run exactly as eager ones (see
:mod:`repro.core.snapshot`).

A clone builds a router only when something reaches it.  The references
are the same clone with every router forced at t=0
(``list(clone.processes.values())``) and a clone built the way clones
were before they were lazy, every router restored up front and arming
its own timers.  Run on the same input, all three must execute the same
events at the same ``(time, seq)`` on the same targets, end in the same
state at every router and draw the same verdicts — over mid-churn
snapshots with messages in flight, horizons long enough for untouched
routers' own timers to fire, and stop mode's sliced checks.
"""

import heapq
import inspect
import random
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from campaign_helpers import bad_gadget_live, crash_live, hijack_live
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.config import AddNetwork, RemoveNetwork
from repro.bgp.damping import DampingParams
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.messages import UpdateMessage
from repro.checks import default_property_suite
from repro.checks.hijack import OriginAuthenticity
from repro.checks.sessions import SessionCascade
from repro.concolic.grammar import UpdateGrammar
from repro.core.explorer import STOP_SLICES, Explorer
from repro.core.live import LiveSystem, bgp_process_factory
from repro.core.properties import CheckContext, PropertySuite
from repro.core.sharing import ClaimTable
from repro.net.network import Network, _Delivery


def update(prefix: str, *communities: int) -> bytes:
    """An UPDATE from r1 (AS 65001) announcing ``prefix``."""
    return UpdateMessage(
        attributes=PathAttributes(
            as_path=AsPath.from_sequence(65001),
            next_hop=IPv4Address("172.16.0.1"),
            communities=communities,
        ),
        nlri=(Prefix(prefix),),
    ).encode()


def demo27_mid_churn(topology):
    """demo27 with MRAI and damping on, cut as the MRAI timers armed by
    a stub's withdraw and re-announce come up: the cut records
    messages in flight, and MRAI timers, pending exports and dampener
    entries are populated."""
    configs = [
        replace(config, mrai=2.0, damping=DampingParams())
        for config in topology.configs
    ]
    live = LiveSystem.build(configs, topology.links, seed=27)
    live.converge(deadline=600)
    stub = topology.nodes_in_tier(3)[0]
    prefix = live.router(stub).config.networks[0]
    live.apply_change(stub, RemoveNetwork(prefix))
    live.run(until=live.network.sim.now + 0.5)
    live.apply_change(stub, AddNetwork(prefix))
    live.run(until=live.network.sim.now + 1.6)
    return live


@pytest.fixture(scope="module")
def systems(demo27_topology, scarred_live):
    """name -> (explorer over a snapshot, nodes to explore at)."""
    built = {
        "demo27": (demo27_mid_churn(demo27_topology),
                   demo27_topology.nodes_in_tier(1)[0],
                   demo27_topology.nodes_in_tier(1)[:1]
                   + demo27_topology.nodes_in_tier(2)[:2]),
        "crash": (crash_live(), "r2", ["r2"]),
        "gadget": (bad_gadget_live(), "r1", ["r1", "r2"]),
        "hijack": (hijack_live(), "r3", ["r3", "r1"]),
        "scarred": (scarred_live(), "r1", ["r1", "r2"]),
    }
    explorers = {}
    for name, (live, initiator, nodes) in built.items():
        snapshot = live.coordinator.capture(initiator)
        claims = ClaimTable.from_configs(live.initial_configs)
        explorers[name] = (
            Explorer(snapshot, default_property_suite(), claims), nodes,
        )
    return explorers


def test_the_demo27_cut_holds_messages_in_flight(systems):
    explorer, _ = systems["demo27"]
    snapshot = explorer._snapshot
    assert snapshot.channels
    assert any(cp.timers for cp in snapshot.checkpoints.values())


def target(callback) -> tuple:
    """What an event reaches: a router's timer or a delivery."""
    if isinstance(callback, partial):  # a deferred router's timer
        return ("timer", *callback.args)
    if isinstance(callback, _Delivery):
        return ("deliver", callback.src, callback.dst)
    closure = inspect.getclosurevars(callback).nonlocals
    return ("timer", closure["self"].name, closure["name"])


def run_traced(clone, until: float, trace: list) -> None:
    """Run ``clone`` to ``until``, appending ``(time, seq, target)`` of
    every event it runs to ``trace``."""
    sim = clone.sim
    queue = sim._queue
    while queue:
        time, seq, event = queue[0]
        if event.cancelled:
            heapq.heappop(queue)
            continue
        if seq != event.seq:  # postponed: back at its deadline
            heapq.heapreplace(queue, (event.time, event.seq, event))
            continue
        if time > until:
            break
        trace.append((time, seq, target(event.callback)))
        sim.step()
    clone.run(until=until)


def eager_clone(snapshot, seed):
    """The reference: every router built and restored up front, its
    timers armed by its own ``import_state``, then the cut's channel
    messages — how clones were made before they were lazy."""
    network = Network(seed=seed)
    for name in sorted(snapshot.checkpoints):
        network.add_process(bgp_process_factory(snapshot.checkpoints[name]))
    for a, b, profile in snapshot.links:
        network.add_link(a, b, profile)
    network.start_silently()
    for name in sorted(snapshot.checkpoints):
        snapshot.checkpoints[name].restore_into(network.processes[name])
    for message in snapshot.channels:
        network.inject(message.src, message.dst, message.payload,
                       delay=message.offset)
    return network


def explore_once(explorer, node, data, horizon, sliced, build,
                 make_suite=default_property_suite):
    """One clone of ``explorer``'s snapshot, built ``lazy``, ``forced``
    (every router looked up at t=0) or ``eager`` (:func:`eager_clone`),
    run on ``data`` the explorer's way under ``make_suite()``; returns
    everything observable about the run, and the routers built before
    and after it."""
    if build == "eager":
        clone = eager_clone(explorer._snapshot, seed=5)
    else:
        clone = explorer._snapshot.clone(bgp_process_factory, seed=5)
    if build == "forced":
        list(clone.processes.values())
    restored = len(clone.materialized())
    router = clone.processes[node]
    peer = next(iter(router.established_peers()), None)
    suite = make_suite()
    context = CheckContext(
        clone=clone, node=node, sharing=explorer._sharing_for(clone),
        peer=peer,
    )
    suite.prepare_all(context)
    if data is not None and peer is not None:
        router.handle_raw(peer, data)
    trace: list = []
    monotone = []
    if sliced:
        for fraction in STOP_SLICES:
            run_traced(clone, horizon * fraction, trace)
            monotone.append(suite.check_monotone(context))
    run_traced(clone, horizon, trace)
    verdicts = suite.check_all(context)
    touched = len(clone.materialized())
    states = {
        name: process.export_state()
        for name, process in clone.processes.items()
    }
    clone.close()
    return {
        "trace": trace,
        "monotone": monotone,
        "verdicts": verdicts,
        "states": states,
    }, restored, touched


def make_input(explorer, node, kind, seed):
    """None (the null probe), a grammar UPDATE or random bytes."""
    if kind == "none":
        return None
    rng = random.Random(seed)
    if kind == "random":
        return rng.randbytes(rng.randint(19, 64))
    with explorer._probe_router(node) as router:
        return UpdateGrammar.for_router(router, rng).generate().data


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    system=st.sampled_from(["demo27", "crash", "gadget", "hijack",
                            "scarred"]),
    pick=st.integers(0, 2),
    kind=st.sampled_from(["none", "grammar", "random"]),
    seed=st.integers(0, 2**16),
    horizon=st.sampled_from([0.5, 3.0, 15.0, 35.0]),
    sliced=st.booleans(),
)
def test_a_lazy_clone_runs_as_an_eager_one(systems, system, pick, kind,
                                           seed, horizon, sliced):
    explorer, nodes = systems[system]
    node = nodes[pick % len(nodes)]
    data = make_input(explorer, node, kind, seed)
    lazy, restored, touched = explore_once(
        explorer, node, data, horizon, sliced, "lazy")
    for build in ("forced", "eager"):
        reference, built, _ = explore_once(
            explorer, node, data, horizon, sliced, build)
        assert lazy == reference, build
        # The reference really did build everything up front.
        assert built == len(explorer._snapshot.checkpoints)
    # Nothing is built before something reaches it.
    assert restored == 0
    assert touched <= len(explorer._snapshot.checkpoints)


def test_long_horizons_fire_untouched_routers_own_timers(systems):
    """Past 30 s every router's keepalive timer comes up: the run
    builds routers that no message reached, through their timers."""
    explorer, nodes = systems["demo27"]
    lazy, _, touched = explore_once(
        explorer, nodes[0], None, 35.0, sliced=False, build="lazy")
    fired = {t[1] for _, _, t in lazy["trace"] if t[0] == "timer"}
    assert touched == len(explorer._snapshot.checkpoints)
    assert len(fired) > 1


def test_routers_built_late_are_baselined_at_their_checkpoint(systems):
    """A route r2 learns from r1 reaches r3 only after prepare; r3's
    crash and the r2–r3 resets from before the cut are not this input's
    doing.  A router built late starts from its checkpoint with every
    counter at 0, exactly as one built up front."""
    explorer, _ = systems["scarred"]
    lazy, _, touched = explore_once(
        explorer, "r2", update("10.77.0.0/16"), 3.0, sliced=False,
        build="lazy")
    assert touched >= 2
    assert ("deliver", "r2", "r3") in {t for _, _, t in lazy["trace"]}
    assert lazy["verdicts"] == []


def test_a_short_null_run_builds_what_it_reaches(systems):
    """With nothing injected and no timer due, a clone restores only
    the routers its in-flight messages and due timers reach."""
    explorer, nodes = systems["crash"]
    _, _, touched = explore_once(
        explorer, nodes[0], None, 0.5, sliced=False, build="lazy")
    # The crash system is converged: only the explored node, which
    # prepare looks up, is built.
    assert touched == 1


def test_a_router_built_inside_prepare_is_baselined_for_every_property(
        systems):
    """The first property here never touches the explored node; the
    second builds it inside its own ``prepare``.  The run is the eager
    one, and r2's resets of its r3 session before the cut are no
    verdict of this clone's."""
    explorer, _ = systems["scarred"]

    def make_suite():
        return PropertySuite([SessionCascade(), OriginAuthenticity()])

    runs = [
        explore_once(explorer, "r2", None, 0.5, sliced=False, build=build,
                     make_suite=make_suite)[0]
        for build in ("lazy", "eager")
    ]
    assert runs[0] == runs[1]
    assert runs[0]["verdicts"] == []


def with_timers(explorer, timers):
    """An explorer over ``explorer``'s snapshot with the checkpoint
    timers of the routers in ``timers`` (name -> timer -> remaining
    delay, in arming order) replaced."""
    snapshot = explorer._snapshot
    checkpoints = {
        name: replace(checkpoint, state={**checkpoint.state,
                                         "timers": timers[name]})
        if name in timers else checkpoint
        for name, checkpoint in snapshot.checkpoints.items()
    }
    return Explorer(replace(snapshot, checkpoints=checkpoints),
                    default_property_suite(), explorer._claims)


def test_synchronised_timers_run_as_in_an_eager_clone(systems):
    """Every keepalive of the crash system's three routers is due at
    the same instant, r2's two among them, and r2's earliest timer is
    not the first it armed: the tied timers run in the eager arming
    order."""
    explorer = with_timers(systems["crash"][0], {
        "r1": {"keepalive:r2": 2.0, "hold:r2": 60.0},
        "r2": {"hold:r1": 60.0, "keepalive:r1": 2.0,
               "hold:r3": 60.0, "keepalive:r3": 2.0},
        "r3": {"keepalive:r2": 2.0, "hold:r2": 60.0},
    })
    lazy, restored, _ = explore_once(
        explorer, "r1", None, 3.0, sliced=False, build="lazy")
    fired = [t for _, _, t in lazy["trace"] if t[0] == "timer"]
    assert fired[:4] == [("timer", "r1", "keepalive:r2"),
                          ("timer", "r2", "keepalive:r1"),
                          ("timer", "r2", "keepalive:r3"),
                          ("timer", "r3", "keepalive:r2")]
    for build in ("forced", "eager"):
        reference, _, _ = explore_once(
            explorer, "r1", None, 3.0, sliced=False, build=build)
        assert lazy == reference, build
    assert restored == 0


def test_a_router_built_by_a_delivery_rearms_its_reserved_hold_timer(
        systems):
    """r2 passes the injected route on to r3, which a delivery builds
    long before its first timer; the UPDATE re-arms r3's hold timer,
    scheduled under its reserved number when r3 was built, past its
    checkpoint deadline, so the timer's old entry comes up and is
    pushed back, as the eager router's is."""
    explorer = with_timers(systems["crash"][0], {
        "r3": {"keepalive:r2": 3.0, "hold:r2": 5.0},
    })
    data = update("10.77.0.0/16")
    lazy, _, _ = explore_once(
        explorer, "r2", data, 15.0, sliced=False, build="lazy")
    reaching_r3 = [(time, t) for time, _, t in lazy["trace"]
                   if "r3" in t[1:]]
    first_time, first = reaching_r3[0]
    assert first == ("deliver", "r2", "r3") and first_time < 3.0
    assert ("timer", "r3", "keepalive:r2") in {t for _, t in reaching_r3}
    assert ("timer", "r3", "hold:r2") not in {t for _, t in reaching_r3}
    for build in ("forced", "eager"):
        reference, _, _ = explore_once(
            explorer, "r2", data, 15.0, sliced=False, build=build)
        assert lazy == reference, build


def test_links_are_made_on_first_crossing_and_read_as_eager_ones(systems):
    """A clone makes no link up front and one per link a message
    crosses; its readers answer as an eager clone's do."""
    explorer, nodes = systems["demo27"]
    snapshot = explorer._snapshot
    lazy = snapshot.clone(bgp_process_factory, seed=5)
    eager = eager_clone(snapshot, seed=5)

    def made():
        return sum(link is not None for link in lazy._links)

    def seen(clone):
        return [(link.a, link.b, link.profile, link.up, link.delivered,
                 link.dropped, link._last_arrival)
                for link in clone.links()]

    assert made() == 0
    assert lazy.neighbors(nodes[0]) == eager.neighbors(nodes[0])
    for clone in (lazy, eager):
        clone.run(until=3.0)
    assert 0 < made() < len(snapshot.links)
    a, b, _ = snapshot.links[-1]
    assert (lazy.link_between(a, b).delivered
            == eager.link_between(a, b).delivered)
    assert seen(lazy) == seen(eager)
    assert made() == len(snapshot.links)
    lazy.close()
    eager.close()
