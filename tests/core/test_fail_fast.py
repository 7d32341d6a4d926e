"""The stop-at-first-fault contract (``stop_after_first_fault``).

With the flag set, work stops at the first fault at three levels: the
campaign merges no later session, the session runs no later input and
plans no later round, and a clone stops simulating once a monotone
property has fired.  These tests pin the guarantees that make that
sound (see :mod:`repro.core.explorer`):

* a campaign that finds no fault is unchanged by the flag — reports,
  per-node counters and leftover frontiers alike;
* a hunt's stop-mode reports are a subset of what the flag-off session
  reports, of the same fault classes, and name the faulting input;
* a monotone property's verdict only grows over a clone's run, slicing
  a run changes nothing, and the slice checks record no branch;
* stop-mode results are the same at any worker count or transport.
"""

import dataclasses
import logging

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from campaign_helpers import (
    bad_gadget_live,
    campaign_fingerprint,
    crash_live,
    demo27_live,
    hijack_live,
)
from repro.bgp import faults
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.messages import UpdateMessage
from repro.checks import default_property_suite
from repro.concolic.symbolic import PathRecorder, SymBytes
from repro.core.explorer import STOP_SLICES, ExplorationConfig, Explorer
from repro.core.faultclass import (
    FAULT_OPERATOR_MISTAKE,
    FAULT_POLICY_CONFLICT,
    FAULT_PROGRAMMING_ERROR,
)
from repro.core.live import LiveSystem, bgp_process_factory
from repro.core.orchestrator import DiceOrchestrator, OrchestratorConfig
from repro.core.properties import CheckContext
from repro.core.sharing import ClaimTable, SharingInterface
from repro.net.network import Network
from repro.topo.gadgets import build_disagree, build_good_gadget
from repro.topo.internet import TopologyParams, build_internet

# -- systems ------------------------------------------------------------------


def internet40_live():
    topology = build_internet(TopologyParams(3, 12, 25, seed=2711))
    live = LiveSystem.build(topology.configs, topology.links, seed=0)
    live.converge(deadline=600)
    return live


def gadget_live(build):
    def make():
        configs, links = build()
        live = LiveSystem.build(configs, links, seed=7)
        live.converge()
        return live

    return make


# (system, campaign) pairs that find no fault with the flag off.
FAULT_FREE = {
    "demo27": (demo27_live, OrchestratorConfig(
        explorer_nodes=["tr-1", "tr-2"], cycles=2, inputs_per_node=3,
        grammar_seeds=2, horizon=3.0, seed=27,
    )),
    "internet40-grammar": (internet40_live, OrchestratorConfig(
        strategy="grammar", explorer_nodes=["tr-1", "tr-2"],
        inputs_per_node=2, horizon=3.0, seed=1,
    )),
    "good-gadget": (gadget_live(build_good_gadget), OrchestratorConfig(
        explorer_nodes=["r1"], inputs_per_node=4, horizon=5.0, seed=3,
    )),
    "disagree": (gadget_live(build_disagree), OrchestratorConfig(
        explorer_nodes=["x", "y"], inputs_per_node=3, horizon=5.0, seed=5,
    )),
}

# The benchmark's three seeded hunts: (system, campaign, seeded class,
# inputs to detection with the flag on).
HUNTS = {
    "community-crash": (crash_live, OrchestratorConfig(
        inputs_per_node=50, explorer_nodes=["r2"], grammar_seeds=5, seed=13,
    ), FAULT_PROGRAMMING_ERROR, 34),
    "bad-gadget": (bad_gadget_live, OrchestratorConfig(
        inputs_per_node=2, horizon=15.0, explorer_nodes=["r1"], seed=4,
    ), FAULT_POLICY_CONFLICT, 0),
    "hijack": (hijack_live, OrchestratorConfig(
        inputs_per_node=4, explorer_nodes=["r3"], seed=2,
    ), FAULT_OPERATOR_MISTAKE, 0),
}

MODES = {
    "serial": {},
    "loopback-2": {"workers": 2, "transport": "loopback"},
    "3-shard": {"frontier_shards": 3, "workers": 2, "transport": "loopback"},
}


def run(build, config, **changes):
    live = build()
    dice = DiceOrchestrator(live, default_property_suite())
    return dice.run_campaign(dataclasses.replace(config, **changes))


def frontier_fingerprint(frontier):
    return (
        [(entry.input.concrete, sorted(entry.input.variables()),
          entry.bound, entry.key) for entry in frontier.entries],
        frontier.seen_paths, frontier.seen_flips,
        frontier.seen_constraints, frontier.seen_shapes,
    )


@pytest.fixture
def leftover_frontiers(monkeypatch):
    """The merged leftover frontier of every session, in merge order."""
    frontiers = []
    merged = DiceOrchestrator._merged_session_report

    def recording(reports, final):
        frontiers.append(frontier_fingerprint(final))
        return merged(reports, final)

    monkeypatch.setattr(DiceOrchestrator, "_merged_session_report",
                        staticmethod(recording))
    return frontiers


@pytest.fixture
def clone_ends(monkeypatch):
    """Where every network the campaign closes ended: its clock and
    the events it ran, in close order."""
    ends = []
    close = Network.close

    def recording(network):
        ends.append((network.sim.now, network.sim.events_run))
        close(network)

    monkeypatch.setattr(Network, "close", recording)
    return ends


def fault_set(result):
    return {(r.property_name, r.node, r.input_summary)
            for r in result.reports}


# -- a fault-free campaign is unchanged ----------------------------------------


@pytest.mark.parametrize("system, mode", [
    (system, mode) for system in sorted(FAULT_FREE) for mode in MODES
    # The grammar strategy has no frontier to shard.
    if (system, mode) != ("internet40-grammar", "3-shard")
])
def test_fault_free_campaign_is_unchanged(system, mode, leftover_frontiers,
                                          clone_ends):
    """Every clone runs bit-identically — to the same clock, through the
    same events — so the campaign's results are the same."""
    build, config = FAULT_FREE[system]
    full = run(build, config, stop_after_first_fault=False, **MODES[mode])
    full_frontiers, full_ends = list(leftover_frontiers), list(clone_ends)
    leftover_frontiers.clear()
    clone_ends.clear()
    stopping = run(build, config, stop_after_first_fault=True, **MODES[mode])
    assert not full.reports, "precondition: the campaign finds no fault"
    assert campaign_fingerprint(stopping) == campaign_fingerprint(full)
    assert stopping.clones_created == full.clones_created
    assert leftover_frontiers == full_frontiers
    assert clone_ends == full_ends


# -- a hunt stops at its faulting input ---------------------------------------


@pytest.mark.parametrize("hunt", sorted(HUNTS))
def test_hunt_reports_a_subset_of_the_full_session(hunt):
    build, config, fault_class, detected_after = HUNTS[hunt]
    full = run(build, config, stop_after_first_fault=False)
    stopping = run(build, config, stop_after_first_fault=True)
    assert len(full.node_reports) == 1  # the first faulty session
    assert stopping.reports
    assert fault_set(stopping) <= fault_set(full)
    assert stopping.fault_classes_found() == full.fault_classes_found() \
        == [fault_class]
    assert stopping.inputs_to_detection() == {fault_class: detected_after}
    assert stopping.inputs_explored == detected_after
    assert stopping.clones_created <= full.clones_created
    assert stopping.solver_queries <= full.solver_queries


@pytest.mark.parametrize("hunt", sorted(HUNTS))
def test_stop_mode_is_the_same_in_every_mode(hunt):
    """The shard count is campaign configuration, so the 3-shard
    campaign equals its own serial run; worker count and transport
    change nothing either way."""
    build, config, fault_class, _ = HUNTS[hunt]
    stop = dataclasses.replace(config, stop_after_first_fault=True)
    serial = run(build, stop)
    assert campaign_fingerprint(run(build, stop, **MODES["loopback-2"])) \
        == campaign_fingerprint(serial)
    sharded = run(build, stop, **MODES["3-shard"])
    assert campaign_fingerprint(sharded) == campaign_fingerprint(
        run(build, stop, frontier_shards=3)
    )
    # Its inputs run in another order, so it may spend its budget
    # before reaching the fault; it finds no other class.
    assert set(sharded.fault_classes_found()) <= {fault_class}


def test_early_stop_logs_one_record_per_clone(caplog):
    build, config, _, _ = HUNTS["bad-gadget"]
    caplog.set_level(logging.DEBUG, logger="repro.core.explorer")
    run(build, config, stop_after_first_fault=True)
    messages = [record.getMessage() for record in caplog.records
                if record.name == "repro.core.explorer"]
    observed = config.horizon * STOP_SLICES[0]
    assert messages == [f"early_stop r1 input=0 t={observed:.3f}/15.000"]


def test_route_stability_states_the_seconds_observed():
    live = bad_gadget_live()
    snapshot = live.coordinator.capture("r1")
    explorer = Explorer(snapshot, default_property_suite(),
                        ClaimTable.from_configs(live.initial_configs))
    report = explorer.explore(ExplorationConfig(
        node="r1", inputs=2, horizon=15.0, seed=4, stop_at_first_fault=True,
    ))
    observed = 15.0 * STOP_SLICES[0]
    assert report.executions == 0 and report.clones_created == 1
    assert report.violations
    for violation, _ in report.violations:
        assert f"in {observed:.3f} simulated seconds" in violation.detail


# -- the clone ----------------------------------------------------------------


def crasher() -> bytes:
    return UpdateMessage(
        attributes=PathAttributes(
            as_path=AsPath.from_sequence(65001),
            next_hop=IPv4Address("172.16.0.1"),
            communities=(faults.COMMUNITY_CRASH_VALUE,),
        ),
        nlri=(Prefix("10.66.0.0/16"),),
    ).encode()


def crash_snapshot():
    return crash_live().coordinator.capture("r2")


def gadget_snapshot():
    return bad_gadget_live().coordinator.capture("r1")


def open_clone(snapshot, node, inject=None):
    """A prepared clone of ``snapshot`` with ``inject`` (bytes or
    SymBytes) handed to ``node`` from its first established peer."""
    clone = snapshot.clone(bgp_process_factory, seed=11)
    peer = next(iter(clone.processes[node].established_peers()))
    context = CheckContext(
        clone=clone, node=node, peer=peer,
        sharing=SharingInterface(ClaimTable(), {}, clone, {}),
    )
    suite = default_property_suite()
    suite.prepare_all(context)
    if inject is not None:
        clone.processes[node].handle_raw(peer, inject)
    return clone, context, suite


def verdicts(suite, context):
    return {(v.property_name, v.node, v.evidence.get("prefix"),
             v.evidence.get("session"))
            for v in suite.check_monotone(context)}


@pytest.fixture(scope="module")
def snapshots():
    return {"gadget": (gadget_snapshot(), "r1", None),
            "crash": (crash_snapshot(), "r2", crasher())}


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(system=st.sampled_from(["gadget", "crash"]),
       times=st.lists(st.floats(0.0, 6.0), min_size=2, max_size=2))
def test_monotone_verdicts_only_grow(snapshots, system, times):
    snapshot, node, inject = snapshots[system]
    early, late = sorted(times)
    clone, context, suite = open_clone(snapshot, node, inject)
    start = clone.sim.now
    clone.run(until=start + early)
    before = verdicts(suite, context)
    clone.run(until=start + late)
    assert before <= verdicts(suite, context)
    clone.close()


@pytest.mark.parametrize("system", ["gadget", "crash"])
def test_a_sliced_run_is_the_unsliced_run(snapshots, system):
    """``run(until=a)`` then ``run(until=b)``, with the slice checks
    between, executes exactly what ``run(until=b)`` does."""
    snapshot, node, inject = snapshots[system]
    horizon = 5.0

    def history(clone):
        return (clone.sim.now, clone.sim.events_run, [
            [(c.time, c.prefix, None if c.new is None else c.new.peer)
             for c in clone.processes[name].loc_rib.journal()]
            for name in sorted(clone.processes)
        ])

    straight, _, _ = open_clone(snapshot, node, inject)
    start = straight.sim.now
    straight.run(until=start + horizon)
    sliced, context, suite = open_clone(snapshot, node, inject)
    for fraction in STOP_SLICES:
        sliced.run(until=start + horizon * fraction)
        suite.check_monotone(context)
    sliced.run(until=start + horizon)
    assert history(sliced) == history(straight)
    straight.close()
    sliced.close()


def test_slice_checks_record_no_branch(snapshots):
    """The monotone checks read concrete counters and concretized
    route keys, so on a symbolic run they add nothing to its path."""
    snapshot, node, inject = snapshots["crash"]
    with PathRecorder() as recorder:
        clone, context, suite = open_clone(
            snapshot, node, SymBytes.mark_all(inject)
        )
        clone.run(until=clone.sim.now + 1.0)
        recorded = len(recorder.branches)
        assert recorded > 0, "precondition: the run itself branched"
        assert suite.check_monotone(context)
    assert len(recorder.branches) == recorded
    clone.close()
