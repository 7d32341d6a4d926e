"""Campaign results pinned to recorded values.

The benchmark's three seeded hunts and its demo27 campaign, in serial,
two loopback worker slots and three frontier shards: their fault
reports, per-node counters, solver effort (all nine ``SolverStats``
fields, summed over every solver the campaign built) and leftover
frontiers are pinned to the values recorded before the generational
search asked every flip of a path against one incremental path
condition.  What a query costs may change; which queries run, what
they answer and what the campaign finds must not.
"""

import dataclasses
import hashlib

import pytest

from campaign_helpers import (
    bad_gadget_live,
    crash_live,
    demo27_live,
    hijack_live,
    node_fingerprint,
    report_fingerprint,
)

from repro.checks import default_property_suite
from repro.concolic.solver import Solver, SolverStats
from repro.core.orchestrator import DiceOrchestrator, OrchestratorConfig

CAMPAIGNS = {
    "community-crash": (crash_live, OrchestratorConfig(
        inputs_per_node=50, explorer_nodes=["r2"], grammar_seeds=5, seed=13,
        stop_after_first_fault=True,
    )),
    "bad-gadget": (bad_gadget_live, OrchestratorConfig(
        inputs_per_node=2, horizon=15.0, explorer_nodes=["r1"], seed=4,
        stop_after_first_fault=True,
    )),
    "hijack": (hijack_live, OrchestratorConfig(
        inputs_per_node=4, explorer_nodes=["r3"], seed=2,
        stop_after_first_fault=True,
    )),
    "demo27": (demo27_live, OrchestratorConfig(
        explorer_nodes=["tr-1", "tr-2"], cycles=2, inputs_per_node=2,
        grammar_seeds=1, horizon=3.0, seed=27,
    )),
}

MODES = {
    "serial": {},
    "loopback-2": {"workers": 2, "transport": "loopback"},
    "3-shard": {"frontier_shards": 3},
}

# (campaign, mode) -> (fault classes, SolverStats totals in field
# order, leftover frontier entries, digest of reports, counters and
# leftover frontiers).
_NO_SOLVER = (0, 0, 0, 0, 0, 0, 0, 0, 0)
PINNED = {
    ("community-crash", "serial"): (
        ["programming_error"], (163, 151, 12, 12, 151, 0, 0, 325, 0),
        122, "75fa117e82da2230"),
    ("community-crash", "loopback-2"): (
        ["programming_error"], (163, 151, 12, 12, 151, 0, 0, 325, 0),
        122, "75fa117e82da2230"),
    ("community-crash", "3-shard"): (
        [], (232, 218, 14, 14, 218, 0, 0, 433, 0), 173, "da954ed01d741dec"),
    ("bad-gadget", "serial"): (
        ["policy_conflict"], _NO_SOLVER, 0, "0cdbaa5c0584e524"),
    ("bad-gadget", "loopback-2"): (
        ["policy_conflict"], _NO_SOLVER, 0, "0cdbaa5c0584e524"),
    ("bad-gadget", "3-shard"): (
        ["policy_conflict"], (36, 32, 4, 4, 32, 0, 0, 62, 0), 32,
        "d8bbc7599dd9727e"),
    ("hijack", "serial"): (
        ["operator_mistake"], _NO_SOLVER, 0, "1e456059ccbf226c"),
    ("hijack", "loopback-2"): (
        ["operator_mistake"], _NO_SOLVER, 0, "1e456059ccbf226c"),
    ("hijack", "3-shard"): (
        ["operator_mistake"], _NO_SOLVER, 0, "63346f4c90c73cad"),
    ("demo27", "serial"): (
        [], (94, 83, 11, 11, 83, 0, 0, 226, 0), 79, "5c65aff27fac76d8"),
    ("demo27", "loopback-2"): (
        [], (94, 83, 11, 11, 83, 0, 0, 226, 0), 79, "5c65aff27fac76d8"),
    ("demo27", "3-shard"): (
        [], (94, 83, 11, 11, 83, 0, 0, 226, 0), 79, "5c65aff27fac76d8"),
}


@pytest.fixture
def solvers(monkeypatch):
    """Every solver the campaign builds, in construction order."""
    built = []
    init = Solver.__init__

    def recording(solver, *args, **kwargs):
        init(solver, *args, **kwargs)
        built.append(solver)

    monkeypatch.setattr(Solver, "__init__", recording)
    return built


@pytest.fixture
def leftovers(monkeypatch):
    """Every session's merged leftover frontier: its entries' input
    bytes and its dedup sets, in merge order."""
    frontiers = []
    merged = DiceOrchestrator._merged_session_report

    def recording(reports, final):
        frontiers.append((
            [entry.input.concrete for entry in final.entries],
            sorted(final.seen_paths), sorted(final.seen_flips),
            sorted(final.seen_constraints), sorted(final.seen_shapes),
        ))
        return merged(reports, final)

    monkeypatch.setattr(DiceOrchestrator, "_merged_session_report",
                        staticmethod(recording))
    return frontiers


@pytest.mark.parametrize("campaign, mode", sorted(PINNED))
def test_campaign_equals_its_pinned_record(campaign, mode, solvers,
                                           leftovers):
    build, config = CAMPAIGNS[campaign]
    dice = DiceOrchestrator(build(), default_property_suite())
    result = dice.run_campaign(dataclasses.replace(config, **MODES[mode]))
    totals = tuple(
        sum(getattr(solver.stats, field.name) for solver in solvers)
        for field in dataclasses.fields(SolverStats)
    )
    digest = hashlib.blake2b(repr((
        report_fingerprint(result), node_fingerprint(result),
        result.inputs_explored, leftovers,
    )).encode(), digest_size=8).hexdigest()
    entries = sum(len(frontier[0]) for frontier in leftovers)
    assert (result.fault_classes_found(), totals, entries, digest) \
        == PINNED[campaign, mode]
