"""Relational output checks: every one compares two things the run
itself produced, never a golden value.

Each function returns the problems it found as one-line strings; an
empty list means the check held.  Any problem makes the run incorrect
(non-zero exit) and counts the affected operations as failed.
"""

from __future__ import annotations

import dataclasses
import pickle

from repro.core.live import LiveSystem, bgp_process_factory
from repro.differential.extract import capture_canonical_ribs

from workloads import Repetition, Workload


def signature(result) -> tuple:
    """A campaign's deterministic outputs: fault reports, per-node
    counters and solver-cache fingerprints — what the determinism
    contract promises at any worker count, minus wall-clock and the
    process-global snapshot ids."""
    return (
        tuple(
            (r.fault_class, r.property_name, r.node, r.input_summary,
             r.inputs_explored)
            for r in result.reports
        ),
        tuple(
            (n.node, n.executions, n.unique_paths, n.branch_coverage,
             n.clones_created, n.crashes, n.solver_queries, n.solver_sat,
             n.skipped_reason)
            for n in result.node_reports
        ),
        tuple(sorted(result.cache_state_fingerprints.items())),
    )


def _signatures(rep: Repetition) -> list[tuple]:
    return [signature(result) for result in rep.results]


def check_repetition(workload: Workload, rep: Repetition,
                     quick: bool) -> list[str]:
    """Healthy topologies report no fault, each hunt reports its seeded
    class, no session was skipped, and under churn at least one cut
    recorded in-flight messages."""
    problems = []
    for scenario, result in zip(workload.scenarios, rep.results):
        found = result.fault_classes_found()
        if scenario.expect is None and found:
            problems.append(f"{scenario.name}: healthy topology reported "
                            f"{found}")
        if scenario.expect is not None and not quick \
                and scenario.expect not in found:
            problems.append(f"{scenario.name}: seeded {scenario.expect} "
                            f"not reported (found {found})")
        for report in result.node_reports:
            if report.skipped_reason:
                problems.append(f"{scenario.name}: session at {report.node} "
                                f"skipped: {report.skipped_reason}")
    if workload.churn and not any(rep.channel_msgs):
        problems.append("no snapshot recorded an in-flight message")
    return problems


def check_stability(reps: list[Repetition]) -> list[str]:
    """Repetitions (traced or not) agree on every deterministic output."""
    first = _signatures(reps[0])
    return [
        f"repetition {index} diverged from repetition 0"
        for index, rep in enumerate(reps)
        if _signatures(rep) != first
    ]


def serial_reference(workload: Workload, seed: int,
                     quick: bool) -> list[tuple | None]:
    """Per scenario, the signature of one un-timed serial run of its
    campaign over an identically built live system; None where the
    campaign is serial already."""
    signatures = []
    for scenario in workload.scenarios:
        config = scenario.campaign(quick)
        if config.workers == 1:
            signatures.append(None)
            continue
        serial = dataclasses.replace(config, workers=1, pipeline=False,
                                     transport="local")
        signatures.append(
            signature(scenario.build(seed).dice.run_campaign(serial))
        )
    return signatures


def check_serial_reference(workload: Workload, reference: list,
                           rep: Repetition) -> list[str]:
    """A campaign through the task engine equals its serial reference."""
    return [
        f"{scenario.name}: {scenario.config.workers}-worker campaign "
        "differs from its serial reference"
        for scenario, expected, result
        in zip(workload.scenarios, reference, rep.results)
        if expected is not None and signature(result) != expected
    ]


def check_round_trip(rep: Repetition) -> list[str]:
    """An unpickled snapshot clones to the same canonical RIBs as the
    original."""
    snapshot, blob = rep.last_capture

    def ribs(snap):
        clone = snap.clone(bgp_process_factory)
        return capture_canonical_ribs(LiveSystem(clone, []))

    if ribs(pickle.loads(blob)) != ribs(snapshot):
        return ["unpickled snapshot clones to different RIBs"]
    return []


def check_span_counts(workload: Workload, rep: Repetition,
                      layers: dict) -> list[str]:
    """Span counts equal the campaign's own counters (every workload
    does all its work in the traced process)."""
    pairs = [
        ("snapshot.clone", sum(r.clones_created for r in rep.results)),
        ("solver.solve", sum(r.solver_queries for r in rep.results)),
        ("concolic.run_once", rep.inputs),
        ("campaign", len(rep.results)),
        ("snapshot.pickle", len(rep.snapshot_bytes)),
    ]
    return [
        f"{name}: {layers[name].count} spans but the run counted {counted}"
        for name, counted in pairs
        if layers[name].count != counted
    ]
