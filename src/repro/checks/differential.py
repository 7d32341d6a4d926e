"""Differential check: compare the simulator against an independent oracle.

Every other property in this package evaluates the simulator against
itself — a model bug that corrupts both the behaviour *and* the check's
view of it is invisible.  The differential check closes that loop: it
hands the same configs to an oracle that re-derives BGP route
propagation independently (:mod:`repro.differential`), canonicalizes
both converged RIBs, and reports every attribute-level divergence as a
``model_divergence`` fault.

Two comparison strategies, chosen by what the oracle can promise:

* **fixpoint verification** (the default) — take the simulator's
  converged RIBs as a candidate solution and check it *is* a fixpoint of
  the oracle's propagation equations.  Sound even for topologies with
  multiple stable states (DISAGREE, wedgies), where independently
  converging both sides could legitimately land on different solutions.
* **construction** — have the oracle converge from scratch and diff the
  results.  Used by the smoke scripts for topologies known to have a
  unique solution; also how non-convergence (BAD GADGET) is confirmed.
"""

from __future__ import annotations

import time

from repro.core.faultclass import (
    FAULT_MODEL_DIVERGENCE,
    DifferentialStats,
    FaultReport,
)
from repro.differential import get_oracle
from repro.differential.canonical import Divergence
from repro.differential.extract import (
    capture_canonical_ribs,
    network_settled,
    oracle_for_live,
)


def differential_divergences(live) -> list[Divergence]:
    """Fixpoint-verify a live system against the reference oracle.

    Returns the (deterministically ordered) divergences; empty means the
    simulator's converged state satisfies the oracle's propagation
    equations exactly.
    """
    oracle = oracle_for_live(live)
    return oracle.verify_fixpoint(capture_canonical_ribs(live))


def differential_fault_reports(
    live,
    mode: str,
    *,
    started_at: float,
) -> tuple[list[FaultReport], DifferentialStats]:
    """Run the configured oracle against ``live``; report divergences.

    Returns ``(reports, stats)``: the divergence reports, stamped with
    ``perf_counter`` seconds since ``started_at`` (the campaign's
    origin), and the pass's :class:`~repro.core.faultclass.
    DifferentialStats` — with the reason it was skipped when the oracle
    was unavailable.
    """
    stats = DifferentialStats(mode=mode)
    if mode == "off":
        return [], stats
    oracle = get_oracle(mode)
    usable, reason = oracle.available()
    if not usable:
        stats.skipped = reason
        return [], stats
    if not network_settled(live):
        # Diffing a mid-churn snapshot against a fixpoint oracle would
        # report phantom divergences; refuse rather than cry wolf.
        stats.skipped = (
            "live system not settled (updates, MRAI flushes or damping "
            "timers still pending)"
        )
        return [], stats

    links = getattr(live, "links", None)
    if mode != "reference" and not links:
        stats.skipped = (
            "live system carries no link list; external oracles need "
            "the topology to rebuild it"
        )
        return [], stats

    begun = time.perf_counter()
    actual = capture_canonical_ribs(live)
    if mode == "reference":
        divergences = oracle_for_live(live).verify_fixpoint(actual)
    else:
        outcome = oracle.converged_ribs(live.configs, links)
        from repro.differential.canonical import RibDiff

        divergences = RibDiff().diff(outcome.ribs, actual)
    stats.oracle_wall_s = time.perf_counter() - begun
    stats.divergences = len(divergences)
    stats.prefixes_checked = sum(len(table) for table in actual.values())

    reports = [
        FaultReport(
            fault_class=FAULT_MODEL_DIVERGENCE,
            property_name=f"differential:{oracle.name}",
            node=divergence.router,
            detected_at=live.network.sim.now,
            wall_time_s=time.perf_counter() - started_at,
            input_summary=f"{divergence.prefix} [{divergence.field}]",
            evidence={
                "prefix": str(divergence.prefix),
                "field": divergence.field,
                "expected": divergence.expected,
                "actual": divergence.actual,
                "oracle": oracle.name,
                "detail": divergence.describe(),
            },
        )
        for divergence in divergences
    ]
    return reports, stats
