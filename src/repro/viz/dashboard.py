"""Plain-text dashboard: the Figure 1 analogue.

All functions return strings (no printing) so tests can assert on
content and examples can compose frames.
"""

from __future__ import annotations

from repro.core.faultclass import FaultReport
from repro.core.live import LiveSystem
from repro.core.orchestrator import CampaignResult

_TIER_LABELS = {1: "tier-1", 2: "transit", 3: "stub"}


def _rule(width: int = 72) -> str:
    return "─" * width


def render_topology(topology) -> str:
    """Tiered rendering of an :class:`~repro.topo.internet.InternetTopology`."""
    lines = [f"topology: {len(topology.configs)} routers, "
             f"{len(topology.links)} links", _rule()]
    for tier in (1, 2, 3):
        nodes = topology.nodes_in_tier(tier)
        if not nodes:
            continue
        label = _TIER_LABELS.get(tier, f"tier-{tier}")
        lines.append(f"{label:>8}: " + "  ".join(nodes))
    lines.append(_rule())
    relationship_counts: dict[str, int] = {}
    for (a, b), rel in topology.relationships.items():
        if a < b:
            key = rel if rel == "peer" else "customer/provider"
            relationship_counts[key] = relationship_counts.get(key, 0) + 1
    summary = ", ".join(
        f"{count} {kind}" for kind, count in sorted(relationship_counts.items())
    )
    lines.append(f"relationships: {summary}")
    return "\n".join(lines)


def render_live_system(live: LiveSystem) -> str:
    """Per-router status table for a running system."""
    header = (
        f"{'node':<8}{'AS':>7}{'sessions':>10}{'loc-rib':>9}"
        f"{'updates-rx':>12}{'crashes':>9}"
    )
    lines = [
        f"live system @ t={live.network.sim.now:.2f}s "
        f"({live.total_routes()} routes total)",
        _rule(len(header)),
        header,
        _rule(len(header)),
    ]
    for router in live.routers():
        established = len(router.established_peers())
        total = len(router.sessions)
        updates = sum(
            session.stats.updates_received
            for session in router.sessions.values()
        )
        lines.append(
            f"{router.name:<8}{router.config.local_as:>7}"
            f"{f'{established}/{total}':>10}{len(router.loc_rib):>9}"
            f"{updates:>12}{router.crash_count:>9}"
        )
    return "\n".join(lines)


def render_fault_table(reports: list[FaultReport]) -> str:
    """Detected-fault listing, one line per report."""
    if not reports:
        return "no faults detected"
    lines = [
        f"{'class':<20}{'property':<22}{'node':<8}{'wall':>8}  input",
        _rule(90),
    ]
    for report in reports:
        summary = report.input_summary
        if len(summary) > 34:
            summary = summary[:31] + "..."
        lines.append(
            f"{report.fault_class:<20}{report.property_name:<22}"
            f"{report.node:<8}{report.wall_time_s:>7.2f}s  {summary}"
        )
    return "\n".join(lines)


def render_campaign(result: CampaignResult) -> str:
    """Full campaign summary: exploration stats + faults."""
    dispatch, differential = result.dispatch, result.differential
    lines = [
        "DiCE campaign summary",
        _rule(),
        f"snapshots taken     : {result.snapshots_taken}",
        f"clones created      : {result.clones_created}",
        f"inputs explored     : {result.inputs_explored}",
        f"cycles completed    : {result.cycles_completed}",
        f"wall time           : {result.wall_time_s:.2f}s",
        f"workers             : {result.workers}"
        + (
            f" via {dispatch.transport} transport"
            if dispatch.transport != "local"
            else ""
        ),
    ]
    if differential.mode != "off":
        verdict = (
            f"skipped ({differential.skipped})"
            if differential.skipped
            else (
                f"{differential.divergences} divergence(s) over "
                f"{differential.prefixes_checked} routes in "
                f"{differential.oracle_wall_s:.2f}s"
            )
        )
        lines.append(
            f"differential oracle : {differential.mode} — {verdict}"
        )
    if dispatch.wire_bytes_sent or dispatch.wire_bytes_received:
        lines.append(
            f"dispatch wire       : "
            f"{dispatch.wire_bytes_sent / 1024:.1f} KiB out / "
            f"{dispatch.wire_bytes_received / 1024:.1f} KiB in "
            f"({dispatch.transport})"
        )
    if dispatch.worker_failures or dispatch.tasks_requeued:
        dead = (
            " (" + ", ".join(dispatch.dead_workers) + ")"
            if dispatch.dead_workers
            else ""
        )
        lines.append(
            f"worker failover     : {dispatch.worker_failures} slot(s) "
            f"lost{dead}, {dispatch.tasks_requeued} task(s) requeued"
        )
    lines += [
        _rule(),
        f"{'node':<8}{'strategy':<10}{'execs':>7}{'paths':>7}"
        f"{'coverage':>10}{'faults':>8}",
        _rule(),
    ]
    for node_report in result.node_reports:
        lines.append(
            f"{node_report.node:<8}{node_report.strategy:<10}"
            f"{node_report.executions:>7}{node_report.unique_paths:>7}"
            f"{node_report.branch_coverage:>10}"
            f"{len(node_report.violations):>8}"
        )
    lines.append(_rule())
    deduped = _dedupe_reports(result.reports)
    lines.append(
        f"fault reports: {len(result.reports)} "
        f"({len(deduped)} distinct)"
    )
    lines.append(render_fault_table(deduped))
    ttd = result.time_to_detection()
    if ttd:
        lines.append(_rule())
        lines.append("time to first detection:")
        for fault_class, seconds in sorted(ttd.items()):
            lines.append(f"  {fault_class:<20} {seconds:.2f}s")
    return "\n".join(lines)


def _dedupe_reports(reports: list[FaultReport]) -> list[FaultReport]:
    """First report per (class, property, node) triple."""
    seen: set[tuple] = set()
    distinct = []
    for report in reports:
        key = (report.fault_class, report.property_name, report.node)
        if key in seen:
            continue
        seen.add(key)
        distinct.append(report)
    return distinct
