"""Serialization of campaign results for operators.

DiCE is an always-on service; its findings need to outlive the process
that produced them.  This module renders campaign results to plain
JSON-compatible dictionaries (and back, for the report half), so a
deployment can ship results to ticketing or archive them alongside the
configuration changes they vetted.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.faultclass import FaultReport
from repro.core.orchestrator import CampaignResult


def fault_report_to_dict(report: FaultReport) -> dict[str, Any]:
    """A JSON-compatible rendering of one fault report."""
    return {
        "fault_class": report.fault_class,
        "property": report.property_name,
        "node": report.node,
        "detected_at_sim_s": report.detected_at,
        "wall_time_s": round(report.wall_time_s, 6),
        "input_summary": report.input_summary,
        "evidence": _plain(report.evidence),
        "snapshot_id": report.snapshot_id,
        "inputs_explored": report.inputs_explored,
    }


def fault_report_from_dict(data: dict[str, Any]) -> FaultReport:
    """Inverse of :func:`fault_report_to_dict`."""
    return FaultReport(
        fault_class=data["fault_class"],
        property_name=data["property"],
        node=data["node"],
        detected_at=data["detected_at_sim_s"],
        wall_time_s=data["wall_time_s"],
        input_summary=data.get("input_summary", ""),
        evidence=dict(data.get("evidence", {})),
        snapshot_id=data.get("snapshot_id", ""),
        inputs_explored=data.get("inputs_explored", 0),
    )


def campaign_to_dict(result: CampaignResult) -> dict[str, Any]:
    """A JSON-compatible rendering of a whole campaign."""
    return {
        "summary": {
            "snapshots_taken": result.snapshots_taken,
            "clones_created": result.clones_created,
            "inputs_explored": result.inputs_explored,
            "cycles_completed": result.cycles_completed,
            "wall_time_s": round(result.wall_time_s, 6),
            "workers": result.workers,
            "capture_wall_s": round(result.capture_wall_s, 6),
            "capture_blocked_s": round(result.capture_blocked_s, 6),
            "capture_hidden_fraction": round(
                result.capture_hidden_fraction(), 6
            ),
            "solver_queries": result.solver_queries,
            # Dispatch transport: which backend ran the tasks, its
            # total framed wire traffic (0 for in-process backends),
            # and the failover ledger — worker slots lost mid-campaign
            # and tasks requeued onto survivors (results are
            # bit-identical to a failure-free run either way).
            "dispatch_transport": {
                "transport": result.transport,
                "wire_bytes_sent": result.wire_bytes_sent,
                "wire_bytes_received": result.wire_bytes_received,
                "worker_failures": result.worker_failures,
                "max_worker_failures": result.max_worker_failures,
                "dead_workers": list(result.dead_workers),
                "tasks_requeued": result.tasks_requeued,
            },
            # Differential-oracle pre-pass (repro.checks.differential):
            # which independent oracle vetted the live system's
            # converged routes before exploration, and its verdict.
            "differential": {
                "mode": result.differential_mode,
                "divergences": result.divergences,
                "prefixes_checked": result.prefixes_checked,
                "oracle_wall_s": round(result.oracle_wall_s, 6),
                "skipped": result.differential_skipped,
            },
            "fault_classes_found": result.fault_classes_found(),
            "time_to_detection": {
                k: round(v, 6)
                for k, v in result.time_to_detection().items()
            },
        },
        "node_reports": [
            {
                "node": nr.node,
                "strategy": nr.strategy,
                "snapshot_id": nr.snapshot_id,
                "executions": nr.executions,
                "unique_paths": nr.unique_paths,
                "branch_coverage": nr.branch_coverage,
                "clones_created": nr.clones_created,
                "violations": len(nr.violations),
                "crashes": nr.crashes,
                "solver_queries": nr.solver_queries,
                "solver_sat": nr.solver_sat,
                "skipped_reason": nr.skipped_reason,
            }
            for nr in result.node_reports
        ],
        "reports": [fault_report_to_dict(r) for r in result.reports],
    }


def campaign_to_json(result: CampaignResult, indent: int = 2) -> str:
    """Serialize a campaign to a JSON string."""
    return json.dumps(campaign_to_dict(result), indent=indent, sort_keys=True)


def save_campaign(result: CampaignResult, path: str) -> None:
    """Write a campaign's JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(campaign_to_json(result))
        handle.write("\n")


def load_fault_reports(path: str) -> list[FaultReport]:
    """Read the fault reports back from a saved campaign file."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return [fault_report_from_dict(item) for item in data.get("reports", [])]


def _plain(value: Any) -> Any:
    """Coerce evidence values to JSON-compatible types."""
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_plain(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
