"""Fault taxonomy and reports.

The paper's abstract names the three classes DiCE detects: faults
"resulting from configuration mistakes, policy conflicts and programming
errors".  Every property violation is tagged with one of them, and the
EXP-FAULTS benchmark reports time-to-detection per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

FAULT_PROGRAMMING_ERROR = "programming_error"
FAULT_POLICY_CONFLICT = "policy_conflict"
FAULT_OPERATOR_MISTAKE = "operator_mistake"
# Not in the paper's triad: raised when an independent oracle (the
# reference fixpoint or a real BIRD deployment) disagrees with the
# simulator about the converged routes — evidence of a model bug rather
# than a fault in the system under test.
FAULT_MODEL_DIVERGENCE = "model_divergence"

ALL_FAULT_CLASSES = (
    FAULT_PROGRAMMING_ERROR,
    FAULT_POLICY_CONFLICT,
    FAULT_OPERATOR_MISTAKE,
    FAULT_MODEL_DIVERGENCE,
)


@dataclass(frozen=True)
class FaultReport:
    """One detected (potential) fault.

    ``input_summary`` describes the exploration input that exposed the
    fault — enough for an operator to reproduce it — and ``evidence``
    carries checker-specific detail (violated property, observed values).
    """

    fault_class: str
    property_name: str
    node: str
    detected_at: float  # simulated time of detection
    wall_time_s: float  # wall-clock seconds since campaign start
    input_summary: str = ""
    evidence: dict[str, Any] = field(default_factory=dict)
    snapshot_id: str = ""
    inputs_explored: int = 0

    def __post_init__(self):
        if self.fault_class not in ALL_FAULT_CLASSES:
            raise ValueError(f"unknown fault class {self.fault_class!r}")

    def headline(self) -> str:
        """One-line rendering for the dashboard and campaign logs."""
        return (
            f"[{self.fault_class}] {self.property_name} at {self.node} "
            f"(input: {self.input_summary or 'n/a'})"
        )


def first_per_class(reports: list[FaultReport]) -> dict[str, FaultReport]:
    """Earliest report of each fault class (time-to-detection metric)."""
    first: dict[str, FaultReport] = {}
    for report in reports:
        current = first.get(report.fault_class)
        if current is None or report.wall_time_s < current.wall_time_s:
            first[report.fault_class] = report
    return first


@dataclass
class DifferentialStats:
    """The differential-oracle pre-pass's verdict (see
    :mod:`repro.checks.differential`): which oracle ran, how many
    divergences it found over how many (router, prefix) entries, its
    wall-clock cost, and — when it could not run — why it was skipped.
    The pre-pass runs once, in the main process, over the singular live
    system, so all but the wall clock are independent of workers and
    transport by construction.  The JSON report's ``differential``
    block, key for key.
    """

    mode: str = "off"
    divergences: int = 0
    prefixes_checked: int = 0
    oracle_wall_s: float = 0.0
    skipped: str = ""
