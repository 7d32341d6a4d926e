"""The lint engine: scan, rule-run, suppress, report."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.findings import Finding
from repro.analysis.pragmas import Pragma
from repro.analysis.project import Project
from repro.analysis.registry import all_rules


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding]  # gate-failing
    suppressed: list[tuple[Finding, Pragma]]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> dict:
        return {
            "version": 1,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "findings": [f.to_json() for f in self.findings],
            "suppressed": [
                {**f.to_json(), "reason": p.reason}
                for f, p in self.suppressed
            ],
        }

    def render_human(self) -> str:
        lines: list[str] = []
        for finding in self.findings:
            lines.append(finding.render())
            if finding.line_text.strip():
                lines.append(f"    {finding.line_text.strip()}")
        summary = (
            f"{len(self.findings)} finding(s), "
            f"{len(self.suppressed)} suppressed by pragma, "
            f"{self.files_checked} file(s) checked"
        )
        lines.append(("OK — " if self.ok else "FAIL — ") + summary)
        return "\n".join(lines)

    def write_json(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8"
        )


def _apply_pragmas(
    project: Project, findings: list[Finding]
) -> tuple[list[Finding], list[tuple[Finding, Pragma]]]:
    """Split findings into (kept, suppressed-by-pragma).

    A pragma only suppresses when it names the finding's rule *and*
    carries a reason; bare pragmas suppress nothing (SUP001 reports
    them instead).
    """
    by_path = {m.relpath: m for m in project.lint_modules}
    kept: list[Finding] = []
    suppressed: list[tuple[Finding, Pragma]] = []
    for finding in findings:
        module = by_path.get(finding.path)
        covering = None
        if module is not None:
            for pragma in module.suppressions.get(finding.line, []):
                if finding.rule in pragma.rules and not pragma.bare:
                    covering = pragma
                    break
        if covering is None:
            kept.append(finding)
        else:
            suppressed.append((finding, covering))
    return kept, suppressed


def lint_paths(paths: list[Path],
               display_root: Path | None = None) -> LintReport:
    """Lint ``paths`` and return the full report."""
    project = Project.build(paths, display_root=display_root)
    raw: list[Finding] = []
    for rule in all_rules():
        raw.extend(rule.check(project))
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    kept, suppressed = _apply_pragmas(project, raw)
    return LintReport(
        findings=kept,
        suppressed=suppressed,
        files_checked=len(project.lint_modules),
    )
