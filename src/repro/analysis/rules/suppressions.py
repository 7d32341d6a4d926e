"""SUP001: suppressions must say why.

A ``# repro: allow[RULE-ID]`` pragma with no reason, or one naming a
rule id the registry does not know, is itself a finding — so waivers
stay auditable and cannot silently outlive the rules they waived.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.project import Project
from repro.analysis.registry import register


@register
class BareSuppression:
    id = "SUP001"
    summary = "suppression pragma without a reason (or unknown rule id)"
    invariant = "every waiver carries its justification"

    def check(self, project: Project) -> Iterable[Finding]:
        from repro.analysis.registry import rule_ids

        known = rule_ids()
        for module in project.lint_modules:
            for pragma in module.pragmas:
                problems = []
                if pragma.bare:
                    problems.append("carries no reason")
                unknown = [r for r in pragma.rules if r not in known]
                if unknown:
                    problems.append(
                        f"names unknown rule id(s) {', '.join(unknown)}"
                    )
                if not pragma.rules:
                    problems.append("names no rule id")
                if not problems:
                    continue
                yield Finding(
                    rule=self.id,
                    path=module.relpath,
                    line=pragma.line,
                    col=0,
                    message=(
                        "suppression pragma "
                        + " and ".join(problems)
                        + "; write `# repro: allow[RULE-ID] <why this "
                        "is safe>`"
                    ),
                    line_text=module.line_text(pragma.line),
                )

