"""Rule registry.

A rule is a class with an ``id`` (stable, referenced by pragmas), a
one-line ``summary``, the ``invariant`` it enforces (the
docs/architecture.md anchor), and a ``check(project)`` generator of
:class:`~repro.analysis.findings.Finding`.  Registration is by
decorator so adding a rule is one file edit; the engine and the docs
table both iterate :func:`all_rules`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Protocol

if TYPE_CHECKING:  # import cycle guard: rules import the registry
    from repro.analysis.findings import Finding
    from repro.analysis.project import Project


class Rule(Protocol):
    id: str
    summary: str
    invariant: str

    def check(self, project: "Project") -> Iterable["Finding"]: ...


_RULES: dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding one rule instance to the registry."""
    rule = cls()
    if rule.id in _RULES:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _RULES[rule.id] = rule
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, in stable id order."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def rule_ids() -> tuple[str, ...]:
    """Every registered rule id, sorted."""
    import repro.analysis.rules  # noqa: F401

    return tuple(sorted(_RULES))
