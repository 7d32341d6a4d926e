"""Static invariant analysis for the repro codebase.

The determinism and isolation contracts written down in
``docs/architecture.md`` — seeded RNG derivation, process-stable
digests, oracle independence, worker hermeticity, CRC-framed wire
traffic — were historically enforced only at runtime, by equality
matrices and chaos harnesses that are expensive and catch violations
long after they land.  This package enforces the statically checkable
core of those contracts at lint time.

Architecture:

* :mod:`repro.analysis.project` parses every file under the lint roots
  once into :class:`ModuleInfo` records and builds the repro-internal
  import graph shared by all rules;
* :mod:`repro.analysis.registry` holds the rule registry; rules live in
  :mod:`repro.analysis.rules` and declare an ``id`` (``DET001``, …), a
  human summary, and a ``check`` hook;
* :mod:`repro.analysis.contracts` is the declarative layer: per-module
  import contracts, the wire-dataclass inventory, and the worker
  entry-point roots — data, not code, so growing the codebase means
  editing a table;
* :mod:`repro.analysis.pragmas` implements the
  ``# repro: allow[RULE-ID] reason`` suppression pragma, the one way
  to waive a finding;
* :mod:`repro.analysis.engine` ties it together and is what both
  ``repro lint`` and ``scripts/check_invariants.py`` call.

The package never imports the runtime it checks (enforced by its own
``analysis-is-pure`` import contract): everything here is stdlib
``ast`` over source text.
"""

from __future__ import annotations

from repro.analysis.engine import LintReport, lint_paths
from repro.analysis.findings import Finding
from repro.analysis.registry import all_rules

__all__ = ["Finding", "LintReport", "all_rules", "lint_paths"]
