#!/usr/bin/env python3
"""CI gate: run the invariant linter and fail on any new finding.

Thin wrapper over ``repro.analysis.cli`` pinned to the repo's layout:
lints ``src/`` and writes the JSON report for the CI artifact.  A
finding fails the gate unless a ``# repro: allow[RULE-ID] reason``
pragma on its line waives it; a pragma without a reason, or naming an
unknown rule, is itself a finding (SUP001).

Run:  python scripts/check_invariants.py [--json FILE] [--paths P ...]

``--paths`` exists for the negative smoke test, which points the gate
at a doctored copy of the tree and asserts it fails.
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.analysis.cli import run_lint  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_invariants",
        description="invariant-lint CI gate (repro lint over src/)",
    )
    parser.add_argument("--json", default=None, metavar="FILE",
                        dest="json_path",
                        help="write the JSON report here (CI artifact)")
    parser.add_argument("--paths", nargs="+", default=None, metavar="PATH",
                        help="override the lint roots (default: src/)")
    args = parser.parse_args(argv)

    lint_args = argparse.Namespace(
        paths=args.paths or [os.path.join(REPO_ROOT, "src")],
        json_path=args.json_path,
        list_rules=False,
        quiet=False,
    )
    return run_lint(lint_args)


if __name__ == "__main__":
    sys.exit(main())
