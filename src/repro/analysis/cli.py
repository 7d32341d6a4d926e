"""``repro lint`` — the invariant linter's command-line front end.

Also the implementation behind ``scripts/check_invariants.py`` (the CI
gate): both call :func:`run_lint`.

Exit codes: 0 clean, 1 findings (a finding passes only when a
``# repro: allow[RULE-ID] reason`` pragma on its line waives it),
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.engine import lint_paths
from repro.analysis.registry import all_rules


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to ``parser`` (shared with scripts)."""
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint "
                             "(default: src)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        dest="json_path",
                        help="also write the full report as JSON")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-finding output; summary only")


def _list_rules() -> int:
    for rule in all_rules():
        print(f"{rule.id}  {rule.summary}")
        print(f"        enforces: {rule.invariant}")
    return 0


def run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        return _list_rules()
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: no such path(s): {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2
    report = lint_paths(paths)
    if args.json_path:
        report.write_json(Path(args.json_path))
    output = report.render_human()
    if args.quiet:
        output = output.splitlines()[-1]
    print(output)
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="static determinism/isolation invariant linter",
    )
    configure_parser(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
