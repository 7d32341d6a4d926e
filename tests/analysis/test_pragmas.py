"""Suppression-pragma parsing and the lint report's shapes."""

import json

import pytest

from repro.analysis.engine import lint_paths
from repro.analysis.pragmas import parse_pragmas

BAD_SOURCE = '''"""Fixture written to tmp_path: two DET003 findings."""

import time


def first() -> float:
    return time.time()


def second() -> float:
    return time.time()
'''


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "clocky.py"
    path.write_text(BAD_SOURCE)
    return path


class TestPragmaParsing:
    def test_inline_pragma_applies_to_its_own_line(self):
        pragmas = parse_pragmas(
            "x = 1\ny = time.time()  # repro: allow[DET003] startup stamp\n"
        )
        assert len(pragmas) == 1
        assert pragmas[0].applies_to == 2
        assert pragmas[0].rules == ("DET003",)
        assert pragmas[0].reason == "startup stamp"

    def test_standalone_pragma_applies_to_next_code_line(self):
        pragmas = parse_pragmas(
            "# repro: allow[HRM002] reason part one\n"
            "# and a continuation comment line\n"
            "\n"
            "STATE = {}\n"
        )
        assert pragmas[0].applies_to == 4

    def test_multiple_rules_and_case_normalisation(self):
        pragmas = parse_pragmas("x = 1  # repro: allow[det003, hrm002] why\n")
        assert pragmas[0].rules == ("DET003", "HRM002")

    def test_bare_pragma_has_no_reason(self):
        pragmas = parse_pragmas("x = 1  # repro: allow[DET003]\n")
        assert pragmas[0].bare


class TestReportShapes:
    def test_json_report_shape(self, bad_file, tmp_path):
        report = lint_paths([bad_file])
        out = tmp_path / "report.json"
        report.write_json(out)
        data = json.loads(out.read_text())
        assert set(data) == {
            "version", "ok", "files_checked", "findings", "suppressed",
        }
        assert data["version"] == 1
        assert data["ok"] is False
        assert data["files_checked"] == 1
        assert {f["rule"] for f in data["findings"]} == {"DET003"}
        for finding in data["findings"]:
            assert set(finding) == {"rule", "path", "line", "col", "message"}

    def test_human_report_has_line_text_and_summary(self, bad_file):
        text = lint_paths([bad_file]).render_human()
        assert "time.time()" in text
        assert text.strip().endswith("1 file(s) checked")
        assert "FAIL —" in text


class TestPragmaWaiver:
    """A reasoned pragma on a finding's line is the one waiver."""

    def lint(self, tmp_path, source):
        path = tmp_path / "clocky.py"
        path.write_text(source)
        return lint_paths([path])

    def test_reasoned_pragma_waives_only_its_own_line(self, tmp_path):
        source = BAD_SOURCE.replace(
            "return time.time()",
            "return time.time()  # repro: allow[DET003] display stamp",
            1,
        )
        report = self.lint(tmp_path, source)
        assert [f.line for f in report.findings] == [11]
        [(finding, pragma)] = report.suppressed
        assert (finding.rule, finding.line) == ("DET003", 7)
        assert pragma.reason == "display stamp"
        assert not report.ok

    def test_pragma_naming_another_rule_waives_nothing(self, tmp_path):
        source = BAD_SOURCE.replace(
            "return time.time()",
            "return time.time()  # repro: allow[HRM002] wrong rule",
        )
        report = self.lint(tmp_path, source)
        assert [f.rule for f in report.findings] == ["DET003", "DET003"]
        assert not report.suppressed

    def test_standalone_pragma_waives_the_next_code_line(self, tmp_path):
        source = BAD_SOURCE.replace(
            "    return time.time()",
            "    # repro: allow[DET003] display stamp\n"
            "    return time.time()",
        )
        report = self.lint(tmp_path, source)
        assert report.ok
        assert len(report.suppressed) == 2

    def test_suppressed_finding_carries_its_reason_in_json(self, tmp_path):
        source = BAD_SOURCE.replace(
            "return time.time()",
            "return time.time()  # repro: allow[DET003] display stamp",
        )
        data = self.lint(tmp_path, source).to_json()
        assert data["ok"] is True
        assert data["findings"] == []
        assert [s["reason"] for s in data["suppressed"]] == [
            "display stamp", "display stamp",
        ]

    def test_human_summary_counts_pragma_suppressions(self, tmp_path):
        source = BAD_SOURCE.replace(
            "return time.time()",
            "return time.time()  # repro: allow[DET003] display stamp",
            1,
        )
        text = self.lint(tmp_path, source).render_human()
        assert text.strip().endswith(
            "FAIL — 1 finding(s), 1 suppressed by pragma, "
            "1 file(s) checked"
        )
