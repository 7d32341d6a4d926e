"""Tests for the offline parser-testing harness."""

import pytest

from repro.bgp.messages import KeepaliveMessage
from repro.core.offline import (
    OfflineParserTester,
    ParserFinding,
    VERDICT_OK,
)


class TestOfflineSession:
    def test_healthy_parser_never_crashes(self):
        tester = OfflineParserTester(seed=1)
        report = tester.run(budget=300)
        assert report.inputs >= 250
        assert report.crashes == []
        assert report.ok > 0
        assert report.protocol_errors > 0  # concolic reaches error paths

    def test_error_histogram_populated(self):
        tester = OfflineParserTester(seed=2)
        report = tester.run(budget=200)
        assert report.error_subcodes
        for (code, _subcode), count in report.error_subcodes.items():
            assert 1 <= code <= 6
            assert count >= 1

    def test_coverage_accounting(self):
        tester = OfflineParserTester(seed=3)
        report = tester.run(budget=150)
        assert report.unique_paths > 20
        assert report.branch_coverage > 20
        assert report.duration > 0

    def test_corpus_replayed(self):
        tester = OfflineParserTester(seed=4)
        tester.add_corpus([KeepaliveMessage().encode(), b"garbage"])
        report = tester.run(budget=10)
        # Corpus inputs counted toward the budget: one decodes cleanly,
        # one is rejected as a header error.
        assert report.inputs == 10
        assert report.protocol_errors >= 1
        assert report.crashes == []

    def test_summary_rendering(self):
        tester = OfflineParserTester(seed=5)
        report = tester.run(budget=60)
        text = report.summary()
        assert "offline parser test" in text
        assert "protocol errors" in text

    def test_finding_hexdump_truncates(self):
        finding = ParserFinding(data=b"\xff" * 200, exception="X", via="corpus")
        assert len(finding.hexdump()) <= 96

    def test_deterministic_given_seed(self):
        a = OfflineParserTester(seed=9).run(budget=80)
        b = OfflineParserTester(seed=9).run(budget=80)
        assert (a.ok, a.protocol_errors, a.unique_paths) == (
            b.ok, b.protocol_errors, b.unique_paths,
        )

    def test_branch_cap_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            OfflineParserTester(seed=1, max_branches_per_run=10)

    def test_verdict_constants(self):
        assert VERDICT_OK == "ok"
