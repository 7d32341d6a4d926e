"""Differential oracle wiring through the campaign layer.

The pre-pass runs once in the main process before exploration, so its
verdict is worker-, shard- and transport-independent by construction;
these tests pin the CampaignResult fields, the JSON report block, the
dashboard line, the CLI flag, and that execution mode really cannot
change the differential outcome.
"""

import dataclasses
import json
import time

from repro import quickstart_system
from repro.bgp import faults
from repro.bgp.config import AddNetwork
from repro.bgp.ip import Prefix
from repro.checks import default_property_suite
from repro.checks.differential import differential_fault_reports
from repro.cli import build_parser, main
from repro.core.faultclass import FAULT_MODEL_DIVERGENCE
from repro.core.orchestrator import DiceOrchestrator, OrchestratorConfig
from repro.core.reporting import campaign_to_dict
from repro.differential.extract import settle_live
from repro.differential.reference import ReferenceOracle
from repro.viz.dashboard import render_campaign


def _campaign(live, **overrides):
    settings = dict(inputs_per_node=3, explorer_nodes=["r2"], seed=1)
    settings.update(overrides)
    config = OrchestratorConfig(**settings)
    return DiceOrchestrator(live, default_property_suite()).run_campaign(
        config
    )


class TestPrepass:
    def test_off_by_default(self, converged3):
        result = _campaign(converged3)
        assert result.differential.mode == "off"
        assert result.differential.divergences == 0
        assert result.differential.prefixes_checked == 0

    def test_reference_mode_populates_result(self, converged3):
        settle_live(converged3)
        result = _campaign(converged3, differential="reference")
        assert result.differential.mode == "reference"
        assert result.differential.divergences == 0
        assert result.differential.prefixes_checked > 0
        assert result.differential.skipped == ""
        assert result.differential.oracle_wall_s >= 0.0

    def test_one_clock_for_the_prepass_and_the_sessions(self, monkeypatch):
        """Time to detection counts from the campaign's start on one
        clock: the pre-pass is inside the campaign's wall time, and no
        session report is stamped before the pre-pass ended."""
        live = quickstart_system(seed=42)
        live.converge()
        live.apply_change("r3", AddNetwork(Prefix("10.1.0.0/16")))
        settle_live(live)
        verify = ReferenceOracle.verify_fixpoint

        def slow_verify(oracle, actual):
            time.sleep(0.2)
            return verify(oracle, actual)

        monkeypatch.setattr(ReferenceOracle, "verify_fixpoint", slow_verify)
        result = _campaign(live, differential="reference",
                           explorer_nodes=["r3"], inputs_per_node=2)
        oracle_s = result.differential.oracle_wall_s
        assert oracle_s >= 0.2
        assert result.wall_time_s >= oracle_s
        assert result.reports  # r3's hijack
        assert all(report.wall_time_s >= oracle_s
                   for report in result.reports)

    def test_unsettled_live_system_skips_not_lies(self, converged3):
        # Inject a change and stop mid-propagation: the UPDATE is still
        # in flight, so any divergence would be a phantom. The pre-pass
        # must skip with a reason rather than report garbage.
        from repro.bgp.config import AddNetwork
        from repro.bgp.ip import Prefix

        converged3.apply_change("r3", AddNetwork(Prefix("10.99.0.0/16")))
        reports, stats = differential_fault_reports(
            converged3, "reference", started_at=time.perf_counter()
        )
        assert reports == []
        assert stats.skipped
        assert stats.divergences == 0

    def test_divergence_reports_prepended(self):
        # Quickstart is a line — one path per prefix — so the inverted
        # LOCAL_PREF bug needs the two-path system to be visible.
        from test_reference import two_path_system

        live = two_path_system(frozenset({faults.BUG_INVERTED_LOCAL_PREF}))
        settle_live(live)
        result = _campaign(
            live, differential="reference", explorer_nodes=["r"]
        )
        assert result.differential.divergences > 0
        divergence_reports = [
            r for r in result.reports
            if r.fault_class == FAULT_MODEL_DIVERGENCE
        ]
        assert divergence_reports
        assert result.reports[0].fault_class == FAULT_MODEL_DIVERGENCE
        first = divergence_reports[0]
        assert first.property_name == "differential:reference"
        assert "expected" in first.evidence
        assert "actual" in first.evidence

    def test_worker_count_cannot_change_the_verdict(self, converged3):
        settle_live(converged3)
        serial = _campaign(converged3, differential="reference")
        sharded = _campaign(
            converged3, differential="reference", workers=2
        )
        assert serial.differential == dataclasses.replace(
            sharded.differential,
            oracle_wall_s=serial.differential.oracle_wall_s,
        )
        assert serial.differential.divergences == 0


class TestReporting:
    def test_json_report_carries_differential_block(self, converged3):
        settle_live(converged3)
        result = _campaign(converged3, differential="reference")
        block = campaign_to_dict(result)["summary"]["differential"]
        assert block["mode"] == "reference"
        assert block["divergences"] == 0
        assert block["prefixes_checked"] == (
            result.differential.prefixes_checked
        )
        assert block["skipped"] == ""
        json.dumps(block)  # must be serialisable as-is

    def test_dashboard_renders_oracle_line(self, converged3):
        settle_live(converged3)
        result = _campaign(converged3, differential="reference")
        text = render_campaign(result)
        assert "differential oracle" in text
        assert "reference" in text
        assert "0 divergence(s)" in text

    def test_dashboard_silent_when_off(self, converged3):
        result = _campaign(converged3)
        assert "differential oracle" not in render_campaign(result)


class TestCli:
    def test_flag_default_and_choices(self):
        assert build_parser().parse_args(["campaign"]).differential == "off"
        args = build_parser().parse_args(
            ["campaign", "--differential", "reference"]
        )
        assert args.differential == "reference"

    def test_campaign_with_reference_oracle(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main([
            "campaign", "--topology", "quickstart", "--inputs", "3",
            "--nodes", "r2", "--differential", "reference",
            "--report", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "differential oracle : reference" in out
        assert "0 divergence(s)" in out
        data = json.loads(path.read_text())
        assert data["summary"]["differential"]["divergences"] == 0

    def test_gadget_topologies_exposed_to_cli(self):
        parser = build_parser()
        for name in ("wedgie", "mrai-race", "damping-race", "med-trap"):
            args = parser.parse_args(["campaign", "--topology", name])
            assert args.topology == name
