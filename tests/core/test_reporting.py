"""Tests for campaign JSON reporting."""

import json

from repro.core.faultclass import FaultReport
from repro.core.orchestrator import CampaignResult
from repro.core.reporting import (
    campaign_to_dict,
    campaign_to_json,
    fault_report_from_dict,
    fault_report_to_dict,
    load_fault_reports,
    save_campaign,
)
from repro.core.explorer import NodeExplorationReport


def sample_report(**overrides):
    fields = dict(
        fault_class="operator_mistake",
        property_name="origin_authenticity",
        node="r3",
        detected_at=12.5,
        wall_time_s=1.25,
        input_summary="UpdateMessage(...)",
        evidence={"prefix": "10.1.0.0/16", "owners": [65001]},
        snapshot_id="snap-9",
        inputs_explored=42,
    )
    fields.update(overrides)
    return FaultReport(**fields)


def sample_campaign():
    return CampaignResult(
        reports=[sample_report()],
        node_reports=[
            NodeExplorationReport(
                node="r3", strategy="concolic", snapshot_id="snap-9",
                executions=42, unique_paths=40, branch_coverage=120,
                clones_created=44, solver_queries=17, solver_sat=11,
            )
        ],
        snapshots_taken=1,
        clones_created=44,
        inputs_explored=42,
        cycles_completed=1,
        wall_time_s=3.5,
    )


class TestFaultReportSerialization:
    def test_roundtrip(self):
        original = sample_report()
        data = fault_report_to_dict(original)
        restored = fault_report_from_dict(data)
        assert restored.fault_class == original.fault_class
        assert restored.node == original.node
        assert restored.evidence["prefix"] == "10.1.0.0/16"
        assert restored.inputs_explored == 42

    def test_dict_is_json_safe(self):
        report = sample_report(evidence={"weird": object()})
        text = json.dumps(fault_report_to_dict(report))
        assert "weird" in text


class TestCampaignSerialization:
    def test_structure(self):
        data = campaign_to_dict(sample_campaign())
        assert data["summary"]["snapshots_taken"] == 1
        assert data["summary"]["fault_classes_found"] == [
            "operator_mistake",
        ]
        node = data["node_reports"][0]
        assert node["node"] == "r3"
        # What the CI equality gates compare across modes.
        assert (node["clones_created"], node["solver_queries"],
                node["solver_sat"]) == (44, 17, 11)
        assert not any("cache" in key for key in data["summary"])
        assert "pipelined" not in data["summary"]
        assert "capture_pickle_s" not in data["summary"]
        assert len(data["reports"]) == 1

    def test_node_report_keys(self):
        """Every per-node counter the CI equality gates compare is in
        the report, and nothing a run did not find is."""
        node = campaign_to_dict(sample_campaign())["node_reports"][0]
        assert set(node) == {
            "node", "strategy", "snapshot_id", "executions",
            "unique_paths", "branch_coverage", "clones_created",
            "violations", "crashes", "solver_queries", "solver_sat",
            "skipped_reason",
        }

    def test_real_campaign_counters_survive_json(self, converged3):
        from repro.checks import default_property_suite
        from repro.core.orchestrator import DiceOrchestrator, OrchestratorConfig

        result = DiceOrchestrator(
            converged3, default_property_suite()
        ).run_campaign(OrchestratorConfig(inputs_per_node=3, seed=1))
        parsed = json.loads(campaign_to_json(result))
        assert parsed["summary"]["solver_queries"] == result.solver_queries
        counters = ("executions", "unique_paths", "branch_coverage",
                    "clones_created", "crashes", "solver_queries",
                    "solver_sat")
        assert [
            [node[key] for key in counters]
            for node in parsed["node_reports"]
        ] == [
            [getattr(report, key) for key in counters]
            for report in result.node_reports
        ]
        assert any(node["solver_sat"] for node in parsed["node_reports"])

    def test_json_parses(self):
        parsed = json.loads(campaign_to_json(sample_campaign()))
        assert parsed["summary"]["inputs_explored"] == 42

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "campaign.json"
        save_campaign(sample_campaign(), str(path))
        reports = load_fault_reports(str(path))
        assert len(reports) == 1
        assert reports[0].fault_class == "operator_mistake"
        assert reports[0].evidence["owners"] == [65001]


class TestDispatchTransportBlock:
    """The dispatch_transport block: the JSON contract the CI smoke
    jobs and operators' tooling read transport and failover facts
    from."""

    def test_defaults_for_a_serial_campaign(self):
        block = campaign_to_dict(sample_campaign())["summary"][
            "dispatch_transport"
        ]
        assert block == {
            "transport": "local",
            "wire_bytes_sent": 0,
            "wire_bytes_received": 0,
            "worker_failures": 0,
            "max_worker_failures": 0,
            "dead_workers": [],
            "tasks_requeued": 0,
        }

    def test_failover_ledger_round_trips_through_json(self):
        result = sample_campaign()
        result.dispatch.transport = "socket"
        result.dispatch.wire_bytes_sent = 123_456
        result.dispatch.wire_bytes_received = 654
        result.dispatch.worker_failures = 1
        result.dispatch.max_worker_failures = 1
        result.dispatch.dead_workers = ["127.0.0.1:7411"]
        result.dispatch.tasks_requeued = 2
        block = json.loads(campaign_to_json(result))["summary"][
            "dispatch_transport"
        ]
        assert block["transport"] == "socket"
        assert block["wire_bytes_sent"] == 123_456
        assert block["wire_bytes_received"] == 654
        assert block["worker_failures"] == 1
        assert block["max_worker_failures"] == 1
        assert block["dead_workers"] == ["127.0.0.1:7411"]
        assert block["tasks_requeued"] == 2

    def test_dead_worker_list_is_a_copy(self):
        """Serialization must not alias the result's mutable list."""
        result = sample_campaign()
        result.dispatch.dead_workers = ["a:1"]
        block = campaign_to_dict(result)["summary"]["dispatch_transport"]
        block["dead_workers"].append("b:2")
        assert result.dispatch.dead_workers == ["a:1"]
