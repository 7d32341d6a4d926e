"""Tests for the text dashboard."""

from repro.core.faultclass import FaultReport
from repro.core.orchestrator import CampaignResult
from repro.viz.dashboard import (
    render_campaign,
    render_fault_table,
    render_live_system,
    render_topology,
)


def sample_report(node="r1", fault_class="operator_mistake", wall=1.5):
    return FaultReport(
        fault_class=fault_class,
        property_name="origin_authenticity",
        node=node,
        detected_at=3.0,
        wall_time_s=wall,
        input_summary="UpdateMessage(announce=['10.1.0.0/16'])",
    )


class TestTopologyRendering:
    def test_mentions_tiers_and_counts(self, demo27_topology):
        text = render_topology(demo27_topology)
        assert "27 routers" in text
        assert "tier-1" in text
        assert "transit" in text
        assert "stub" in text
        assert "t1-1" in text

    def test_relationship_summary(self, demo27_topology):
        text = render_topology(demo27_topology)
        assert "peer" in text
        assert "customer/provider" in text


class TestLiveRendering:
    def test_live_table(self, converged3):
        text = render_live_system(converged3)
        assert "r1" in text and "r2" in text and "r3" in text
        assert "65002" in text
        assert "2/2" in text  # r2's sessions
        assert "9 routes total" in text


class TestFaultTable:
    def test_empty(self):
        assert render_fault_table([]) == "no faults detected"

    def test_rows(self):
        text = render_fault_table([sample_report()])
        assert "operator_mistake" in text
        assert "origin_authenticity" in text
        assert "r1" in text

    def test_long_input_truncated(self):
        report = FaultReport(
            fault_class="programming_error",
            property_name="crash_freedom",
            node="r2",
            detected_at=0.0,
            wall_time_s=1.0,
            input_summary="X" * 300,
        )
        text = render_fault_table([report])
        assert "X" * 40 not in text


class TestCampaignRendering:
    def test_summary_fields(self):
        result = CampaignResult(
            reports=[sample_report(), sample_report(wall=9.0)],
            snapshots_taken=3,
            clones_created=90,
            inputs_explored=90,
            cycles_completed=1,
            wall_time_s=12.5,
        )
        text = render_campaign(result)
        assert "snapshots taken     : 3" in text
        assert "inputs explored     : 90" in text
        assert "time to first detection" in text
        assert "operator_mistake" in text

    def test_deduplication(self):
        result = CampaignResult(
            reports=[sample_report() for _ in range(5)],
        )
        text = render_campaign(result)
        assert "5 (1 distinct)" in text


class TestTransportAndFailoverLines:
    """The dispatch-transport and failover counter lines: rendered
    exactly when their counters are non-zero, with the numbers and
    worker names an operator needs to act."""

    def test_quiet_campaign_renders_neither_line(self):
        text = render_campaign(CampaignResult())
        assert "dispatch wire" not in text
        assert "worker failover" not in text

    def test_dispatch_wire_line_shows_transport_and_kib(self):
        result = CampaignResult(
            transport="socket",
            wire_bytes_sent=4096,
            wire_bytes_received=2048,
        )
        text = render_campaign(result)
        assert "dispatch wire       : 4.0 KiB out / 2.0 KiB in" in text
        assert "(socket)" in text

    def test_failover_line_names_dead_workers_and_counts(self):
        result = CampaignResult(
            worker_failures=1,
            tasks_requeued=3,
            dead_workers=["127.0.0.1:7411"],
        )
        text = render_campaign(result)
        assert (
            "worker failover     : 1 slot(s) lost (127.0.0.1:7411), "
            "3 task(s) requeued"
        ) in text

    def test_workers_line_names_the_transport(self):
        text = render_campaign(
            CampaignResult(workers=2, transport="loopback")
        )
        assert "workers             : 2 via loopback transport" in text

    def test_workers_line_names_no_capture_mode(self):
        """Captures always run on the campaign's own thread, so the
        workers line has no capture mode to report."""
        text = render_campaign(CampaignResult(
            workers=2, capture_wall_s=2.0, capture_blocked_s=0.5,
        ))
        assert "workers             : 2\n" in text
        assert "pipelined" not in text

    def test_busiest_campaign_names_no_solver_cache(self):
        """Transport, failover and capture lines all render; no line
        speaks of a solver cache, which campaigns no longer have."""
        text = render_campaign(CampaignResult(
            workers=3, transport="socket",
            capture_wall_s=1.0, capture_blocked_s=0.2,
            wire_bytes_sent=8192, wire_bytes_received=1024,
            worker_failures=1, tasks_requeued=2, dead_workers=["h:1"],
            solver_queries=99,
        ))
        assert "dispatch wire" in text and "worker failover" in text
        assert "cache" not in text.lower()
