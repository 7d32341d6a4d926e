"""Tests for cross-node solver-cache sharing and delta transport.

The load-bearing property: campaigns are bit-identical at any worker
count and pipeline setting *including* the per-node solver caches,
whose evolution involves cross-node merges and delta replay.  Where a
task runs only changes how cache state moves, never what it contains.
"""

from campaign_helpers import faulty_live, node_fingerprint, report_fingerprint
from repro.checks import default_property_suite
from repro.core.orchestrator import DiceOrchestrator, OrchestratorConfig


def run_campaign(workers, pipeline=True, share=True, cache_size=4096,
                 cycles=2, inputs=4, stop=False):
    dice = DiceOrchestrator(faulty_live(), default_property_suite())
    return dice.run_campaign(
        OrchestratorConfig(
            inputs_per_node=inputs,
            cycles=cycles,
            seed=9,
            workers=workers,
            pipeline=pipeline,
            share_solver_caches=share,
            solver_cache_size=cache_size,
            stop_after_first_fault=stop,
        )
    )


def campaign_fingerprint(result):
    """Everything the determinism contract covers, in one tuple."""
    return (
        report_fingerprint(result),
        node_fingerprint(result),
        result.solver_cache_hits,
        result.solver_cache_misses,
        result.solver_cache_merged_hits,
        result.cache_state_fingerprints,
    )


class TestMergeDeterminism:
    """The ISSUE's property: identical fault reports, counters, and
    final cache keys across workers ∈ {1, 2, 4} and pipeline on/off."""

    def test_workers_and_pipeline_do_not_change_results(self):
        # cycles=3/inputs=6 is the smallest budget where the merge
        # demonstrably produces cross-node hits, so the comparison
        # also covers merged-entry lookups, not just merged state.
        reference = run_campaign(workers=1, pipeline=False, cycles=3,
                                 inputs=6)
        assert reference.reports, "campaign should detect the seeded faults"
        assert reference.solver_cache_merged_hits > 0, (
            "the merge should produce cross-node hits on this workload"
        )
        for workers, pipeline in ((2, False), (2, True), (4, True)):
            other = run_campaign(workers=workers, pipeline=pipeline,
                                 cycles=3, inputs=6)
            assert campaign_fingerprint(other) == campaign_fingerprint(
                reference
            ), f"divergence at workers={workers} pipeline={pipeline}"

    def test_fifo_eviction_replays_identically_at_tiny_cache(self):
        """Eviction pressure exercises ordered replay: merged entries
        evict local ones and vice versa, in one deterministic order."""
        serial = run_campaign(workers=1, cache_size=8)
        parallel = run_campaign(workers=4, cache_size=8)
        assert campaign_fingerprint(serial) == campaign_fingerprint(parallel)

    def test_share_disabled_matches_across_workers(self):
        serial = run_campaign(workers=1, share=False)
        parallel = run_campaign(workers=2, share=False)
        assert campaign_fingerprint(serial) == campaign_fingerprint(parallel)
        assert serial.solver_cache_merged_hits == 0
        assert serial.cache_entries_merged == 0

    def test_abort_mid_cycle_skips_the_merge_consistently(self):
        serial = run_campaign(workers=1, stop=True)
        parallel = run_campaign(workers=3, stop=True)
        assert serial.reports
        assert report_fingerprint(serial) == report_fingerprint(parallel)
        assert (
            serial.cache_state_fingerprints
            == parallel.cache_state_fingerprints
        )

    def test_sharing_never_reduces_hits(self):
        shared = run_campaign(workers=1, share=True)
        isolated = run_campaign(workers=1, share=False)
        assert shared.solver_cache_hits >= isolated.solver_cache_hits


class TestTransportAccounting:
    def test_parallel_ships_caches_out_and_deltas_in(self):
        result = run_campaign(workers=2)
        assert result.cache_bytes_shipped_out > 0
        assert result.cache_bytes_shipped_in > 0
        assert result.cache_bytes_shipped() == (
            result.cache_bytes_shipped_out + result.cache_bytes_shipped_in
        )

    def test_serial_ships_nothing(self):
        result = run_campaign(workers=1)
        assert result.cache_bytes_shipped() == 0

    def test_pipelined_prepickles_payloads(self):
        result = run_campaign(workers=2, pipeline=True)
        assert result.capture_pickle_s > 0.0
        assert result.capture_pickle_s <= result.capture_wall_s

    def test_report_includes_cache_transport(self):
        from repro.core.reporting import campaign_to_dict

        summary = campaign_to_dict(run_campaign(workers=2))["summary"]
        transport = summary["cache_transport"]
        assert transport["bytes_shipped_out"] > 0
        assert transport["bytes_shipped_in"] > 0
        assert set(transport) == {
            "bytes_shipped_out", "bytes_shipped_in", "entries_merged",
        }
        assert summary["solver_cache_merged_hits"] >= 0
        assert summary["capture_pickle_s"] >= 0.0
        fingerprints = summary["cache_state_fingerprints"]
        assert set(fingerprints) == {"r1", "r2", "r3"}
        assert all(
            isinstance(value, str) and len(value) == 16
            for value in fingerprints.values()
        )

    def test_dashboard_renders_transport_line(self):
        from repro.viz.dashboard import render_campaign

        text = render_campaign(run_campaign(workers=2))
        assert "cache transport" in text
        assert "KiB shipped" in text
