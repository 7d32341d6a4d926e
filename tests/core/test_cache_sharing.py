"""Tests for cross-node solver-cache sharing and delta transport.

The load-bearing property: campaigns are bit-identical at any worker
count and pipeline setting *including* the per-node solver caches,
whose evolution now involves cross-node merges and delta replay.  The
transport layer (CacheSync, worker-side replicas, sticky slots) only
changes how cache state moves, never what it contains.
"""

import pytest

from campaign_helpers import faulty_live, node_fingerprint, report_fingerprint
from repro.checks import default_property_suite
from repro.core.orchestrator import DiceOrchestrator, OrchestratorConfig
from repro.core.parallel import (
    ParallelCampaignEngine,
    SolverCacheCoordinator,
    _replica_for,
)


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
    def test_parallel_ships_deltas_not_caches(self):
        result = run_campaign(workers=2)
        assert result.cache_syncs == 6  # 3 nodes x 2 cycles
        assert result.cache_bytes_shipped() > 0
        assert (
            result.cache_bytes_shipped() < result.cache_bytes_full_equivalent()
        )
        assert 0.0 < result.cache_bytes_reduction() <= 1.0

    def test_serial_ships_nothing(self):
        result = run_campaign(workers=1)
        assert result.cache_syncs == 0
        assert result.cache_bytes_shipped() == 0
        assert result.cache_bytes_reduction() == 0.0

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
        assert 0.0 < transport["bytes_reduction"] <= 1.0
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
        assert "saved" in text


class TestStickySlots:
    def test_same_node_same_slot(self):
        engine = ParallelCampaignEngine(workers=4)
        first = [engine.slot_for(n) for n in ("a", "b", "c", "d", "e")]
        second = [engine.slot_for(n) for n in ("a", "b", "c", "d", "e")]
        assert first == second
        assert first == [0, 1, 2, 3, 0]  # first-seen round-robin

    def test_assignment_is_submission_order_deterministic(self):
        one = ParallelCampaignEngine(workers=3)
        two = ParallelCampaignEngine(workers=3)
        nodes = ["r2", "r1", "r3"]
        assert [one.slot_for(n) for n in nodes] == [
            two.slot_for(n) for n in nodes
        ]


class TestWorkerReplicas:
    """The worker-side store, exercised in-process (the inline engine
    and pool workers share this exact code path)."""

    def sync(self, coordinator, node, slot=0):
        return coordinator.sync_for(node, slot=slot)

    def test_replica_persists_across_tasks_of_one_campaign(self):
        coordinator = SolverCacheCoordinator(["n1"], max_entries=64)
        replica = _replica_for(self.sync(coordinator, "n1"))
        replica.store_model((1,), {"x": 1})
        delta = replica.take_delta("n1")
        coordinator.absorb(delta)
        again = _replica_for(self.sync(coordinator, "n1"))
        assert again is replica
        assert again.lookup_model((1,)) == {"x": 1}

    def test_new_campaign_token_resets_the_store(self):
        first = SolverCacheCoordinator(["n1"])
        replica = _replica_for(self.sync(first, "n1"))
        replica.store_model((1,), {"x": 1})
        second = SolverCacheCoordinator(["n1"])
        fresh = _replica_for(self.sync(second, "n1"))
        assert fresh is not replica
        assert fresh.lookup_model((1,)) is None

    def test_generation_mismatch_is_loud(self):
        coordinator = SolverCacheCoordinator(["n1"])
        replica = _replica_for(self.sync(coordinator, "n1"))
        replica.store_model((1,), {"x": 1})  # never shipped back
        with pytest.raises(RuntimeError, match="generation"):
            _replica_for(self.sync(coordinator, "n1"))

    def test_merge_blob_ships_once_per_slot(self):
        coordinator = SolverCacheCoordinator(["n1", "n2"], max_entries=64)
        for number, node in enumerate(("n1", "n2"), start=1):
            replica = _replica_for(self.sync(coordinator, node, slot=0))
            replica.store_model((number,), {"x": number})
            coordinator.absorb(replica.take_delta(node))
        coordinator.end_cycle()
        first = self.sync(coordinator, "n1", slot=0)
        second = self.sync(coordinator, "n2", slot=0)
        assert first.merge_id == 1
        assert first.merge_blob is not None
        assert second.merge_id == 1
        assert second.merge_blob is None  # slot already has the blob
        # Both replicas still fold the blob (from the slot store).
        a = _replica_for(first)
        b = _replica_for(second)
        assert a.models_cached == 2
        assert b.models_cached == 2
        assert (
            coordinator.state_fingerprints()
            == {"n1": a.state_fingerprint(), "n2": b.state_fingerprint()}
        )
