"""Tests for the campaign orchestrator."""

import dataclasses
import gc

import pytest

from repro.checks import default_property_suite
from repro.core.orchestrator import (
    CampaignResult,
    DiceOrchestrator,
    OrchestratorConfig,
)
from repro.core.parallel import SolverCacheCoordinator


def make_orchestrator(live):
    return DiceOrchestrator(live, default_property_suite())


class TestCampaign:
    def test_cycle_visits_every_node(self, converged3):
        dice = make_orchestrator(converged3)
        result = dice.run_campaign(
            OrchestratorConfig(inputs_per_node=5, cycles=1, seed=1)
        )
        assert result.snapshots_taken == 3
        assert {r.node for r in result.node_reports} == {"r1", "r2", "r3"}
        assert result.inputs_explored == 15
        assert result.cycles_completed == 1

    def test_duplicate_explorer_nodes_rejected(self, converged3):
        """A session's seed derives from (cycle, node): a node listed
        twice is a mistyped node list, not a second session."""
        dice = make_orchestrator(converged3)
        with pytest.raises(ValueError, match="duplicate"):
            dice.run_campaign(
                OrchestratorConfig(explorer_nodes=["r2", "r2"], seed=1)
            )

    def test_solver_queries_sum_the_sessions(self, converged3):
        dice = make_orchestrator(converged3)
        result = dice.run_campaign(
            OrchestratorConfig(inputs_per_node=4, cycles=2, seed=1)
        )
        assert result.solver_queries == sum(
            report.solver_queries for report in result.node_reports
        ) > 0
        for report in result.node_reports:
            assert 0 <= report.solver_sat <= report.solver_queries

    @pytest.mark.parametrize(
        "knob", ["solver_cache_size", "share_solver_caches"]
    )
    def test_config_has_no_solver_cache_knobs(self, knob):
        assert knob not in {
            f.name for f in dataclasses.fields(OrchestratorConfig)
        }
        with pytest.raises(TypeError, match=knob):
            OrchestratorConfig(**{knob: 1})

    def test_explorer_nodes_subset(self, converged3):
        dice = make_orchestrator(converged3)
        result = dice.run_campaign(
            OrchestratorConfig(
                inputs_per_node=5, explorer_nodes=["r2"], seed=1
            )
        )
        assert result.snapshots_taken == 1
        assert result.node_reports[0].node == "r2"

    def test_multiple_cycles(self, converged3):
        dice = make_orchestrator(converged3)
        result = dice.run_campaign(
            OrchestratorConfig(
                inputs_per_node=3, cycles=2, explorer_nodes=["r1"], seed=1
            )
        )
        assert result.snapshots_taken == 2
        assert result.cycles_completed == 2

    def test_fresh_systems_number_their_snapshots_alike(self):
        """Snapshot ids count the live system's own captures, so two
        campaigns on two fresh systems in one process report the same
        ids — whatever the process captured before."""
        from repro import quickstart_system

        def snapshot_ids():
            live = quickstart_system(seed=4)
            live.converge()
            result = make_orchestrator(live).run_campaign(
                OrchestratorConfig(inputs_per_node=2, cycles=2, seed=1,
                                   explorer_nodes=["r1", "r2"])
            )
            return [report.snapshot_id for report in result.node_reports]

        assert snapshot_ids() == snapshot_ids() == [
            "snap-1", "snap-2", "snap-3", "snap-4",
        ]

    def test_snapshot_mode_is_not_a_setting(self):
        # Campaigns always capture with the marker protocol.
        with pytest.raises(TypeError):
            OrchestratorConfig(snapshot_mode="atomic")

    def test_campaign_captures_with_the_marker_protocol(
        self, converged3, monkeypatch
    ):
        coordinator = converged3.coordinator
        initiators = []
        capture = coordinator.capture

        def tracked(initiator, *args, **kwargs):
            initiators.append(initiator)
            return capture(initiator, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("campaigns never capture atomically")

        monkeypatch.setattr(coordinator, "capture", tracked)
        monkeypatch.setattr(coordinator, "capture_atomic", refuse)
        result = make_orchestrator(converged3).run_campaign(
            OrchestratorConfig(
                inputs_per_node=3, explorer_nodes=["r2", "r3"], seed=1,
            )
        )
        assert result.snapshots_taken == 2
        assert initiators == ["r2", "r3"]

    def test_live_system_advances_between_nodes(self, converged3):
        before = converged3.network.sim.now
        dice = make_orchestrator(converged3)
        dice.run_campaign(
            OrchestratorConfig(inputs_per_node=2, live_advance=1.0, seed=1)
        )
        assert converged3.network.sim.now >= before + 3.0

    def test_empty_node_list_rejected(self, converged3):
        dice = make_orchestrator(converged3)
        with pytest.raises(ValueError):
            dice.run_campaign(OrchestratorConfig(explorer_nodes=[]))

    def test_default_claims_from_initial_configs(self, converged3):
        from repro.bgp.ip import Prefix

        dice = make_orchestrator(converged3)
        assert dice.claims.origins(Prefix("10.1.0.0/16")) == {65001}

    def test_stop_after_first_fault(self, converged3_with_bug):
        from repro.bgp.config import AddNetwork
        from repro.bgp.ip import Prefix

        live = converged3_with_bug
        live.apply_change("r3", AddNetwork(Prefix("10.1.0.0/16")))
        live.run(until=live.network.sim.now + 5)
        dice = make_orchestrator(live)
        result = dice.run_campaign(
            OrchestratorConfig(
                inputs_per_node=40, stop_after_first_fault=True, seed=3
            )
        )
        assert result.reports
        # Stopped early: not every node should have been explored with
        # the full budget once a fault surfaced at the first nodes.
        assert len(result.node_reports) <= 3

    def test_fault_report_stamping(self, converged3_with_bug):
        from repro.bgp.config import AddNetwork
        from repro.bgp.ip import Prefix

        live = converged3_with_bug
        live.apply_change("r3", AddNetwork(Prefix("10.1.0.0/16")))
        live.run(until=live.network.sim.now + 5)
        dice = make_orchestrator(live)
        result = dice.run_campaign(
            OrchestratorConfig(inputs_per_node=30, seed=3)
        )
        assert result.reports
        for report in result.reports:
            assert report.snapshot_id
            assert report.wall_time_s > 0
            assert report.inputs_explored > 0
        assert result.time_to_detection()
        assert result.inputs_to_detection()


class TestBenchmarkCompatibilityNames:
    """The frozen end-to-end benchmark still names a few solver-cache
    hooks: its tracer wraps three coordinator methods, found with
    ``vars(cls)[name]``, and its runner reads constant counters off
    every result.  Campaigns must neither call nor set them."""

    HOOKS = ("absorb", "absorb_shard", "end_cycle")

    def test_coordinator_hooks_are_inert_and_in_the_class_body(self):
        coordinator = SolverCacheCoordinator()
        for name in self.HOOKS:
            assert name in vars(SolverCacheCoordinator)
        assert coordinator.absorb("r1", object()) is None
        assert coordinator.absorb_shard("r1", object()) is None
        assert coordinator.end_cycle() is None

    def test_result_cache_names_are_constants_not_fields(self):
        result = CampaignResult()
        assert result.solver_cache_hits == 0
        assert result.solver_cache_misses == 0
        assert result.cache_state_fingerprints == {}
        assert result.cache_bytes_shipped() == 0
        assert not any(
            "cache" in f.name for f in dataclasses.fields(CampaignResult)
        )

    def test_campaign_never_touches_the_hooks(self, converged3,
                                              monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a campaign reached a benchmark-only hook")

        monkeypatch.setattr(SolverCacheCoordinator, "__init__", forbidden)
        for name in self.HOOKS:
            monkeypatch.setattr(SolverCacheCoordinator, name, forbidden)
        result = make_orchestrator(converged3).run_campaign(
            OrchestratorConfig(inputs_per_node=3, cycles=2, seed=1,
                               explorer_nodes=["r2"])
        )
        assert result.solver_queries > 0
        assert (result.solver_cache_hits, result.solver_cache_misses,
                result.cache_state_fingerprints,
                result.cache_bytes_shipped()) == (0, 0, {}, 0)


class TestGcFreezeBracket:
    """A campaign runs with the heap it started on frozen out of the
    cyclic collector, and hands it back however it ends."""

    CONFIG = dict(inputs_per_node=3, cycles=1, seed=1, explorer_nodes=["r2"])

    @staticmethod
    def signature(result):
        return (
            [(r.fault_class, r.property_name, r.node, r.input_summary,
              r.inputs_explored, r.detected_at) for r in result.reports],
            [(n.node, n.executions, n.unique_paths, n.branch_coverage,
              n.clones_created, n.crashes, n.solver_queries, n.solver_sat)
             for n in result.node_reports],
        )

    def test_frozen_during_the_campaign_and_unfrozen_after(
        self, converged3, monkeypatch
    ):
        dice = make_orchestrator(converged3)
        inner = dice._run_campaign_inner
        frozen = []

        def observed(config, started):
            frozen.append(gc.get_freeze_count())
            return inner(config, started)

        monkeypatch.setattr(dice, "_run_campaign_inner", observed)
        assert gc.get_freeze_count() == 0
        dice.run_campaign(OrchestratorConfig(**self.CONFIG))
        assert frozen and frozen[0] > 0
        assert gc.get_freeze_count() == 0

    def test_unfrozen_after_a_campaign_that_raises(self, converged3,
                                                    monkeypatch):
        dice = make_orchestrator(converged3)

        def fails(config, started):
            assert gc.get_freeze_count() > 0
            raise RuntimeError("session failed")

        monkeypatch.setattr(dice, "_run_campaign_inner", fails)
        with pytest.raises(RuntimeError, match="session failed"):
            dice.run_campaign(OrchestratorConfig(**self.CONFIG))
        assert gc.get_freeze_count() == 0

    def test_a_callers_own_freeze_is_left_alone(self, converged3):
        gc.freeze()
        try:
            held = gc.get_freeze_count()
            assert held > 0
            make_orchestrator(converged3).run_campaign(
                OrchestratorConfig(**self.CONFIG)
            )
            assert gc.get_freeze_count() == held
        finally:
            gc.unfreeze()

    def test_results_equal_a_campaign_without_the_collector(self):
        from repro import quickstart_system

        def campaign():
            live = quickstart_system(seed=42)
            live.converge()
            return make_orchestrator(live).run_campaign(
                OrchestratorConfig(**self.CONFIG)
            )

        frozen = campaign()
        gc.disable()
        try:
            collector_off = campaign()
        finally:
            gc.enable()
        assert self.signature(frozen) == self.signature(collector_off)
        assert frozen.inputs_explored == 3
