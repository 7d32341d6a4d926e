"""Tests for the parallel campaign engine.

The load-bearing property is determinism: a campaign's fault reports
and per-node exploration results must not depend on the worker count.
Everything else (pickling, ordering, claims flattening) supports it.
"""

import copy
import dataclasses
import pickle

import pytest

from campaign_helpers import (
    campaign_fingerprint,
    faulty_live,
    node_fingerprint,
    report_fingerprint,
    whole_session,
)
from repro import quickstart_system
from repro.bgp.ip import Prefix
from repro.checks import default_property_suite
from repro.concolic.frontier import Frontier, FrontierShard
from repro.core.explorer import ExplorationConfig
from repro.core.orchestrator import DiceOrchestrator, OrchestratorConfig
from repro.core.parallel import (
    ExplorationTask,
    InlineTransport,
    LocalPoolTransport,
    ParallelCampaignEngine,
    TaskOutcome,
    claims_from_spec,
    claims_to_spec,
    make_transport,
    resolve_workers,
    run_task,
)
from repro.core.remote import LoopbackTransport, SocketTransport, WorkerServer
from repro.core.sharing import SharingRegistry


def run_campaign(workers, cycles=2, inputs=6, stop=False):
    dice = DiceOrchestrator(faulty_live(), default_property_suite())
    return dice.run_campaign(
        OrchestratorConfig(
            inputs_per_node=inputs,
            cycles=cycles,
            seed=9,
            workers=workers,
            stop_after_first_fault=stop,
        )
    )


class TestDeterminism:
    def test_worker_count_does_not_change_results(self):
        """Same seed => identical fault reports at workers=1 vs 4."""
        serial = run_campaign(workers=1)
        parallel = run_campaign(workers=4)
        assert serial.reports, "campaign should detect the seeded faults"
        assert report_fingerprint(serial) == report_fingerprint(parallel)
        assert node_fingerprint(serial) == node_fingerprint(parallel)
        assert serial.fault_classes_found() == parallel.fault_classes_found()
        assert serial.inputs_explored == parallel.inputs_explored
        assert serial.snapshots_taken == parallel.snapshots_taken
        assert serial.solver_queries == parallel.solver_queries

    def test_worker_counts_do_not_change_results(self):
        """Identical fault reports and counters across workers ∈ {1, 2,
        4}, over three cycles."""
        reference = run_campaign(workers=1, cycles=3)
        assert reference.reports, "campaign should detect the seeded faults"
        for workers in (2, 4):
            other = run_campaign(workers=workers, cycles=3)
            assert campaign_fingerprint(other) == campaign_fingerprint(
                reference
            ), f"divergence at workers={workers}"

    def test_abort_mid_cycle_matches_serial(self):
        """Stopping at the first fault mid-cycle truncates a pooled
        campaign exactly where the serial one stops."""
        serial = run_campaign(workers=1, inputs=4, stop=True)
        parallel = run_campaign(workers=3, inputs=4, stop=True)
        assert serial.reports
        assert campaign_fingerprint(serial) == campaign_fingerprint(parallel)

    def test_workers_recorded_on_result(self):
        result = run_campaign(workers=2, cycles=1, inputs=2)
        assert result.workers == 2

    def test_stop_after_first_fault_counters_match_serial(self):
        """Early stop truncates the parallel merge to exactly what the
        serial loop would have captured and explored."""

        def stopping_campaign(workers):
            dice = DiceOrchestrator(faulty_live(),
                                    default_property_suite())
            return dice.run_campaign(
                OrchestratorConfig(
                    inputs_per_node=4,
                    seed=9,
                    workers=workers,
                    stop_after_first_fault=True,
                )
            )

        serial = stopping_campaign(1)
        parallel = stopping_campaign(4)
        assert serial.reports
        assert report_fingerprint(serial) == report_fingerprint(parallel)
        assert serial.snapshots_taken == parallel.snapshots_taken
        assert serial.inputs_explored == parallel.inputs_explored
        assert len(serial.node_reports) == len(parallel.node_reports)


class TestExplorationTask:
    def make_task(self, **config):
        live = quickstart_system(seed=7)
        live.converge()
        snapshot = live.coordinator.capture("r2")
        claims = SharingRegistry.from_configs(live.initial_configs)
        config = ExplorationConfig(
            **{"node": "r2", "seed": 13, "inputs": 3, "horizon": 1.0,
               **config}
        )
        return ExplorationTask(
            config=config,
            shard=whole_session(config.inputs),
            snapshot=snapshot,
            suite=default_property_suite(),
            claims=claims_to_spec(claims),
        )

    def test_pickle_round_trip(self):
        task = self.make_task()
        restored = pickle.loads(pickle.dumps(task))
        assert restored.config == task.config
        assert restored.claims == task.claims
        assert restored.snapshot.snapshot_id == task.snapshot.snapshot_id
        assert sorted(restored.snapshot.checkpoints) == sorted(
            task.snapshot.checkpoints
        )
        # The restored task must be executable, not just structurally
        # equal: run it and compare against the original.
        original = run_task(task)
        replayed = run_task(restored)
        assert replayed.report.executions == original.report.executions
        assert replayed.report.unique_paths == original.report.unique_paths

    @pytest.mark.parametrize(
        "new_transport",
        [InlineTransport, lambda: LoopbackTransport(slots=1)],
        ids=["inline", "loopback"],
    )
    def test_run_task_is_a_pure_function_of_the_task(self, new_transport):
        """What failover rests on: dispatching the same task again — a
        whole session (one round-0 shard with the full budget), a
        round-0 shard of two, a later-round shard with a shipped
        frontier — yields the same outcome and leaves the task
        untouched, whatever else the process ran in between (a clone's
        routers remember decoded messages and attribute sets, but only
        in their own network's table)."""
        session = self.make_task(inputs=6)
        round0 = dataclasses.replace(
            session,
            shard=FrontierShard(round=0, index=1, count=2, budget=2),
        )
        leftovers = Frontier.merge([
            run_task(dataclasses.replace(round0, shard=dataclasses.replace(
                round0.shard, index=index))).frontier
            for index in range(2)
        ])
        assert leftovers.entries
        round1 = dataclasses.replace(
            round0,
            shard=FrontierShard(round=1, index=0, count=1, budget=2,
                                frontier=leftovers),
        )

        def frontier_state(frontier):
            # SymBytes compares by identity: compare what it holds.
            return None if frontier is None else (
                [(e.key, e.bound, e.novel, e.lineage, e.input.concrete)
                 for e in frontier.entries],
                frontier.seen_paths, frontier.seen_flips,
                frontier.seen_constraints, frontier.seen_shapes,
            )

        def deterministic(outcome):
            fields = dataclasses.asdict(outcome.report)
            del fields["wall_time_s"]
            return fields, frontier_state(outcome.frontier)

        transport = new_transport()
        outcomes = []
        for task in (session, round0, round1):
            task = pickle.loads(pickle.dumps(task))
            shipped = task.shard.frontier
            frontier_before = copy.deepcopy(frontier_state(shipped))
            first = transport.submit(0, task).result()
            second = transport.submit(0, task).result()
            assert deterministic(first) == deterministic(second)
            outcomes.append((task, deterministic(first)))
            assert frontier_state(shipped) == frontier_before
            assert first.report.executions == task.shard.budget
            assert first.frontier.entries
        for task, expected in outcomes:  # again, after the other two ran
            assert deterministic(transport.submit(0, task).result()) == expected

    def test_task_carries_only_what_the_session_reads(self):
        """Snapshot, config (seed included), suite and claims, plus the
        shard slice: nothing an earlier session learned, so every shard
        starts alike."""
        assert [f.name for f in dataclasses.fields(ExplorationTask)] == [
            "config", "snapshot", "suite", "claims", "shard",
            "process_factory", "snapshot_blob",
        ]

    def test_outcome_carries_only_what_the_merge_reads(self):
        assert [f.name for f in dataclasses.fields(TaskOutcome)] == [
            "report", "frontier",
        ]

    def test_snapshot_blob_stands_in_for_the_snapshot(self):
        task = self.make_task()
        shipped = dataclasses.replace(
            task, snapshot=None, snapshot_blob=pickle.dumps(task.snapshot)
        )
        restored = shipped.resolve_snapshot()
        assert restored.snapshot_id == task.snapshot.snapshot_id
        assert sorted(restored.checkpoints) == sorted(task.snapshot.checkpoints)
        assert run_task(shipped).report.executions == 3

    def test_task_without_snapshot_or_payload_is_refused(self):
        task = dataclasses.replace(self.make_task(), snapshot=None)
        with pytest.raises(ValueError, match="neither"):
            task.resolve_snapshot()

    def test_exploration_config_carries_batch_parameters(self):
        """The config a task carries is the one its session runs under."""
        outcome = run_task(self.make_task())
        assert outcome.report.node == "r2"
        assert outcome.report.executions == 3
        assert outcome.report.strategy == "concolic"

    def test_engine_returns_outcomes_in_task_order(self):
        tasks = [self.make_task(node=node) for node in ("r1", "r2", "r3")]
        with ParallelCampaignEngine(make_transport(2)) as engine:
            handles = [engine.submit(task) for task in tasks]
            outcomes = [handle.result() for handle in handles]
        assert [o.report.node for o in outcomes] == ["r1", "r2", "r3"]


class TestClaimSpec:
    def test_round_trip(self):
        registry = SharingRegistry()
        registry.claim_origin(65001, Prefix("10.1.0.0/16"))
        registry.claim_origin(65002, Prefix("10.1.0.0/16"))
        registry.claim_origin(65003, Prefix("10.3.0.0/16"))
        spec = claims_to_spec(registry)
        rebuilt = claims_from_spec(spec)
        assert rebuilt.claimed_origins(Prefix("10.1.0.0/16")) == {
            65001, 65002,
        }
        assert rebuilt.claimed_origins(Prefix("10.3.0.0/16")) == {65003}
        assert claims_to_spec(rebuilt) == spec


class TestResolveWorkers:
    def test_none_means_cpu_count(self):
        assert resolve_workers(None) >= 1

    @pytest.mark.parametrize("requested,expected", [(0, 1), (1, 1), (3, 3)])
    def test_floor_is_one(self, requested, expected):
        assert resolve_workers(requested) == expected

    def test_prefers_affinity_mask_over_cpu_count(self, monkeypatch):
        """Inside a cgroup-limited container os.cpu_count() reports the
        host's CPUs; the affinity mask is what the pool may use."""
        import repro.core.parallel as parallel_module

        if not hasattr(parallel_module.os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(
            parallel_module.os, "sched_getaffinity", lambda pid: {0, 1}
        )
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 64)
        assert resolve_workers(None) == 2

    def test_explicit_count_bypasses_affinity(self, monkeypatch):
        import repro.core.parallel as parallel_module

        monkeypatch.setattr(
            parallel_module.os, "cpu_count",
            lambda: (_ for _ in ()).throw(AssertionError("not consulted")),
        )
        assert resolve_workers(5) == 5


class TestMakeTransport:
    """Every branch of the one place a transport name becomes a
    transport."""

    @pytest.mark.parametrize("workers", [0, 1])
    def test_local_at_one_slot_is_inline(self, workers):
        assert isinstance(make_transport(workers), InlineTransport)

    def test_local_above_one_slot_is_process_pools(self):
        transport = make_transport(3, "local")
        try:
            assert isinstance(transport, LocalPoolTransport)
            assert transport.slots == 3
        finally:
            transport.close()

    def test_local_reads_the_cpu_count_for_none(self, monkeypatch):
        import repro.core.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 1)
        assert isinstance(make_transport(None), InlineTransport)

    @pytest.mark.parametrize("workers,slots", [(None, 2), (0, 1), (1, 1),
                                               (2, 2)])
    def test_loopback_has_the_worker_count_in_slots(self, monkeypatch,
                                                    workers, slots):
        import repro.core.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 2)
        transport = make_transport(workers, "loopback")
        assert isinstance(transport, LoopbackTransport)
        assert transport.slots == slots

    def test_socket_has_one_slot_per_address(self):
        with WorkerServer().start() as alpha, WorkerServer().start() as beta:
            addresses = [f"{host}:{port}" for host, port in
                         (alpha.address, beta.address)]
            transport = make_transport(5, "socket", addresses)
            try:
                assert isinstance(transport, SocketTransport)
                assert transport.slots == 2
            finally:
                transport.close()

    @pytest.mark.parametrize("remote_workers", [None, []])
    def test_socket_without_addresses_names_remote_workers(
        self, remote_workers
    ):
        with pytest.raises(ValueError, match="remote_workers"):
            make_transport(2, "socket", remote_workers)

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(ValueError,
                           match="'carrier-pigeon'.*local, loopback, socket"):
            make_transport(2, "carrier-pigeon")


class TestRandomStrategyPinned:
    """The random strategy's per-node counters, pinned to recorded
    values at every transport: any change to its mutation draws from
    the ``derive_seed(seed, "random")`` stream shows here.  No
    benchmark workload runs this strategy, so this is its gate."""

    @pytest.mark.parametrize("mode", [
        {}, {"workers": 2, "transport": "loopback"},
    ], ids=["serial", "loopback-2"])
    def test_counters_equal_the_recorded_ones(self, mode):
        live = quickstart_system(seed=0)
        live.converge()
        result = DiceOrchestrator(live, default_property_suite()).run_campaign(
            OrchestratorConfig(
                strategy="random", explorer_nodes=["r2"], inputs_per_node=8,
                seed=5, cycles=2, **mode,
            )
        )
        assert node_fingerprint(result) == [
            ("r2", "random", 8, 7, 65, 12, 9, 0, 0, 0, 0),
            ("r2", "random", 8, 8, 55, 11, 9, 0, 0, 0, 0),
        ]
        assert result.reports == []


class TestInlineSubmit:
    """workers<=1 submit must capture task errors but never
    control-flow exceptions (Ctrl-C has to abort the campaign)."""

    def test_task_errors_land_in_the_future(self, monkeypatch):
        import repro.core.parallel as parallel_module

        def failing(task):
            raise ValueError("exploration blew up")

        monkeypatch.setattr(parallel_module, "run_task", failing)
        future = InlineTransport().submit(0, None)
        with pytest.raises(ValueError, match="blew up"):
            future.result()

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_control_flow_exceptions_reraise(self, monkeypatch, interrupt):
        import repro.core.parallel as parallel_module

        def interrupted(task):
            raise interrupt

        monkeypatch.setattr(parallel_module, "run_task", interrupted)
        engine = ParallelCampaignEngine(InlineTransport())
        with pytest.raises(interrupt):
            engine.submit(
                ExplorationTask(
                    config=ExplorationConfig(node="r1"),
                    shard=whole_session(30),
                    snapshot=None, suite=default_property_suite(),
                    claims=(),
                )
            )
