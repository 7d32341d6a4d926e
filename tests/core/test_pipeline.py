"""Tests for the campaign's capture source.

Two layers: unit tests of :class:`SnapshotPipeline`'s ordering,
advance, on-demand and error semantics on a small live system, and
campaign-level tests asserting that captures run on the campaign's own
thread, one per session it merges, that an early stop takes no capture
past the faulting cycle, that pooled results match serial ones, and
that nothing but the capture source touches the live system.
"""

import sys
import threading
import time

import pytest

from campaign_helpers import (
    campaign_fingerprint,
    faulty_live,
    node_fingerprint,
    report_fingerprint,
)
from repro import quickstart_system
from repro.bgp.config import AddNetwork
from repro.bgp.ip import Prefix
from repro.checks import default_property_suite
from repro.core.explorer import Explorer
from repro.core.live import LiveSystem
from repro.core.orchestrator import (
    CampaignResult,
    DiceOrchestrator,
    OrchestratorConfig,
)
from repro.core.payload import SnapshotEncoder, decode_snapshot
from repro.core.pipeline import SnapshotPipeline
from repro.core.remote import LoopbackTransport
from repro.core.snapshot import SnapshotCoordinator


@pytest.fixture
def converged():
    live = quickstart_system(seed=3)
    live.converge()
    return live


class TestSnapshotPipeline:
    def test_captures_in_request_order(self, converged):
        """Each capture is taken at the node it names, in call order,
        and carries its cycle and the live clock after its cut."""
        pipeline = SnapshotPipeline(converged, 0.5)
        schedule = [(0, "r3"), (0, "r1"), (1, "r2")]
        consumed = [pipeline.next_capture(*named) for named in schedule]
        assert [(c.cycle, c.node) for c in consumed] == schedule
        assert [c.snapshot.initiator for c in consumed] == ["r3", "r1", "r2"]
        assert len({c.snapshot.snapshot_id for c in consumed}) == 3
        assert consumed[-1].detected_at == converged.network.sim.now
        assert [c.snapshot.completed_at for c in consumed] == [
            c.detected_at for c in consumed
        ]

    def test_advances_between_captures_never_before_the_first(
        self, converged, counted
    ):
        pipeline = SnapshotPipeline(converged, 0.5)
        assert pipeline.advance() == 0.0  # nothing captured yet
        first = pipeline.next_capture(0, "r1")
        assert counted["runs"] == []
        second = pipeline.next_capture(0, "r2")
        assert counted["runs"] == [first.detected_at + 0.5]
        assert second.detected_at > first.detected_at + 0.5
        assert pipeline.advance() > 0.0
        assert counted["runs"][-1] == second.detected_at + 0.5
        assert converged.network.sim.now == second.detected_at + 0.5

    def test_a_zero_advance_never_runs_the_live_system(
        self, converged, counted
    ):
        pipeline = SnapshotPipeline(converged, 0.0)
        pipeline.next_capture(0, "r1")
        pipeline.next_capture(0, "r2")
        assert pipeline.advance() == 0.0
        assert counted["runs"] == []

    def test_same_thread_scheduler_captures_on_demand(
        self, converged, counted
    ):
        """Each capture runs on the caller's thread, inside
        next_capture, never ahead of need, and the capture source
        starts no thread of its own."""
        before = set(threading.enumerate())
        pipeline = SnapshotPipeline(converged, 0.5,
                                    encoder=SnapshotEncoder())
        assert counted["captured"] == []
        for consumed in range(1, 5):
            pipeline.next_capture(consumed, "r2")
            assert counted["captured"] == ["r2"] * consumed
        for thread, alive in counted["threads"]:
            assert thread is threading.current_thread()
            assert alive <= before

    def test_prepared_payload_replaces_the_snapshot(self, converged):
        """With an encoder each capture is encoded once, on the caller,
        and the payload stands in for the snapshot; without one the
        snapshot object is handed over as captured."""
        encoder = SnapshotEncoder()
        encoded = SnapshotPipeline(converged, 0.5, encoder=encoder)
        consumed = [encoded.next_capture(0, node) for node in ("r1", "r2")]
        assert all(c.snapshot is None for c in consumed)
        assert [decode_snapshot(c.payload).initiator for c in consumed] == [
            "r1", "r2",
        ]
        assert encoder.blocks_pickled >= 1

        plain = SnapshotPipeline(converged, 0.5).next_capture(0, "r3")
        assert plain.payload is None
        assert plain.snapshot.initiator == "r3"

    def test_capture_wall_covers_pickling(self, converged, monkeypatch):
        """``capture_wall_s`` covers the advance before the capture, the
        capture and the encoding."""
        run = LiveSystem.run

        def slow_run(self, until=None, max_events=None):
            time.sleep(0.02)
            return run(self, until=until, max_events=max_events)

        def slow_encoder(snapshot):
            time.sleep(0.02)
            return b"blob"

        monkeypatch.setattr(LiveSystem, "run", slow_run)
        pipeline = SnapshotPipeline(converged, 0.5, encoder=slow_encoder)
        assert pipeline.next_capture(0, "r1").capture_wall_s >= 0.02
        assert pipeline.next_capture(0, "r2").capture_wall_s >= 0.04

    def test_capture_errors_reraise_in_consumer(self, converged, monkeypatch):
        captures = []
        capture = SnapshotCoordinator.capture

        def failing(self, initiator, *args, **kwargs):
            captures.append(initiator)
            if len(captures) == 2:
                raise TimeoutError("cut never closed")
            return capture(self, initiator, *args, **kwargs)

        monkeypatch.setattr(SnapshotCoordinator, "capture", failing)
        pipeline = SnapshotPipeline(converged, 0.5)
        pipeline.next_capture(0, "r1")
        with pytest.raises(TimeoutError, match="cut never closed"):
            pipeline.next_capture(0, "r2")

    def test_hidden_fraction_bounds(self):
        """The capture time a campaign hid behind exploration stays
        within [0, 1] whatever its timings."""
        def hidden(wall, blocked):
            return CampaignResult(
                capture_wall_s=wall, capture_blocked_s=blocked,
            ).capture_hidden_fraction()

        assert hidden(0.0, 0.0) == 0.0  # no capture taken
        assert hidden(2.0, 2.0) == 0.0  # every capture blocked (inline)
        assert hidden(2.0, 0.5) == 0.75
        assert hidden(2.0, 0.0) == 1.0
        assert hidden(2.0, 2.5) == 0.0  # timer jitter never goes negative


# -- campaigns --


def run_campaign(workers, stop=False, cycles=2, inputs=4, **kwargs):
    dice = DiceOrchestrator(faulty_live(), default_property_suite())
    return dice.run_campaign(
        OrchestratorConfig(
            inputs_per_node=inputs,
            cycles=cycles,
            seed=9,
            workers=workers,
            stop_after_first_fault=stop,
            **kwargs,
        )
    )


@pytest.fixture
def counted(monkeypatch):
    """Record every session explored in this process; for every
    capture, its initiator and the threads alive while it ran; the
    ``until`` of every ``LiveSystem.run``; and the module that called
    each capture or live run."""
    calls = {"explored": [], "captured": [], "threads": [], "runs": [],
             "callers": []}
    explore_shard, capture = Explorer.explore_shard, SnapshotCoordinator.capture
    run = LiveSystem.run

    def counting_explore(self, config, shard):
        calls["explored"].append(config.node)
        return explore_shard(self, config, shard)

    def counting_capture(self, initiator, *args, **kwargs):
        calls["captured"].append(initiator)
        calls["threads"].append(
            (threading.current_thread(), set(threading.enumerate()))
        )
        calls["callers"].append(sys._getframe(1).f_globals["__name__"])
        return capture(self, initiator, *args, **kwargs)

    def counting_run(self, until=None, max_events=None):
        calls["runs"].append(until)
        calls["callers"].append(sys._getframe(1).f_globals["__name__"])
        return run(self, until=until, max_events=max_events)

    monkeypatch.setattr(Explorer, "explore_shard", counting_explore)
    monkeypatch.setattr(SnapshotCoordinator, "capture", counting_capture)
    monkeypatch.setattr(LiveSystem, "run", counting_run)
    return calls


class TestPipelinedDeterminism:
    def test_pooled_matches_serial(self):
        """A pooled campaign captures each node while the sessions it
        already submitted explore; fault reports and counters are
        identical to the serial run's."""
        serial = run_campaign(workers=1)
        piped = run_campaign(workers=3)
        assert serial.reports, "campaign should detect the seeded faults"
        assert report_fingerprint(serial) == report_fingerprint(piped)
        assert node_fingerprint(serial) == node_fingerprint(piped)
        assert serial.fault_classes_found() == piped.fault_classes_found()
        assert serial.inputs_explored == piped.inputs_explored
        assert serial.snapshots_taken == piped.snapshots_taken
        assert serial.solver_queries == piped.solver_queries

    def test_pipeline_knob_is_inert_when_pooled(self, counted):
        """The benchmark-compatibility ``pipeline`` knob is inert on a
        pooled engine too: on or off, equal workers give the same
        results from the same captures."""
        batch = run_campaign(workers=3, pipeline=False, cycles=1)
        piped = run_campaign(workers=3, pipeline=True, cycles=1)
        assert report_fingerprint(batch) == report_fingerprint(piped)
        assert node_fingerprint(batch) == node_fingerprint(piped)
        assert batch.snapshots_taken == piped.snapshots_taken
        assert counted["captured"] == ["r1", "r2", "r3"] * 2

    def test_stop_after_first_fault_abort_matches_serial(self):
        """A mid-cycle abort truncates pooled campaigns where the
        serial one stops."""
        serial = run_campaign(workers=1, stop=True)
        assert serial.reports
        for workers in (3, 2):
            pooled = run_campaign(workers=workers, stop=True)
            assert report_fingerprint(serial) == report_fingerprint(pooled)
            assert serial.snapshots_taken == pooled.snapshots_taken
            assert serial.inputs_explored == pooled.inputs_explored
            assert len(serial.node_reports) == len(pooled.node_reports)

    def test_capture_stats_populated(self):
        for workers in (1, 2):
            result = run_campaign(workers=workers, cycles=1)
            assert result.capture_wall_s > 0.0
            assert result.capture_blocked_s >= 0.0
            assert 0.0 <= result.capture_hidden_fraction() <= 1.0
            if workers == 1:
                # Inline, nothing explores while a capture runs.
                assert result.capture_blocked_s == result.capture_wall_s

    def test_pooled_campaign_prepickles_payloads(self):
        """A pooled campaign pickles each snapshot once, when it is
        captured: every task ships bytes, and every shard of every
        round of a session ships the same bytes."""
        transports = []

        class Recording(LoopbackTransport):
            def __init__(self):
                super().__init__(slots=2)
                self.tasks = []
                transports.append(self)

            def submit(self, slot, task):
                self.tasks.append(task)
                return super().submit(slot, task)

        result = run_campaign(workers=2, inputs=6, frontier_shards=3,
                              transport_factory=Recording)
        (transport,) = transports
        assert all(task.snapshot is None for task in transport.tasks)
        blobs = {}
        for task in transport.tasks:
            blobs.setdefault(task.config.seed, set()).add(
                id(task.snapshot_blob)
            )
        assert len(blobs) == result.snapshots_taken
        assert all(len(ids) == 1 for ids in blobs.values())
        assert len(transport.tasks) > len(blobs)  # shards, several rounds

    def test_inline_campaign_prepickles_nothing(self, monkeypatch):
        """Nothing leaves the process on the inline transport, so its
        captures are handed over as snapshot objects, never pickled."""
        consumed = []
        next_capture = SnapshotPipeline.next_capture

        def recording(self, cycle, node):
            captured = next_capture(self, cycle, node)
            consumed.append(captured)
            return captured

        monkeypatch.setattr(SnapshotPipeline, "next_capture", recording)
        result = run_campaign(workers=1)
        assert len(consumed) == result.snapshots_taken
        assert all(c.payload is None and c.snapshot is not None
                   for c in consumed)

    def test_pipeline_knob_is_inert(self, counted):
        """``OrchestratorConfig.pipeline`` survives only for the frozen
        benchmark's sake: on or off, a campaign gives the same result
        and starts no thread."""
        before = set(threading.enumerate())
        results = [
            run_campaign(workers=1, pipeline=pipeline)
            for pipeline in (True, False)
        ]
        assert campaign_fingerprint(results[0]) == campaign_fingerprint(
            results[1]
        )
        assert counted["threads"]
        for thread, alive in counted["threads"]:
            assert thread is threading.current_thread()
            assert alive <= before

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_inline_early_stop_does_no_extra_work(self, pipeline, counted):
        """The default campaign merges each inline session the moment it
        ran, so an early stop runs no further session, takes exactly
        one capture per merged session, and does not advance the live
        system past the faulting one (a later campaign on the same
        system sees it).  The benchmark-compatibility ``pipeline``
        knob — on by default, and once a capture thread that ran ahead
        — changes none of it."""
        live = faulty_live()
        result = DiceOrchestrator(live, default_property_suite()).run_campaign(
            OrchestratorConfig(
                inputs_per_node=4, cycles=2, seed=9, pipeline=pipeline,
                stop_after_first_fault=True,
                # r3's session is the first to report a fault.
                explorer_nodes=["r1", "r3", "r2"],
            )
        )
        assert result.reports
        assert [n.node for n in result.node_reports] == ["r1", "r3"]
        assert len(counted["explored"]) == len(result.node_reports)
        assert len(counted["captured"]) == result.snapshots_taken
        assert live.network.sim.now == result.reports[-1].detected_at
        for thread, alive in counted["threads"]:
            assert thread is threading.current_thread()
            assert "snapshot-pipeline" not in {t.name for t in alive}

    @pytest.mark.parametrize("transport", ["local", "loopback"])
    def test_pooled_early_stop_captures_nothing_past_the_fault(
        self, transport, counted
    ):
        """A pooled campaign submits a whole cycle before merging it, so
        an early stop in cycle 0 has captured that cycle's nodes and
        nothing of the cycles after it, over any transport."""
        nodes = ["r1", "r3", "r2"]
        result = DiceOrchestrator(
            faulty_live(), default_property_suite()
        ).run_campaign(
            OrchestratorConfig(
                inputs_per_node=4, cycles=3, seed=9, workers=2,
                transport=transport,
                stop_after_first_fault=True, explorer_nodes=nodes,
            )
        )
        assert result.reports
        assert result.cycles_completed == 0
        assert counted["captured"] == nodes

    def test_campaign_nodes_visited_once_per_cycle(self):
        result = run_campaign(workers=2, cycles=2)
        assert [n.node for n in result.node_reports] == [
            "r1", "r2", "r3", "r1", "r2", "r3",
        ]
        assert result.cycles_completed == 2


@pytest.mark.parametrize("mode", [
    {},
    {"workers": 2, "transport": "loopback"},
    {"frontier_shards": 3},
    {"stop_after_first_fault": True},
])
def test_only_the_capture_source_touches_the_live_system(mode, counted):
    """Every capture and every live advance of a campaign, and the
    capture of a vetted change, goes through the capture source."""
    dice = DiceOrchestrator(faulty_live(), default_property_suite())
    counted["callers"].clear()  # building the system ran it
    result = dice.run_campaign(
        OrchestratorConfig(inputs_per_node=4, cycles=2, seed=9, **mode)
    )
    assert result.snapshots_taken
    dice.vet_change("r1", AddNetwork(Prefix("10.1.0.0/16")))
    assert "repro.core.pipeline" in counted["callers"]
    assert set(counted["callers"]) == {"repro.core.pipeline"}
