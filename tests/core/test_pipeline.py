"""Tests for the campaign's capture source.

Two layers: unit tests of :class:`SnapshotPipeline`'s ordering,
on-demand and error semantics against a fake capture function, and
campaign-level tests asserting that captures run on the campaign's own
thread, one per session it merges, that an early stop takes no capture
past the faulting cycle, and that pooled results match serial ones.
"""

import threading
import time

import pytest

from campaign_helpers import (
    campaign_fingerprint,
    faulty_live,
    node_fingerprint,
    report_fingerprint,
)
from repro.checks import default_property_suite
from repro.core.explorer import Explorer
from repro.core.orchestrator import (
    CampaignResult,
    DiceOrchestrator,
    OrchestratorConfig,
)
from repro.core.pipeline import SnapshotPipeline, plan_captures
from repro.core.remote import LoopbackTransport
from repro.core.snapshot import SnapshotCoordinator


def requests(count, nodes=("r1", "r2")):
    return plan_captures(list(nodes), count)


class TestPlanCaptures:
    def test_serial_loop_order(self):
        plan = plan_captures(["a", "b"], 2)
        assert [(r.cycle, r.node) for r in plan] == [
            (0, "a"), (0, "b"), (1, "a"), (1, "b"),
        ]
        assert [r.index for r in plan] == [0, 1, 2, 3]

    def test_empty(self):
        assert plan_captures(["a"], 0) == []


class TestSnapshotPipeline:
    def test_captures_in_request_order(self):
        captured_order = []

        def capture(request):
            captured_order.append((request.cycle, request.node))
            return object(), float(request.index)

        plan = requests(3)
        pipeline = SnapshotPipeline(capture, plan)
        consumed = [pipeline.next_capture() for _ in plan]
        assert captured_order == [(r.cycle, r.node) for r in plan]
        assert [c.index for c in consumed] == [r.index for r in plan]
        assert [c.detected_at for c in consumed] == [
            float(r.index) for r in plan
        ]

    def test_same_thread_scheduler_captures_on_demand(self):
        """Each capture runs on the consumer, inside next_capture —
        never ahead of need."""
        calls = []

        def capture(request):
            calls.append((request.index, threading.current_thread()))
            return object(), float(request.index)

        plan = requests(2)
        pipeline = SnapshotPipeline(capture, plan)
        assert calls == []
        consumed = [pipeline.next_capture() for _ in plan[:3]]
        assert calls == [
            (r.index, threading.current_thread()) for r in plan[:3]
        ]
        assert [c.index for c in consumed] == [0, 1, 2]

    def test_single_producer_thread_owns_captures(self):
        """One thread owns every capture — the consumer's: the capture
        source starts no thread of its own."""
        before = set(threading.enumerate())
        threads, alive = set(), []

        def capture(request):
            threads.add(threading.current_thread())
            alive.append(set(threading.enumerate()))
            return object(), 0.0

        pipeline = SnapshotPipeline(capture, requests(2))
        for _ in range(4):
            pipeline.next_capture()
        assert threads == {threading.current_thread()}
        assert all(running <= before for running in alive)

    def test_bounded_prefetch(self):
        """Nothing is captured ahead of the consumer: after every
        next_capture exactly the captures asked for have run."""
        started = []

        def capture(request):
            started.append(request.index)
            return object(), 0.0

        pipeline = SnapshotPipeline(capture, requests(4))
        assert started == []
        for consumed in range(1, 9):
            pipeline.next_capture()
            assert started == list(range(consumed))

    def test_prepared_payload_replaces_the_snapshot(self):
        """With a prepare_fn each capture is pickled once, on the
        consumer, and the payload stands in for the snapshot; without
        one the snapshot object is handed over as captured."""
        prepared = []

        def prepare(snapshot):
            prepared.append((snapshot, threading.current_thread()))
            return f"blob-{snapshot}".encode()

        def capture(request):
            return request.index, 0.0

        pipeline = SnapshotPipeline(capture, requests(1), prepare_fn=prepare)
        consumed = [pipeline.next_capture() for _ in range(2)]
        assert prepared == [(0, threading.current_thread()),
                            (1, threading.current_thread())]
        assert [c.payload for c in consumed] == [b"blob-0", b"blob-1"]
        assert all(c.snapshot is None for c in consumed)

        plain = SnapshotPipeline(capture, requests(1)).next_capture()
        assert (plain.snapshot, plain.payload) == (0, None)

    def test_capture_wall_covers_pickling(self):
        def prepare(snapshot):
            time.sleep(0.02)
            return b"blob"

        pipeline = SnapshotPipeline(lambda r: (object(), 0.0), requests(1),
                                    prepare_fn=prepare)
        assert pipeline.next_capture().capture_wall_s >= 0.02

    def test_consuming_past_the_plan_raises(self):
        pipeline = SnapshotPipeline(lambda r: (object(), 0.0), requests(1))
        for _ in range(2):
            pipeline.next_capture()
        with pytest.raises(IndexError):
            pipeline.next_capture()

    def test_capture_errors_reraise_in_consumer(self):
        def capture(request):
            if request.index == 1:
                raise TimeoutError("cut never closed")
            return object(), 0.0

        pipeline = SnapshotPipeline(capture, requests(2))
        pipeline.next_capture()
        with pytest.raises(TimeoutError, match="cut never closed"):
            pipeline.next_capture()

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
    """Record every session explored in this process and, for every
    capture, its initiator and the threads alive while it ran."""
    calls = {"explored": [], "captured": [], "threads": []}
    explore_shard, capture = Explorer.explore_shard, SnapshotCoordinator.capture

    def counting_explore(self, config, shard):
        calls["explored"].append(config.node)
        return explore_shard(self, config, shard)

    def counting_capture(self, initiator, *args, **kwargs):
        calls["captured"].append(initiator)
        calls["threads"].append(
            (threading.current_thread(), set(threading.enumerate()))
        )
        return capture(self, initiator, *args, **kwargs)

    monkeypatch.setattr(Explorer, "explore_shard", counting_explore)
    monkeypatch.setattr(SnapshotCoordinator, "capture", counting_capture)
    return calls


class TestPipelinedDeterminism:
    def test_pipelined_matches_serial(self):
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

    def test_pipelined_matches_batch_parallel(self, counted):
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

    def test_pipelined_prepickles_payloads(self):
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

        def recording(self):
            captured = next_capture(self)
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
