"""Tests for pipelined snapshot capture.

Two layers: unit tests of :class:`SnapshotPipeline`'s ordering, drain,
and error semantics against a fake capture function, and end-to-end
determinism tests asserting that pipelined campaigns produce results
bit-identical to serial ones — including under mid-cycle abort.
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
from repro.core.orchestrator import DiceOrchestrator, OrchestratorConfig
from repro.core.pipeline import SnapshotPipeline, plan_captures
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
        with SnapshotPipeline(capture, plan, depth=2) as pipeline:
            consumed = [pipeline.next_capture() for _ in plan]
        assert captured_order == [(r.cycle, r.node) for r in plan]
        assert [c.index for c in consumed] == [r.index for r in plan]
        assert [c.detected_at for c in consumed] == [
            float(r.index) for r in plan
        ]
        assert pipeline.captures_completed == len(plan)

    def test_single_producer_thread_owns_captures(self):
        threads = set()

        def capture(request):
            threads.add(threading.current_thread().name)
            return object(), 0.0

        with SnapshotPipeline(capture, requests(2), depth=1) as pipeline:
            for _ in range(4):
                pipeline.next_capture()
        assert threads == {"snapshot-pipeline"}

    def test_same_thread_scheduler_captures_on_demand(self):
        """background=False: each capture runs on the consumer, inside
        next_capture — never ahead of need."""
        calls = []

        def capture(request):
            calls.append((request.index, threading.current_thread()))
            return object(), float(request.index)

        plan = requests(2)
        with SnapshotPipeline(capture, plan, background=False) as pipeline:
            assert calls == []
            consumed = [pipeline.next_capture() for _ in plan[:3]]
            assert len(calls) == 3
        assert calls == [
            (r.index, threading.current_thread()) for r in plan[:3]
        ]
        assert [c.index for c in consumed] == [0, 1, 2]
        assert pipeline.hidden_fraction() == 0.0

    def test_consuming_past_the_plan_raises(self):
        with SnapshotPipeline(lambda r: (object(), 0.0), requests(1),
                              depth=1) as pipeline:
            for _ in range(2):
                pipeline.next_capture()
            with pytest.raises(IndexError):
                pipeline.next_capture()

    def test_bounded_prefetch(self):
        """The producer never runs more than depth+1 captures ahead."""
        started = []
        release = threading.Event()

        def capture(request):
            started.append(request.index)
            release.wait(2.0)
            return object(), 0.0

        pipeline = SnapshotPipeline(capture, requests(4), depth=2)
        try:
            time.sleep(0.3)
            # Nothing consumed: at most depth enqueued + 1 in flight.
            assert len(started) <= 3
        finally:
            release.set()
            pipeline.close()

    def test_close_drains_and_stops_producing(self):
        def capture(request):
            time.sleep(0.01)
            return object(), 0.0

        pipeline = SnapshotPipeline(capture, requests(50), depth=1)
        pipeline.next_capture()
        pipeline.close()
        produced_at_close = pipeline.captures_completed
        assert produced_at_close < 100  # plan is 100 requests long
        time.sleep(0.1)
        # The producer thread is gone; nothing new appears.
        assert pipeline.captures_completed == produced_at_close

    def test_capture_errors_reraise_in_consumer(self):
        def capture(request):
            if request.index == 1:
                raise TimeoutError("cut never closed")
            return object(), 0.0

        with SnapshotPipeline(capture, requests(2), depth=2) as pipeline:
            pipeline.next_capture()
            with pytest.raises(TimeoutError, match="cut never closed"):
                pipeline.next_capture()

    def test_hidden_fraction_bounds(self):
        with SnapshotPipeline(lambda r: (object(), 0.0), requests(1),
                              depth=1) as pipeline:
            pipeline.next_capture()
        assert 0.0 <= pipeline.hidden_fraction() <= 1.0


# -- end-to-end determinism --


def run_campaign(workers, pipeline, stop=False, cycles=2, inputs=4):
    dice = DiceOrchestrator(faulty_live(), default_property_suite())
    return dice.run_campaign(
        OrchestratorConfig(
            inputs_per_node=inputs,
            cycles=cycles,
            seed=9,
            workers=workers,
            pipeline=pipeline,
            stop_after_first_fault=stop,
        )
    )


class TestPipelinedDeterminism:
    def test_pipelined_matches_serial(self):
        """Fault reports and counters are identical."""
        serial = run_campaign(workers=1, pipeline=False)
        piped = run_campaign(workers=3, pipeline=True)
        assert serial.reports, "campaign should detect the seeded faults"
        assert report_fingerprint(serial) == report_fingerprint(piped)
        assert node_fingerprint(serial) == node_fingerprint(piped)
        assert serial.fault_classes_found() == piped.fault_classes_found()
        assert serial.inputs_explored == piped.inputs_explored
        assert serial.snapshots_taken == piped.snapshots_taken
        assert serial.solver_queries == piped.solver_queries
        assert piped.pipelined and not serial.pipelined

    def test_pipelined_matches_batch_parallel(self):
        """The pipeline knob alone changes nothing at equal workers."""
        batch = run_campaign(workers=3, pipeline=False, cycles=1)
        piped = run_campaign(workers=3, pipeline=True, cycles=1)
        assert report_fingerprint(batch) == report_fingerprint(piped)
        assert node_fingerprint(batch) == node_fingerprint(piped)
        assert batch.snapshots_taken == piped.snapshots_taken

    def test_stop_after_first_fault_abort_matches_serial(self):
        """Mid-cycle abort drains the pipeline; counters match serial."""
        serial = run_campaign(workers=1, pipeline=False, stop=True)
        assert serial.reports
        for workers, pipeline in ((3, True), (2, False)):
            pooled = run_campaign(workers=workers, pipeline=pipeline,
                                  stop=True)
            assert report_fingerprint(serial) == report_fingerprint(pooled)
            assert serial.snapshots_taken == pooled.snapshots_taken
            assert serial.inputs_explored == pooled.inputs_explored
            assert len(serial.node_reports) == len(pooled.node_reports)

    def test_capture_stats_populated(self):
        for workers in (1, 2):
            for pipeline in (False, True):
                result = run_campaign(workers=workers, pipeline=pipeline,
                                      cycles=1)
                assert result.capture_wall_s > 0.0
                assert result.capture_blocked_s >= 0.0
                assert 0.0 <= result.capture_hidden_fraction() <= 1.0

    def test_pipelined_prepickles_payloads(self):
        """A pooled campaign pickles each snapshot once, on the capture
        side, so dispatch only hands bytes around."""
        result = run_campaign(workers=2, pipeline=True)
        assert result.capture_pickle_s > 0.0
        assert result.capture_pickle_s <= result.capture_wall_s

    def test_serial_campaign_gets_pipelined_capture(self):
        """workers=1 with the pipeline on overlaps the capture thread
        with inline exploration — bit-identical results, no transport
        (nothing ships, the serial contract)."""
        plain = run_campaign(workers=1, pipeline=False)
        overlapped = run_campaign(workers=1, pipeline=True)
        assert overlapped.pipelined and not plain.pipelined
        assert campaign_fingerprint(plain) == campaign_fingerprint(
            overlapped
        )
        assert overlapped.capture_pickle_s == 0.0
        assert overlapped.capture_wall_s > 0.0

    def test_serial_pipelined_abort_matches_serial(self):
        plain = run_campaign(workers=1, pipeline=False, stop=True)
        overlapped = run_campaign(workers=1, pipeline=True, stop=True)
        assert plain.reports
        assert report_fingerprint(plain) == report_fingerprint(overlapped)
        assert plain.snapshots_taken == overlapped.snapshots_taken
        assert plain.inputs_explored == overlapped.inputs_explored

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_inline_early_stop_does_no_extra_work(self, pipeline,
                                                  monkeypatch):
        """workers=1 merges each session the moment it ran, so an early
        stop runs no further session — and, without prefetch, takes no
        further capture and does not advance the live system past the
        faulting one (a later campaign on the same system sees it)."""
        explored, captured = [], []
        explore, capture = Explorer.explore, SnapshotCoordinator.capture

        def counting_explore(self, config):
            explored.append(config.node)
            return explore(self, config)

        def counting_capture(self, initiator, *args, **kwargs):
            captured.append(initiator)
            return capture(self, initiator, *args, **kwargs)

        monkeypatch.setattr(Explorer, "explore", counting_explore)
        monkeypatch.setattr(SnapshotCoordinator, "capture", counting_capture)
        live = faulty_live()
        result = DiceOrchestrator(live, default_property_suite()).run_campaign(
            OrchestratorConfig(
                inputs_per_node=4, cycles=2, seed=9, workers=1,
                pipeline=pipeline, stop_after_first_fault=True,
                # r3's session is the first to report a fault.
                explorer_nodes=["r1", "r3", "r2"],
            )
        )
        assert result.reports
        assert [n.node for n in result.node_reports] == ["r1", "r3"]
        assert len(explored) == len(result.node_reports)
        if not pipeline:
            assert len(captured) == result.snapshots_taken
            assert live.network.sim.now == result.reports[-1].detected_at

    def test_campaign_nodes_visited_once_per_cycle(self):
        piped = run_campaign(workers=2, pipeline=True, cycles=2)
        assert [n.node for n in piped.node_reports] == [
            "r1", "r2", "r3", "r1", "r2", "r3",
        ]
        assert piped.cycles_completed == 2
