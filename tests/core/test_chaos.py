"""Worker failover under deterministic fault injection.

The acceptance contract: a campaign that loses a worker slot at *any*
protocol point — before dispatch or mid-task, in the first cycle or a
later one — completes with fault reports and per-node counters
bit-identical to a serial run, and
a campaign losing more slots than ``max_worker_failures`` fails with a
named error listing every dead worker (never a hang or a bare
cancellation).

Two layers: engine-level failover mechanics against a stub transport,
and full campaigns over loopback and (marked ``slow_socket``) real
socket daemons wrapped in the :class:`chaos.ChaosTransport` harness.
What failover itself rests on — ``run_task`` being a pure function of
the task — is tested in ``test_parallel.py``.
"""

import pytest

from campaign_helpers import campaign_fingerprint, faulty_live, whole_session
from chaos import MID_TASK, PRE_DISPATCH, ChaosTransport, Kill
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

from repro.checks import default_property_suite
from repro.core.explorer import ExplorationConfig
from repro.core.orchestrator import DiceOrchestrator, OrchestratorConfig
from repro.core.parallel import (
    ExplorationTask,
    ParallelCampaignEngine,
    WorkerFailoverError,
    is_transport_fatal,
)
from repro.core.remote import (
    LoopbackTransport,
    SocketTransport,
    WorkerDiedError,
    WorkerServer,
)
from repro.core.sharing import ClaimTable

# The quickstart faulty system explores nodes r1, r2, r3 over two
# slots, and a whole cycle is submitted before any of it resolves, so
# least-outstanding routing sends r1,r3 -> slot 0 and r2 -> slot 1 in
# each cycle; the Kill scripts below are written against that layout.
KILL_SCRIPTS = {
    # r2's first task never leaves the orchestrator.
    "pre-dispatch": Kill(PRE_DISPATCH, slot=1, occurrence=1),
    # r3's first task runs on the worker but the response is lost.
    "mid-task": Kill(MID_TASK, slot=0, occurrence=2),
    # r2's cycle-2 task runs but the response is lost.
    "mid-task-cycle-2": Kill(MID_TASK, slot=1, occurrence=2),
}


def run_campaign(transport_factory=None, stop=False, **kwargs):
    dice = DiceOrchestrator(faulty_live(), default_property_suite())
    return dice.run_campaign(
        OrchestratorConfig(
            inputs_per_node=4,
            cycles=2,
            seed=9,
            stop_after_first_fault=stop,
            transport_factory=transport_factory,
            **kwargs,
        )
    )


@pytest.fixture(scope="module")
def serial_reference():
    return run_campaign(workers=1)


# -- engine-level failover mechanics ------------------------------------------


class StubTransport:
    """Two resolved-future slots; scripted slots die on every submit."""

    def __init__(self, slots=2, dying=()):
        self.slots = slots
        self.dying = set(dying)
        self.discarded = set()
        self.submitted = []

    def submit(self, slot, task):
        self.submitted.append((slot, task.config.node))
        future = Future()
        if slot in self.dying:
            future.set_exception(
                WorkerDiedError(f"stub slot {slot} died",
                                address=f"stub-{slot}")
            )
        else:
            future.set_result((slot, task.config.node))
        return future

    def slot_label(self, slot):
        return f"stub slot {slot}"

    def discard_slot(self, slot):
        self.discarded.add(slot)

    def close(self):
        pass


def stub_task(node):
    return ExplorationTask(
        config=ExplorationConfig(node=node), shard=whole_session(30),
        snapshot=None, suite=default_property_suite(), claims=ClaimTable(),
    )


def run_in_order(engine, tasks):
    """Submit every task, then resolve the handles in task order."""
    handles = [engine.submit(task) for task in tasks]
    return [handle.result() for handle in handles]


class TestEngineFailover:
    def test_dead_slot_tasks_requeue_on_survivor(self):
        transport = StubTransport(dying={0})
        engine = ParallelCampaignEngine(transport=transport)
        outcomes = run_in_order(engine, [stub_task("a"), stub_task("b")])
        # "a" was routed to slot 0, died, and re-ran on slot 1.
        assert outcomes == [(1, "a"), (1, "b")]
        assert transport.submitted == [(0, "a"), (1, "b"), (1, "a")]
        assert engine.tasks_requeued == 1
        assert len(engine.failures) == 1
        assert engine.failures[0].worker == "stub slot 0"
        assert transport.discarded == {0}
        # The dead slot never hosts a task again.
        assert engine.next_slot() == 1

    def test_all_slots_dead_is_a_named_error(self):
        engine = ParallelCampaignEngine(
            transport=StubTransport(dying={0, 1})
        )
        with pytest.raises(WorkerFailoverError,
                           match="no surviving worker slots") as caught:
            run_in_order(engine, [stub_task("a")])
        assert caught.value.dead_workers == ["stub slot 0", "stub slot 1"]

    def test_failover_budget_zero_fails_on_first_death(self):
        engine = ParallelCampaignEngine(
            transport=StubTransport(dying={0}), max_worker_failures=0
        )
        with pytest.raises(WorkerFailoverError,
                           match="max_worker_failures=0") as caught:
            run_in_order(engine, [stub_task("a")])
        assert "stub slot 0" in str(caught.value)

    def test_task_errors_are_not_requeued(self):
        """A deterministic task failure would fail on every slot;
        retrying it would only mask the bug."""
        transport = LoopbackTransport(slots=2)
        engine = ParallelCampaignEngine(transport=transport)
        broken = stub_task("a")  # no snapshot: the task itself fails
        from repro.core.remote import RemoteWorkerError

        with pytest.raises(RemoteWorkerError, match="ValueError"):
            run_in_order(engine, [broken])
        assert engine.tasks_requeued == 0
        assert engine.failures == []

    def test_negative_failure_budget_is_rejected(self):
        """The library layer matches the CLI: -1 must error, not
        silently become strict fail-fast mode."""
        with pytest.raises(ValueError, match="max_worker_failures"):
            ParallelCampaignEngine(
                transport=StubTransport(), max_worker_failures=-1
            )

    def test_fatal_classification(self):
        assert is_transport_fatal(WorkerDiedError("gone"))
        assert is_transport_fatal(BrokenProcessPool("pool died"))
        assert not is_transport_fatal(ValueError("task bug"))
        assert not is_transport_fatal(RuntimeError("task bug"))


# -- scripted chaos campaigns: loopback ---------------------------------------


class TestLoopbackChaosCampaigns:
    @pytest.mark.parametrize("point", sorted(KILL_SCRIPTS))
    def test_kill_at_protocol_point_matches_serial(
        self, serial_reference, point
    ):
        chaos = {}

        def factory():
            chaos["transport"] = ChaosTransport(
                LoopbackTransport(slots=2), [KILL_SCRIPTS[point]]
            )
            return chaos["transport"]

        result = run_campaign(transport_factory=factory)
        assert serial_reference.reports
        assert campaign_fingerprint(result) == campaign_fingerprint(
            serial_reference
        )
        assert chaos["transport"].kill_log  # the script really fired
        assert result.dispatch.worker_failures == 1
        assert result.dispatch.tasks_requeued >= 1
        assert len(result.dispatch.dead_workers) == 1
        assert "loopback slot" in result.dispatch.dead_workers[0]

    def test_exceeding_the_budget_names_every_dead_worker(self):
        def factory():
            return ChaosTransport(
                LoopbackTransport(slots=2),
                [Kill(PRE_DISPATCH, slot=0, occurrence=1),
                 Kill(PRE_DISPATCH, slot=1, occurrence=1)],
            )

        with pytest.raises(WorkerFailoverError) as caught:
            run_campaign(transport_factory=factory)
        assert len(caught.value.dead_workers) == 2
        assert "loopback slot 0" in str(caught.value)
        assert "loopback slot 1" in str(caught.value)

    def test_failover_disabled_fails_on_first_death(self):
        def factory():
            return ChaosTransport(
                LoopbackTransport(slots=2), [KILL_SCRIPTS["pre-dispatch"]]
            )

        with pytest.raises(WorkerFailoverError,
                           match="max_worker_failures=0"):
            run_campaign(transport_factory=factory, max_worker_failures=0)


# -- scripted chaos campaigns: real socket daemons ----------------------------


@pytest.mark.slow_socket
@pytest.mark.timeout(300)
class TestSocketChaosCampaigns:
    @pytest.mark.parametrize("point", sorted(KILL_SCRIPTS))
    def test_kill_at_protocol_point_matches_serial(
        self, serial_reference, point
    ):
        """The same kill scripts over real TCP daemons, with the
        scripted kill also taking the daemon process's server down —
        so genuine connection teardown (broken pipes, half-closed
        reads) is exercised, not just the synthetic fail-fast."""
        with WorkerServer().start() as alpha, WorkerServer().start() as beta:
            servers = [alpha, beta]
            addresses = [f"{host}:{port}" for host, port in
                         (alpha.address, beta.address)]

            def factory():
                return ChaosTransport(
                    SocketTransport(addresses),
                    [KILL_SCRIPTS[point]],
                    on_kill=lambda slot: servers[slot].close(),
                )

            result = run_campaign(transport_factory=factory)
            assert campaign_fingerprint(result) == campaign_fingerprint(
                serial_reference
            )
            assert result.dispatch.worker_failures == 1
            assert result.dispatch.tasks_requeued >= 1
            # The dead worker is named by its real address.
            survivor = {0: addresses[1], 1: addresses[0]}
            assert result.dispatch.dead_workers != [
                survivor[KILL_SCRIPTS[point].slot]
            ]
