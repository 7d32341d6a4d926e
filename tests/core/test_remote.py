"""Tests for the remote worker transport layer.

Three layers: the frame codec and worker-state protocol in isolation,
end-to-end campaign determinism over the loopback and socket
transports (the ISSUE's bit-identical-to-serial contract), and
abort/cleanup semantics — ``stop_after_first_fault`` and ``close()``
across local-pool, loopback, and socket transports.
"""

import dataclasses
import pickle
import re
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from campaign_helpers import (
    campaign_fingerprint, faulty_live, report_fingerprint, whole_session,
)
from repro.checks import default_property_suite
from repro.core.explorer import ExplorationConfig
from repro.core.orchestrator import DiceOrchestrator, OrchestratorConfig
from repro.core.parallel import (
    ExplorationTask,
    LocalPoolTransport,
    ParallelCampaignEngine,
)
from repro.core.remote import (
    LoopbackTransport,
    RemoteWorkerError,
    RemoteWorkerState,
    SocketTransport,
    WorkerServer,
    decode_frame,
    encode_frame,
    parse_address,
)
from repro.core.sharing import ClaimTable


def run_campaign(workers=1, cycles=2, inputs=4, stop=False, **kwargs):
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


@pytest.fixture(scope="module")
def serial_reference():
    return run_campaign(workers=1)


def run_two_campaigns_at_once(**kwargs):
    """Two orchestrators, one thread each, dispatching concurrently."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        campaigns = [pool.submit(run_campaign, **kwargs) for _ in range(2)]
        return [campaign.result(timeout=240) for campaign in campaigns]


def count_tasks(state) -> list:
    """The request ids of the tasks ``state`` answers from now on."""
    served = []
    handle = state.handle

    def counted(message):
        response = handle(message)
        if response[0] == "outcome":
            served.append(message[1])
        return response

    state.handle = counted
    return served


class TestFrameCodec:
    def test_round_trip(self):
        message = ("task", 7, {"payload": b"\x00" * 1000})
        assert decode_frame(encode_frame(message)) == message

    def test_length_prefix_mismatch_is_loud(self):
        frame = encode_frame(("task", 1, None))
        with pytest.raises(ValueError, match="length prefix"):
            decode_frame(frame + b"trailing")

    def test_truncated_frame_is_loud(self):
        with pytest.raises(ValueError):
            decode_frame(b"\x00")

    @pytest.mark.parametrize("address, expected", [
        ("127.0.0.1:7411", ("127.0.0.1", 7411)),
        (("host", 80), ("host", 80)),
        ("[::1]:7411", ("::1", 7411)),
        (" host:7411 ", ("host", 7411)),
        ("host:1", ("host", 1)),
        ("host:65535", ("host", 65535)),
    ])
    def test_parse_address(self, address, expected):
        assert parse_address(address) == expected

    @pytest.mark.parametrize("address", [
        "7411", "127.0.0.1:99999", "127.0.0.1:-1", "host:abc",
        "127.0.0.1:0", "host:65536", "[::1]", ":7411", ("host", 70000),
    ])
    def test_parse_address_rejects_malformed(self, address):
        # Rejected before anything connects, naming the address.
        with pytest.raises(ValueError, match=re.escape(repr(address))):
            parse_address(address)


class TestRemoteWorkerState:
    def test_task_failure_becomes_error_frame(self):
        state = RemoteWorkerState()
        broken = ExplorationTask(
            config=ExplorationConfig(node="r1"), shard=whole_session(30),
            snapshot=None, suite=default_property_suite(), claims=ClaimTable(),
        )
        kind, request_id, summary, trace = state.handle(
            ("task", 5, broken)
        )
        assert kind == "error"
        assert request_id == 5
        assert "ValueError" in summary
        assert "snapshot" in trace

    def test_control_flow_exceptions_propagate(self, monkeypatch):
        """Ctrl-C stops the daemon; it must not become an error frame."""
        import repro.core.remote as remote_module

        def interrupted(task):
            raise KeyboardInterrupt

        monkeypatch.setattr(remote_module, "run_task", interrupted)
        broken = ExplorationTask(
            config=ExplorationConfig(node="r1"), shard=whole_session(30),
            snapshot=None, suite=default_property_suite(), claims=ClaimTable(),
        )
        with pytest.raises(KeyboardInterrupt):
            RemoteWorkerState().handle(("task", 1, broken))

    def test_unknown_kind_is_loud(self):
        with pytest.raises(ValueError, match="unknown message"):
            RemoteWorkerState().handle(("bogus",))

    def test_a_failed_task_leaves_the_slot_serving(self):
        """A failed task is answered with an error frame, and the slot
        serves the next task as it served the one before."""
        from repro import quickstart_system

        live = quickstart_system(seed=7)
        live.converge()
        task = ExplorationTask(
            config=ExplorationConfig(node="r2", inputs=2, horizon=1.0),
            shard=whole_session(2),
            snapshot=live.coordinator.capture("r2"),
            suite=default_property_suite(), claims=ClaimTable(),
        )
        broken = dataclasses.replace(task, snapshot=None)
        state = RemoteWorkerState()
        assert state.handle(("task", 1, task))[0] == "outcome"
        assert state.handle(("task", 2, broken))[0] == "error"
        assert state.handle(("task", 3, task))[:2] == ("outcome", 3)


class TestLoopbackCampaigns:
    def test_matches_serial_bit_for_bit(self, serial_reference):
        loopback = run_campaign(workers=2, transport="loopback")
        assert serial_reference.reports
        assert campaign_fingerprint(loopback) == campaign_fingerprint(
            serial_reference
        )
        assert loopback.dispatch.transport == "loopback"

    def test_session_reports_pickle_alike(self, serial_reference):
        """A session report is a function of content alone: it carries
        no wall clock, so inline and over loopback it is the same
        bytes."""
        loopback = run_campaign(workers=2, transport="loopback")
        assert any(r.violations for r in serial_reference.node_reports)
        assert [pickle.dumps(r) for r in loopback.node_reports] == [
            pickle.dumps(r) for r in serial_reference.node_reports
        ]

    @pytest.mark.parametrize("strategy", ["grammar", "random"])
    def test_feedback_free_strategies_match_serial(self, strategy):
        """Every strategy runs the one session body and merges through
        its frontier, keeping its own name on the merged report."""
        inline = run_campaign(strategy=strategy)
        loopback = run_campaign(
            workers=2, transport="loopback", strategy=strategy
        )
        assert campaign_fingerprint(loopback) == campaign_fingerprint(inline)
        assert {n.strategy for n in inline.node_reports} == {strategy}
        assert inline.inputs_explored == 4 * 3 * 2

    def test_wire_bytes_counted(self):
        result = run_campaign(workers=2, transport="loopback")
        assert result.dispatch.wire_bytes_sent > 0
        assert result.dispatch.wire_bytes_received > 0

    def test_serial_campaign_puts_nothing_on_a_wire(self, serial_reference):
        from repro.core.reporting import campaign_to_dict

        assert serial_reference.dispatch.transport == "local"
        block = campaign_to_dict(serial_reference)["summary"][
            "dispatch_transport"
        ]
        assert (block["wire_bytes_sent"], block["wire_bytes_received"]) == (
            0, 0
        )

    def test_task_frames_carry_nothing_earlier_sessions_learned(self):
        """A task frame is its snapshot payload plus a bounded envelope
        (config, suite, claims, shard), so a node's third-cycle frame is
        no bigger around its payload than its first — nothing a
        session learned rides along with the next one."""
        from repro.core.live import LiveSystem
        from repro.topo.demo27 import build_demo27

        class FrameLog(LoopbackTransport):
            def __init__(self):
                super().__init__(slots=2)
                self.envelopes = []  # (node, frame bytes - payload bytes)

            def _exchange(self, slot, message):
                sent = self.bytes_sent
                response = super()._exchange(slot, message)
                task = message[2]
                self.envelopes.append((
                    task.config.node,
                    self.bytes_sent - sent - len(task.snapshot_blob),
                ))
                return response

        topology = build_demo27()
        live = LiveSystem.build(topology.configs, topology.links, seed=0)
        live.converge()
        log = FrameLog()
        result = DiceOrchestrator(live, default_property_suite()).run_campaign(
            OrchestratorConfig(
                inputs_per_node=2, cycles=3, seed=27, horizon=2.0,
                grammar_seeds=2, explorer_nodes=["tr-1", "st-1"],
                transport_factory=lambda: log,
            )
        )
        assert result.solver_queries > 0  # sessions did learn something
        cycles = [log.envelopes[index:index + 2] for index in (0, 2, 4)]
        assert [node for node, _ in cycles[2]] == ["tr-1", "st-1"]
        for (node, first), (_, last) in zip(cycles[0], cycles[2]):
            assert 0 < first < 4096, node
            # Request ids may pickle a byte wider.
            assert last <= first + 16, node

    def test_one_worker_state_serves_two_interleaved_campaigns(
        self, serial_reference
    ):
        """A worker keeps nothing between tasks, so two campaigns can
        interleave their tasks on one slot without seeing each other."""
        shared = LoopbackTransport(slots=1)
        shared.close = lambda: None  # neither campaign owns it
        served = count_tasks(shared._states[0])
        results = run_two_campaigns_at_once(
            transport_factory=lambda: shared
        )
        for result in results:
            assert campaign_fingerprint(result) == campaign_fingerprint(
                serial_reference
            )
        assert len(served) == 2 * 6  # 3 nodes x 2 cycles

    def test_worker_error_propagates_with_traceback(self):
        transport = LoopbackTransport(slots=1)
        broken = ExplorationTask(
            config=ExplorationConfig(node="r1"), shard=whole_session(30),
            snapshot=None, suite=default_property_suite(), claims=ClaimTable(),
        )
        future = transport.submit(0, broken)
        with pytest.raises(RemoteWorkerError, match="ValueError"):
            future.result()

    def test_closed_transport_refuses_work(self):
        transport = LoopbackTransport(slots=1)
        transport.close()
        with pytest.raises(RuntimeError, match="closed"):
            transport.submit(0, None)


class TestSocketCampaigns:
    @pytest.fixture()
    def servers(self):
        started = [WorkerServer().start(), WorkerServer().start()]
        yield started
        for server in started:
            server.close()

    @staticmethod
    def addresses(servers):
        return [f"{host}:{port}" for host, port in
                (server.address for server in servers)]

    def test_matches_serial_bit_for_bit(self, serial_reference, servers):
        remote = run_campaign(
            transport="socket", remote_workers=self.addresses(servers)
        )
        assert campaign_fingerprint(remote) == campaign_fingerprint(
            serial_reference
        )
        assert remote.workers == 2
        assert remote.dispatch.transport == "socket"
        assert remote.dispatch.wire_bytes_sent > 0
        assert remote.dispatch.wire_bytes_received > 0

    def test_one_daemon_serves_two_interleaved_campaigns(
        self, serial_reference, servers
    ):
        daemon = servers[0]
        served = count_tasks(daemon.state)
        results = run_two_campaigns_at_once(
            transport="socket", remote_workers=self.addresses([daemon])
        )
        for result in results:
            assert campaign_fingerprint(result) == campaign_fingerprint(
                serial_reference
            )
        assert len(served) == 2 * 6  # 3 nodes x 2 cycles

    def test_unreachable_worker_fails_at_campaign_start(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            port = placeholder.getsockname()[1]
        # Nothing listens on `port` anymore.
        with pytest.raises(RemoteWorkerError, match="cannot reach"):
            run_campaign(
                transport="socket",
                remote_workers=[f"127.0.0.1:{port}"],
            )

    def test_socket_requires_addresses(self):
        with pytest.raises(ValueError, match="remote_workers"):
            run_campaign(transport="socket")


class TestAbortAndCleanup:
    """stop_after_first_fault + close() across all three transports."""

    @pytest.fixture(scope="class")
    def serial_abort(self):
        return run_campaign(workers=1, stop=True)

    def test_local_pool_abort_matches_serial(self, serial_abort):
        aborted = run_campaign(workers=2, stop=True)
        assert serial_abort.reports
        assert report_fingerprint(aborted) == report_fingerprint(
            serial_abort
        )
        assert aborted.snapshots_taken == serial_abort.snapshots_taken
        assert campaign_fingerprint(aborted) == campaign_fingerprint(
            serial_abort
        )

    def test_loopback_abort_matches_serial(self, serial_abort):
        aborted = run_campaign(workers=2, transport="loopback", stop=True)
        assert campaign_fingerprint(aborted) == campaign_fingerprint(
            serial_abort
        )

    def test_socket_abort_matches_serial_and_daemon_survives(
        self, serial_abort
    ):
        with WorkerServer().start() as alpha, WorkerServer().start() as beta:
            addresses = [f"{host}:{port}" for host, port in
                         (alpha.address, beta.address)]
            aborted = run_campaign(
                transport="socket", remote_workers=addresses, stop=True
            )
            assert campaign_fingerprint(aborted) == campaign_fingerprint(
                serial_abort
            )
            # The daemons outlive the aborted campaign and still serve.
            follow_up = run_campaign(
                transport="socket", remote_workers=addresses
            )
            assert follow_up.reports

    def test_local_pool_close_reaps_workers(self):
        transport = LocalPoolTransport(slots=2)
        engine = ParallelCampaignEngine(transport=transport)
        assert engine.workers == 2
        engine.close()
        assert transport._pools == [None, None]

    def test_dead_worker_surfaces_worker_died_with_address(self):
        """A worker hanging up mid-task must raise WorkerDiedError
        naming the peer address — the failover-classifiable signal —
        not a bare CancelledError or unpickling error."""
        from repro.core.remote import WorkerDiedError, recv_message

        flaky = socket.create_server(("127.0.0.1", 0))
        port = flaky.getsockname()[1]

        def accept_read_and_die():
            conn, _ = flaky.accept()
            recv_message(conn)  # swallow the task frame...
            conn.close()  # ...and hang up without answering

        killer = threading.Thread(target=accept_read_and_die, daemon=True)
        killer.start()
        transport = SocketTransport([f"127.0.0.1:{port}"])
        try:
            task = ExplorationTask(
                config=ExplorationConfig(node="r1"), shard=whole_session(30),
                snapshot=None, suite=default_property_suite(), claims=ClaimTable(),
            )
            future = transport.submit(0, task)
            with pytest.raises(WorkerDiedError, match="died") as caught:
                future.result(timeout=10)
            assert caught.value.address == ("127.0.0.1", port)
            assert str(port) in str(caught.value)
            assert transport._connections[0].dead is not None
        finally:
            killer.join(timeout=2.0)
            transport.close()
            flaky.close()

    def test_worker_hanging_up_while_idle_fails_the_next_submit(self):
        """A daemon that dies between tasks is as dead as one that dies
        mid-task: the next submit must fail over, not wait forever on a
        frame the kernel accepted and nobody will answer."""
        from repro.core.remote import WorkerDiedError

        flaky = socket.create_server(("127.0.0.1", 0))

        def accept_and_hang_up():
            conn, _ = flaky.accept()
            conn.close()

        killer = threading.Thread(target=accept_and_hang_up, daemon=True)
        killer.start()
        transport = SocketTransport(
            [f"127.0.0.1:{flaky.getsockname()[1]}"]
        )
        try:
            transport._connections[0]._reader.join(timeout=10)  # its EOF
            assert isinstance(transport._connections[0].dead,
                              ConnectionError)
            task = ExplorationTask(
                config=ExplorationConfig(node="r1"), shard=whole_session(30),
                snapshot=None, suite=default_property_suite(), claims=ClaimTable(),
            )
            with pytest.raises(WorkerDiedError, match="died"):
                transport.submit(0, task).result(timeout=10)
        finally:
            killer.join(timeout=2.0)
            transport.close()
            flaky.close()

    def test_socket_close_cancels_undelivered_futures(self):
        """A submit the worker never answers is cancelled, not leaked."""
        mute = socket.create_server(("127.0.0.1", 0))
        accepted = []

        def accept_and_hold():
            conn, _ = mute.accept()
            accepted.append(conn)  # read nothing, answer nothing

        holder = threading.Thread(target=accept_and_hold, daemon=True)
        holder.start()
        transport = SocketTransport(
            [f"127.0.0.1:{mute.getsockname()[1]}"]
        )
        try:
            task = ExplorationTask(
                config=ExplorationConfig(node="r1"), shard=whole_session(30),
                snapshot=None, suite=default_property_suite(), claims=ClaimTable(),
            )
            future = transport.submit(0, task)
            assert not future.done()
            transport.close()
            assert future.cancelled() or future.exception() is not None
            late = transport.submit(0, task)
            with pytest.raises(RemoteWorkerError, match="closed"):
                late.result()
        finally:
            holder.join(timeout=2.0)
            for conn in accepted:
                conn.close()
            mute.close()
