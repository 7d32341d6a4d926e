"""Sharded-frontier campaigns: bit-equality at any worker count.

The sharding contract: the shard decomposition is *configuration*
(``frontier_shards``), not an execution mode.  Workers=1 running the
identical decomposition over the inline transport IS the serial
reference, and fault reports and per-node counters (paths, coverage,
clones, solver queries) are bit-identical at any worker count, over
any transport — even when a worker slot dies holding a shard
mid-round.  The shard count is a count, not a pop
order: ``frontier`` names the discipline every shard pops by.
"""

import pytest

from campaign_helpers import campaign_fingerprint, faulty_live
from chaos import MID_TASK, PRE_DISPATCH, ChaosTransport, Kill

from repro.checks import default_property_suite
from repro.core.orchestrator import DiceOrchestrator, OrchestratorConfig
from repro.core.remote import LoopbackTransport, SocketTransport, WorkerServer


def run_campaign(workers=1, shards=4, **kwargs):
    dice = DiceOrchestrator(faulty_live(), default_property_suite())
    return dice.run_campaign(
        OrchestratorConfig(
            inputs_per_node=6,
            cycles=2,
            seed=9,
            workers=workers,
            frontier_shards=shards,
            **kwargs,
        )
    )


@pytest.fixture(scope="module")
def serial_reference():
    """The same decomposition on one worker — the equality baseline."""
    return run_campaign(workers=1)


class TestShardedCampaigns:
    def test_sharding_finds_the_seeded_fault(self, serial_reference):
        assert serial_reference.reports
        assert serial_reference.inputs_explored > 0
        assert serial_reference.cycles_completed == 2

    def test_sharded_is_not_a_discipline(self):
        """How many shards is ``frontier_shards``; naming it as a pop
        order is the unknown-discipline error, raised before anything
        is captured."""
        live = faulty_live()
        dice = DiceOrchestrator(live, default_property_suite())
        before = live.network.sim.now
        with pytest.raises(ValueError, match="unknown frontier discipline"):
            dice.run_campaign(OrchestratorConfig(frontier="sharded"))
        assert live.network.sim.now == before


class TestDisciplineUnderSharding:
    """``frontier`` is the pop order of every shard (at the parent
    commit three shards silently explored breadth-first)."""

    @staticmethod
    def run(frontier, **kwargs):
        # Three seeds over three shards, two executions each: every
        # shard's second pop is where the orders part.
        return run_campaign(shards=3, frontier=frontier, **kwargs)

    def test_dfs_shards_differ_from_bfs_shards(self):
        def counters(result):
            return [(n.node, n.unique_paths, n.branch_coverage,
                     n.shape_coverage, n.solver_queries)
                    for n in result.node_reports]

        assert counters(self.run("dfs")) != counters(self.run("bfs"))

    @pytest.mark.parametrize("kwargs", [
        dict(workers=2, transport="loopback"), dict(workers=2),
    ], ids=["loopback", "pool"])
    def test_dfs_shards_match_their_serial_reference(self, kwargs):
        assert campaign_fingerprint(self.run("dfs", **kwargs)) == (
            campaign_fingerprint(self.run("dfs"))
        )


class TestWorkerCountEquality:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_local_pools_match_serial(self, serial_reference, workers):
        result = run_campaign(workers=workers)
        assert campaign_fingerprint(result) == campaign_fingerprint(
            serial_reference
        )

    def test_loopback_matches_serial(self, serial_reference):
        result = run_campaign(workers=2, transport="loopback")
        assert campaign_fingerprint(result) == campaign_fingerprint(
            serial_reference
        )


class TestShardChaos:
    def test_slot_death_mid_shard_matches_serial(self, serial_reference):
        """A slot dies holding a dispatched shard; the shard re-runs
        hermetically on a survivor (fresh solver, fresh clones) so the
        merged session — and the whole campaign — is unchanged."""
        chaos = {}

        def factory():
            chaos["transport"] = ChaosTransport(
                LoopbackTransport(slots=2),
                [Kill(MID_TASK, slot=1, occurrence=2)],
            )
            return chaos["transport"]

        result = run_campaign(workers=2, transport_factory=factory)
        assert campaign_fingerprint(result) == campaign_fingerprint(
            serial_reference
        )
        assert chaos["transport"].kill_log  # the script really fired
        assert result.worker_failures == 1
        assert result.tasks_requeued >= 1

    def test_pre_dispatch_death_matches_serial(self, serial_reference):
        def factory():
            return ChaosTransport(
                LoopbackTransport(slots=2),
                [Kill(PRE_DISPATCH, slot=0, occurrence=1)],
            )

        result = run_campaign(workers=2, transport_factory=factory)
        assert campaign_fingerprint(result) == campaign_fingerprint(
            serial_reference
        )
        assert result.worker_failures == 1


@pytest.mark.slow_socket
@pytest.mark.timeout(300)
class TestSocketSharding:
    def test_socket_daemons_match_serial(self, serial_reference):
        with WorkerServer().start() as alpha, WorkerServer().start() as beta:
            addresses = [f"{host}:{port}" for host, port in
                         (alpha.address, beta.address)]
            result = run_campaign(
                transport="socket", remote_workers=addresses
            )
            assert campaign_fingerprint(result) == campaign_fingerprint(
                serial_reference
            )

    def test_socket_daemon_death_mid_shard_matches_serial(
        self, serial_reference
    ):
        with WorkerServer().start() as alpha, WorkerServer().start() as beta:
            servers = [alpha, beta]
            addresses = [f"{host}:{port}" for host, port in
                         (alpha.address, beta.address)]

            def factory():
                return ChaosTransport(
                    SocketTransport(addresses),
                    [Kill(MID_TASK, slot=1, occurrence=2)],
                    on_kill=lambda slot: servers[slot].close(),
                )

            result = run_campaign(transport_factory=factory)
            assert campaign_fingerprint(result) == campaign_fingerprint(
                serial_reference
            )
            assert result.worker_failures == 1
            assert result.tasks_requeued >= 1
