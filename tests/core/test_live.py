"""Tests for the live-system wrapper."""

import gc
import tracemalloc

from repro.bgp.config import AddNetwork, RemoveNetwork
from repro.bgp.ip import Prefix
from repro.core.live import LiveSystem


class TestBuildAndRun:
    def test_routers_accessor(self, live3):
        assert [router.name for router in live3.routers()] == [
            "r1", "r2", "r3",
        ]

    def test_converge_reaches_fixpoint(self, live3):
        when = live3.converge()
        assert when > 0
        assert live3.total_routes() == 9  # 3 prefixes x 3 routers

    def test_quiet_system_converges_before_the_deadline(self, live3):
        """The CLI tells convergence from a timeout by comparing the
        returned clock with the deadline it passed in."""
        assert live3.converge(deadline=600.0) < 600.0

    def test_oscillating_system_runs_to_the_deadline(self):
        from repro.topo.gadgets import build_bad_gadget

        configs, links = build_bad_gadget()
        live = LiveSystem.build(configs, links, seed=7)
        assert live.converge(deadline=20.0) >= 20.0

    def test_converge_is_idempotent(self, converged3):
        routes = converged3.total_routes()
        converged3.converge()
        assert converged3.total_routes() == routes

    def test_originated_prefixes(self, live3):
        assert live3.originated_prefixes() == [
            Prefix("10.1.0.0/16"), Prefix("10.2.0.0/16"),
            Prefix("10.3.0.0/16"),
        ]


class TestFootprint:
    def test_quiet_live_heap_stays_flat(self, demo27_topology):
        """A converged system exchanging only keepalives keeps no
        history: 600 quiet simulated seconds leave the heap where they
        found it (the Loc-RIB journal is bounded and nothing else
        records)."""
        live = LiveSystem.build(
            demo27_topology.configs, demo27_topology.links, seed=0
        )
        live.converge()
        # Traced from here, so every armed timer and scheduled delivery
        # is counted before the first reading, not as growth.
        tracemalloc.start()
        try:
            live.run(until=live.network.sim.now + 60)
            gc.collect()
            before, _ = tracemalloc.get_traced_memory()
            live.run(until=live.network.sim.now + 600)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 256 * 1024


class TestOperatorActions:
    def test_apply_change_updates_configs_view(self, converged3):
        new_prefix = Prefix("10.50.0.0/16")
        converged3.apply_change("r1", AddNetwork(new_prefix))
        config = next(c for c in converged3.configs if c.name == "r1")
        assert new_prefix in config.networks
        # The trusted baseline must NOT move.
        initial = next(
            c for c in converged3.initial_configs if c.name == "r1"
        )
        assert new_prefix not in initial.networks

    def test_scheduled_change_fires(self, converged3):
        new_prefix = Prefix("10.51.0.0/16")
        at = converged3.network.sim.now + 5.0
        converged3.schedule_change(at, "r2", AddNetwork(new_prefix))
        converged3.run(until=at + 10)
        assert converged3.router("r1").loc_rib.get(new_prefix) is not None

    def test_churn_flips_prefix(self, converged3):
        prefix = Prefix("10.52.0.0/16")
        start = converged3.network.sim.now
        converged3.enable_churn("r1", prefix, period=5.0,
                                start_at=start + 1.0)
        converged3.run(until=start + 20)
        assert converged3.churn_events >= 3

    def test_remove_network_withdraws(self, converged3):
        converged3.apply_change("r3", RemoveNetwork(Prefix("10.3.0.0/16")))
        converged3.converge()
        assert converged3.router("r1").loc_rib.get(
            Prefix("10.3.0.0/16")
        ) is None
