"""Tests for the 27-router demo topology (Figure 1)."""

from repro.checks.reachability import convergence_complete
from repro.core.live import LiveSystem
from repro.topo.demo27 import DEMO27_PARAMS, build_demo27


class TestDemo27:
    def test_exactly_27_routers(self, demo27_topology):
        assert len(demo27_topology.configs) == 27

    def test_tier_shape(self, demo27_topology):
        assert len(demo27_topology.nodes_in_tier(1)) == 3
        assert len(demo27_topology.nodes_in_tier(2)) == 8
        assert len(demo27_topology.nodes_in_tier(3)) == 16

    def test_reproducible(self, demo27_topology):
        again = build_demo27()
        assert again.relationships == demo27_topology.relationships
        assert [c.local_as for c in again.configs] == [
            c.local_as for c in demo27_topology.configs
        ]

    def test_internet_like_latencies(self, demo27_topology):
        for _, _, profile in demo27_topology.links:
            assert 0.002 <= profile.latency_s <= 0.060
            assert profile.jitter_s > 0

    def test_converges_and_is_loop_free(self, demo27_topology):
        live = LiveSystem.build(
            demo27_topology.configs, demo27_topology.links, seed=27
        )
        live.converge(deadline=600)
        assert convergence_complete(live.network)
        assert live.total_routes() == 27 * 27  # every prefix everywhere

    def test_params_stable(self):
        assert DEMO27_PARAMS.total == 27
