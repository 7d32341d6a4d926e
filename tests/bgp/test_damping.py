"""Tests for route-flap damping (RFC 2439)."""

import pytest

from repro.bgp.damping import (
    FLAP_ATTRIBUTE_CHANGE,
    FLAP_READVERTISE,
    FLAP_WITHDRAW,
    DampingParams,
    FlapDampener,
)
from repro.bgp.ip import Prefix

P = Prefix("10.1.0.0/16")


def dampener(**kwargs):
    return FlapDampener(params=DampingParams(**kwargs))


class TestParams:
    def test_reuse_below_suppress_enforced(self):
        with pytest.raises(ValueError):
            DampingParams(suppress_threshold=100, reuse_threshold=100)

    def test_half_life_positive(self):
        with pytest.raises(ValueError):
            DampingParams(half_life_s=0)

    def test_penalty_lookup(self):
        params = DampingParams()
        assert params.penalty_for(FLAP_WITHDRAW) == 1000.0
        assert params.penalty_for(FLAP_ATTRIBUTE_CHANGE) == 500.0
        assert params.penalty_for(FLAP_READVERTISE) == 0.0
        with pytest.raises(ValueError):
            params.penalty_for("sneeze")


class TestDampener:
    def test_single_flap_not_suppressed(self):
        d = dampener()
        assert d.record_flap("p1", P, FLAP_WITHDRAW, 0.0) is False
        assert not d.is_suppressed("p1", P, 0.0)

    def test_repeated_flaps_suppress(self):
        d = dampener()
        d.record_flap("p1", P, FLAP_WITHDRAW, 0.0)
        d.record_flap("p1", P, FLAP_WITHDRAW, 1.0)
        # Two decayed withdrawals sit just under the threshold (2000);
        # the third pushes past it.
        suppressed = d.record_flap("p1", P, FLAP_WITHDRAW, 2.0)
        assert suppressed
        assert d.is_suppressed("p1", P, 2.0)

    def test_penalty_decays_exponentially(self):
        d = dampener(half_life_s=10.0)
        d.record_flap("p1", P, FLAP_WITHDRAW, 0.0)
        assert d.penalty("p1", P, 0.0) == pytest.approx(1000.0)
        assert d.penalty("p1", P, 10.0) == pytest.approx(500.0)
        assert d.penalty("p1", P, 20.0) == pytest.approx(250.0)

    def test_reuse_after_decay(self):
        d = dampener(half_life_s=1.0)
        for t in (0.0, 0.1, 0.2):
            d.record_flap("p1", P, FLAP_WITHDRAW, t)
        assert d.is_suppressed("p1", P, 0.2)
        # After several half-lives the penalty falls under reuse (750).
        assert not d.is_suppressed("p1", P, 10.0)

    def test_penalty_capped(self):
        d = dampener(half_life_s=1000.0, max_penalty=3000.0)
        for t in range(10):
            d.record_flap("p1", P, FLAP_WITHDRAW, float(t))
        assert d.penalty("p1", P, 9.0) <= 3000.0

    def test_reuse_eta_estimate(self):
        d = dampener(half_life_s=10.0)
        d.record_flap("p1", P, FLAP_WITHDRAW, 0.0)
        d.record_flap("p1", P, FLAP_WITHDRAW, 0.0)
        d.record_flap("p1", P, FLAP_WITHDRAW, 0.0)
        eta = d.reuse_eta("p1", P, 0.0)
        assert eta is not None
        # At the ETA the route must be reusable.
        assert not d.is_suppressed("p1", P, eta + 0.01)

    def test_eta_none_when_not_suppressed(self):
        d = dampener()
        assert d.reuse_eta("p1", P, 0.0) is None

    def test_per_pair_isolation(self):
        d = dampener()
        other = Prefix("10.2.0.0/16")
        d.record_flap("p1", P, FLAP_WITHDRAW, 0.0)
        d.record_flap("p1", P, FLAP_WITHDRAW, 0.0)
        assert d.is_suppressed("p1", P, 0.0)
        assert not d.is_suppressed("p1", other, 0.0)
        assert not d.is_suppressed("p2", P, 0.0)

    def test_suppressed_routes_enumeration(self):
        d = dampener()
        d.record_flap("p1", P, FLAP_WITHDRAW, 0.0)
        d.record_flap("p1", P, FLAP_WITHDRAW, 0.0)
        assert list(d.suppressed_routes(0.0)) == [("p1", P)]

    def test_flap_count(self):
        d = dampener()
        d.record_flap("p1", P, FLAP_WITHDRAW, 0.0)
        d.record_flap("p1", P, FLAP_ATTRIBUTE_CHANGE, 1.0)
        assert d.flap_count("p1", P) == 2
        assert d.flap_count("p2", P) == 0

    def test_export_import_roundtrip(self):
        d = dampener(half_life_s=10.0)
        d.record_flap("p1", P, FLAP_WITHDRAW, 0.0)
        d.record_flap("p1", P, FLAP_WITHDRAW, 0.0)
        restored = FlapDampener(params=d.params)
        restored.import_state(d.export_state())
        assert restored.is_suppressed("p1", P, 0.0)
        assert restored.flap_count("p1", P) == 2
        assert restored.penalty("p1", P, 0.0) == pytest.approx(
            d.penalty("p1", P, 0.0)
        )


class TestRouterIntegration:
    def _flapping_live(self, damping):
        """r1--r2 line where r1's prefix is flapped via config churn."""
        import dataclasses

        from repro import quickstart_system

        live = quickstart_system(seed=9)
        r2 = live.router("r2")
        r2.config = dataclasses.replace(r2.config, damping=damping)
        r2.dampener = None
        if damping is not None:
            from repro.bgp.damping import FlapDampener

            r2.dampener = FlapDampener(params=damping)
        live.converge()
        return live

    def test_flapping_route_gets_suppressed(self):
        from repro.bgp.config import AddNetwork, RemoveNetwork
        from repro.bgp.ip import Prefix as Pfx

        params = DampingParams(half_life_s=60.0)
        live = self._flapping_live(params)
        r2 = live.router("r2")
        flapper = Pfx("10.1.0.0/16")
        for _ in range(3):
            live.apply_change("r1", RemoveNetwork(flapper))
            live.converge()
            live.apply_change("r1", AddNetwork(flapper))
            live.converge()
        assert r2.dampener.flap_count("r1", flapper) >= 3
        assert r2.dampener.is_suppressed("r1", flapper, r2.now)
        # Suppressed: excluded from the decision process.
        assert r2.loc_rib.get(flapper) is None

    def test_suppressed_route_reused_after_decay(self):
        from repro.bgp.config import AddNetwork, RemoveNetwork
        from repro.bgp.ip import Prefix as Pfx

        params = DampingParams(half_life_s=20.0)
        live = self._flapping_live(params)
        r2 = live.router("r2")
        flapper = Pfx("10.1.0.0/16")
        for _ in range(3):
            live.apply_change("r1", RemoveNetwork(flapper))
            live.converge()
            live.apply_change("r1", AddNetwork(flapper))
            live.converge()
        assert r2.loc_rib.get(flapper) is None
        # Let the penalty decay past reuse; the reuse timer re-runs the
        # decision process automatically.
        live.run(until=live.network.sim.now + 200)
        assert r2.loc_rib.get(flapper) is not None

    def test_suppression_and_reuse_logged(self, router_events):
        from repro.bgp.config import AddNetwork, RemoveNetwork
        from repro.bgp.ip import Prefix as Pfx

        params = DampingParams(half_life_s=20.0)
        live = self._flapping_live(params)
        flapper = Pfx("10.1.0.0/16")
        for _ in range(3):
            live.apply_change("r1", RemoveNetwork(flapper))
            live.converge()
            live.apply_change("r1", AddNetwork(flapper))
            live.converge()
        # Each flap past the threshold (re)logs the suppression.
        suppressed = router_events("route_suppressed")
        assert suppressed and set(suppressed) == {("r2", "r1")}
        assert router_events("route_reused") == []
        live.run(until=live.network.sim.now + 200)
        assert router_events("route_reused") == [("r2", "r1")]

    def test_without_damping_route_stays(self):
        from repro.bgp.config import AddNetwork, RemoveNetwork
        from repro.bgp.ip import Prefix as Pfx

        live = self._flapping_live(None)
        r2 = live.router("r2")
        flapper = Pfx("10.1.0.0/16")
        for _ in range(3):
            live.apply_change("r1", RemoveNetwork(flapper))
            live.converge()
            live.apply_change("r1", AddNetwork(flapper))
            live.converge()
        assert r2.loc_rib.get(flapper) is not None
