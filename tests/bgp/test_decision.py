"""Tests for the BGP decision process."""

from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.decision import best_route, compare_routes
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.route import SOURCE_EBGP, SOURCE_IBGP, Route

PFX = Prefix("10.0.0.0/8")


def route(
    asns=(65001,),
    local_pref=None,
    med=None,
    origin=Origin.IGP,
    source=SOURCE_EBGP,
    peer="p1",
    peer_id="1.1.1.1",
):
    return Route(
        prefix=PFX,
        attributes=PathAttributes(
            origin=origin,
            as_path=AsPath.from_sequence(*asns),
            next_hop=IPv4Address("10.0.0.1"),
            med=med,
            local_pref=local_pref,
        ),
        source=source,
        peer=peer,
        peer_as=asns[0] if asns else None,
        peer_bgp_id=IPv4Address(peer_id),
    )


class TestTieBreakChain:
    def test_higher_local_pref_wins(self):
        a = route(local_pref=200, asns=(1, 2, 3))
        b = route(local_pref=100, asns=(1,), peer="p2")
        assert compare_routes(a, b) < 0

    def test_default_local_pref_applies(self):
        a = route(local_pref=None)  # default 100
        b = route(local_pref=150, peer="p2")
        assert compare_routes(a, b) > 0

    def test_shorter_as_path_wins(self):
        a = route(asns=(1, 2))
        b = route(asns=(1, 2, 3), peer="p2")
        assert compare_routes(a, b) < 0

    def test_lower_origin_wins(self):
        a = route(origin=Origin.IGP)
        b = route(origin=Origin.EGP, peer="p2")
        assert compare_routes(a, b) < 0

    def test_med_compared_same_neighbor_as(self):
        a = route(asns=(7,), med=10)
        b = route(asns=(7,), med=20, peer="p2")
        assert compare_routes(a, b) < 0

    def test_med_ignored_across_different_as(self):
        a = route(asns=(7,), med=100)
        b = route(asns=(8,), med=5, peer="p2", peer_id="2.2.2.2")
        # MED skipped; falls through to router-id comparison.
        assert compare_routes(a, b) < 0

    def test_always_compare_med(self):
        a = route(asns=(7,), med=100)
        b = route(asns=(8,), med=5, peer="p2", peer_id="2.2.2.2")
        assert compare_routes(a, b, always_compare_med=True) > 0

    def test_missing_med_treated_as_zero(self):
        a = route(asns=(7,), med=None)
        b = route(asns=(7,), med=10, peer="p2")
        assert compare_routes(a, b) < 0

    def test_ebgp_preferred_over_ibgp(self):
        a = route(source=SOURCE_EBGP)
        b = route(source=SOURCE_IBGP, peer="p2")
        assert compare_routes(a, b) < 0

    def test_lower_router_id_wins(self):
        a = route(peer_id="1.1.1.1")
        b = route(peer_id="2.2.2.2", peer="p2")
        assert compare_routes(a, b) < 0

    def test_peer_name_final_tiebreak(self):
        a = route(peer="pa")
        b = route(peer="pb")
        assert compare_routes(a, b) < 0

    def test_symbolic_shadow_overrides_local_pref(self):
        a = route(local_pref=50)
        b = route(local_pref=200, peer="p2")
        a = a.replace(sym={"local_pref": 500})
        assert compare_routes(a, b) < 0


class TestBestRoute:
    def test_empty_returns_none(self):
        assert best_route([]) is None

    def test_single_candidate(self):
        only = route()
        assert best_route([only]) is only

    def test_order_independent(self):
        a = route(local_pref=200)
        b = route(local_pref=100, peer="p2")
        c = route(local_pref=150, peer="p3")
        assert best_route([a, b, c]) is a
        assert best_route([c, b, a]) is a


def route_strategy():
    return st.builds(
        route,
        asns=st.lists(
            st.integers(min_value=1, max_value=100), min_size=1, max_size=5
        ).map(tuple),
        local_pref=st.one_of(st.none(), st.integers(min_value=0, max_value=300)),
        med=st.one_of(st.none(), st.integers(min_value=0, max_value=1000)),
        origin=st.sampled_from([0, 1, 2]),
        source=st.sampled_from([SOURCE_EBGP, SOURCE_IBGP]),
        peer=st.sampled_from(["p1", "p2", "p3", "p4"]),
        peer_id=st.sampled_from(["1.1.1.1", "2.2.2.2", "3.3.3.3"]),
    )


class TestOrderProperties:
    @given(route_strategy(), route_strategy())
    def test_antisymmetric(self, a, b):
        forward = compare_routes(a, b)
        backward = compare_routes(b, a)
        if forward < 0:
            assert backward > 0
        elif forward > 0:
            assert backward < 0
        else:
            assert backward == 0

    @given(route_strategy())
    def test_reflexive_zero(self, a):
        assert compare_routes(a, a) == 0

    @given(st.lists(route_strategy(), min_size=1, max_size=6))
    def test_best_is_minimal_with_always_compare_med(self, routes):
        """With always-compare-MED the preference order is total, so the
        fold's winner beats every candidate.  (Without it, MED's
        same-neighbor-AS scoping makes preference famously intransitive —
        see test_med_intransitivity_exists.)"""
        best = best_route(routes, always_compare_med=True)
        for candidate in routes:
            assert compare_routes(best, candidate, always_compare_med=True) <= 0

    @given(st.lists(route_strategy(), min_size=1, max_size=6))
    def test_best_deterministic_under_shuffle(self, routes):
        forward = best_route(routes, always_compare_med=True)
        backward = best_route(list(reversed(routes)), always_compare_med=True)
        assert compare_routes(forward, backward, always_compare_med=True) == 0

    def test_med_intransitivity_exists(self):
        """The default (RFC) MED scoping is order-dependent: a concrete
        triple where the pairwise relation cycles.  This is the real
        protocol's behaviour (the 'deterministic MED' operational issue),
        reproduced rather than papered over."""
        a = route(asns=(7,), med=10, peer="pa", peer_id="3.3.3.3")
        b = route(asns=(8,), med=0, peer="pb", peer_id="1.1.1.1")
        c = route(asns=(7,), med=0, peer="pc", peer_id="2.2.2.2")
        # a vs b: different AS -> router-id -> b wins.
        assert compare_routes(b, a) < 0
        # b vs c: different AS -> router-id -> b wins.
        assert compare_routes(b, c) < 0
        # c vs a: same AS -> MED -> c wins; but c loses to b on id while
        # a would beat b only through c: order of arrival decides.
        assert compare_routes(c, a) < 0
