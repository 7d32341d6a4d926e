"""Property-based tests for the decision process.

The tie-break chain must be a *total preorder* over feasible routes —
antisymmetric, transitive, deterministic — or the RIB can oscillate on
nothing but iteration order. Hypothesis drives ``compare_routes`` over
randomly generated routes and ``best_route`` over permutations of the
same candidate set.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import (
    SEGMENT_AS_SEQUENCE,
    SEGMENT_AS_SET,
    AsPath,
    Origin,
    PathAttributes,
)
from repro.bgp.decision import best_route, compare_routes
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.route import SOURCE_EBGP, SOURCE_IBGP, Route

PREFIX = Prefix("10.50.0.0", 16)

asns = st.integers(min_value=1, max_value=65535)

segments = st.one_of(
    st.tuples(
        st.just(SEGMENT_AS_SEQUENCE),
        st.lists(asns, min_size=1, max_size=4).map(tuple),
    ),
    st.tuples(
        st.just(SEGMENT_AS_SET),
        st.lists(asns, min_size=1, max_size=3, unique=True).map(tuple),
    ),
)

as_paths = st.lists(segments, max_size=3).map(
    lambda segs: AsPath(tuple(segs))
)

attributes = st.builds(
    PathAttributes,
    origin=st.sampled_from([Origin.IGP, Origin.EGP, Origin.INCOMPLETE]),
    as_path=as_paths,
    next_hop=st.just(IPv4Address("10.0.0.1")),
    med=st.one_of(st.none(), st.integers(min_value=0, max_value=50)),
    local_pref=st.one_of(
        st.none(), st.integers(min_value=0, max_value=300)
    ),
)

routes = st.builds(
    Route,
    prefix=st.just(PREFIX),
    attributes=attributes,
    source=st.sampled_from([SOURCE_EBGP, SOURCE_IBGP]),
    peer=st.sampled_from(["p1", "p2", "p3", "p4"]),
    peer_as=asns,
    peer_bgp_id=st.one_of(
        st.none(),
        st.integers(min_value=1, max_value=2**32 - 1).map(IPv4Address),
    ),
)

knobs = st.fixed_dictionaries(
    {
        "default_local_pref": st.integers(min_value=0, max_value=200),
        "always_compare_med": st.booleans(),
    }
)


class TestTotalPreorder:
    @given(a=routes, b=routes, kw=knobs)
    def test_antisymmetry(self, a, b, kw):
        assert compare_routes(a, b, **kw) == -compare_routes(b, a, **kw)

    @given(route=routes, kw=knobs)
    def test_reflexivity(self, route, kw):
        assert compare_routes(route, route, **kw) == 0

    @settings(max_examples=300)
    @given(a=routes, b=routes, c=routes, kw=knobs)
    def test_transitivity(self, a, b, c, kw):
        # a ≤ b and b ≤ c must imply a ≤ c. MED's same-neighbor-AS scope
        # famously breaks this for real BGP; the simulator sidesteps it
        # by comparing MED only as a tie-break *after* origin, where the
        # earlier criteria already pin the candidates — regression-check
        # that the implementation stays transitive over random routes.
        ab = compare_routes(a, b, **kw)
        bc = compare_routes(b, c, **kw)
        if ab <= 0 and bc <= 0:
            assert compare_routes(a, c, **kw) <= 0

    @given(a=routes, b=routes, kw=knobs)
    def test_determinism(self, a, b, kw):
        first = compare_routes(a, b, **kw)
        assert all(
            compare_routes(a, b, **kw) == first for _ in range(3)
        )

    @given(a=routes, b=routes, kw=knobs)
    def test_distinct_provenance_never_ties(self, a, b, kw):
        # The final peer-name tie-break totalises the order: only
        # same-peer same-attribute routes may compare equal.
        if compare_routes(a, b, **kw) == 0:
            assert a.peer == b.peer
            assert (a.peer_bgp_id is None) == (b.peer_bgp_id is None)


class TestBestRoute:
    @settings(max_examples=200)
    @given(
        candidates=st.lists(routes, min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kw=knobs,
    )
    def test_permutation_stable(self, candidates, seed, kw):
        """The winner must not depend on candidate iteration order."""
        baseline = best_route(candidates, **kw)
        shuffled = list(candidates)
        random.Random(seed).shuffle(shuffled)
        other = best_route(shuffled, **kw)
        # Distinct Route objects can compare equal (same peer and
        # attributes); stability means the *order* is indifferent
        # between them.
        assert compare_routes(baseline, other, **kw) == 0

    @given(candidates=st.lists(routes, min_size=1, max_size=6), kw=knobs)
    def test_winner_dominates_every_candidate(self, candidates, kw):
        winner = best_route(candidates, **kw)
        assert winner is not None
        for candidate in candidates:
            assert compare_routes(winner, candidate, **kw) <= 0

    def test_empty_candidate_set(self):
        assert best_route([]) is None
