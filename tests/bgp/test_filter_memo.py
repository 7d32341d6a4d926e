"""A router decides each filter outcome once per distinct input.

``BGPRouter._filter`` keeps a filter's outcome in its network's interned
table under the values the filter reads (``Filter.inputs``), and
``_with`` / ``_egress`` keep the canonical set a filter's writes and the
egress rewrite make.  Identity is all the memo may decide: these tests
hold a cold and a warm memo to ``Filter.evaluate`` followed by
``_canonical``, over every filter the demo27 and internet40 configs and
the policy tests name, and keep routes with symbolic fields out of it.
"""

import ast
import pathlib
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_policy_compiler import routes, typed_filters, wild_filters

from repro import quickstart_system
from repro.bgp.attributes import PathAttributes
from repro.bgp.config import NeighborConfig, RouterConfig
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.policy import Filter, PolicyRuntimeError
from repro.bgp.policy_lang import PolicySyntaxError
from repro.bgp.route import SOURCE_EBGP, Route
from repro.bgp.router import BGPRouter
from repro.concolic.symbolic import PathRecorder, concrete
from repro.net.network import Network
from repro.topo.demo27 import build_demo27
from repro.topo.internet import TopologyParams, build_internet

TAGS = ("FILTER", "WITH", "EGRESS")
CUSTOMER = 65535 << 16 | 1


def _topology_filters():
    configs = [*build_demo27().configs, *build_internet(
        TopologyParams(tier1=3, transit=12, stubs=25, seed=2711)).configs]
    found = {}
    for config in configs:
        for policy in config.filters.values():
            found.setdefault(policy.definition, policy)
    return list(found.values())


def _test_file_filters():
    """Every filter source text the policy tests spell out."""
    found = {}
    for path in sorted(pathlib.Path(__file__).parent.glob("test_policy*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.startswith("filter ")):
                try:
                    found.setdefault(node.value, Filter.compile(node.value))
                except PolicySyntaxError:
                    continue
    return list(found.values())


FILTERS = _topology_filters() + _test_file_filters()
filters = st.sampled_from(FILTERS) | (typed_filters | wild_filters).map(Filter)


class WatchedTable(dict):
    """An interned table that records every key looked up."""

    def __init__(self):
        super().__init__()
        self.looked_up = []

    def get(self, key, default=None):
        self.looked_up.append(key)
        return super().get(key, default)


def attached_routers(*local_prefs):
    """Routers with these default LOCAL_PREFs on one network, over a
    watched table."""
    network = Network(interned=WatchedTable())
    routers = [network.add_process(BGPRouter(RouterConfig(
        name=f"r{index}", local_as=65001, router_id=IPv4Address("9.9.9.9"),
        default_local_pref=local_pref,
        neighbors=(NeighborConfig(peer="p", peer_as=65002),),
    ))) for index, local_pref in enumerate(local_prefs)]
    return network, routers


def attached_router(local_pref=100):
    network, (router,) = attached_routers(local_pref)
    return network, router


def tagged(keys):
    return [key for key in keys if type(key) is tuple and key[0] in TAGS]


def outcome(run):
    """``(set, fell through)`` of one run, or the error it raised, and
    the branches it recorded."""
    with PathRecorder() as recorder:
        try:
            result = run()
        except Exception as error:  # the error is the outcome compared
            result = ("raises", type(error).__name__, re.sub(
                r" object at 0x[0-9a-f]+", "", str(error)))
    return result, [(c.fp, taken) for c, taken in recorder.branches]


def reference(router, policy, route):
    """``Filter.evaluate`` followed by ``_canonical``: no memo."""
    result = policy.evaluate(route, router.config.default_local_pref)
    return (router._canonical(result.attributes) if result.accepted
            else None), result.fell_through


def same(memoised, expected):
    """The same outcome and branches, and the very same canonical set
    (a set no cache keeps, one holding a symbolic value, compares by
    its fields' reprs)."""
    (found, branches), (wanted, wanted_branches) = memoised, expected
    assert branches == wanted_branches
    if found[0] == "raises" or wanted[0] == "raises":
        assert found == wanted
        return
    assert found[1] == wanted[1]
    if wanted[0] is None or wanted[0].is_concrete():
        assert found[0] is wanted[0]
    else:
        assert fields(found[0]) == fields(wanted[0])


def fields(attrs):
    return [repr(getattr(attrs, name)) for name in PathAttributes._FIELDS]


class TestOutcomeMemo:
    @settings(max_examples=200, deadline=None)
    @given(filters, st.lists(routes(), min_size=1, max_size=4))
    def test_cold_and_warm_equal_evaluate_then_canonical(self, policy, drawn):
        network, routers = attached_routers(100, 77)
        for route in drawn * 2:  # cold, then warm
            for router in routers:
                memoised = outcome(lambda: router._filter(policy, route))
                same(memoised,
                     outcome(lambda: reference(router, policy, route)))
                if memoised[0][0] == "raises":
                    assert not [key for key in tagged(network.interned)
                                if key[1] is policy]

    # A memo gate that lets a symbolic route through fails by the sixth
    # example (the whole gate dropped: the first), so 50 keep a margin.
    @settings(max_examples=50, deadline=None)
    @given(filters, routes(symbolic=True).filter(
        lambda route: not route.attributes.is_concrete()))
    def test_symbolic_routes_never_touch_the_memo(self, policy, route):
        network, router = attached_router()
        # Warm the memo with the route's concrete twin, which reads the
        # same concrete values the symbolic one does.
        attrs = route.attributes
        twin = route.with_attributes(attrs.replace(**{
            name: concrete(getattr(attrs, name))
            for name in ("origin", "med", "local_pref", "communities")
        }))
        outcome(lambda: router._filter(policy, twin))
        network.interned.looked_up.clear()
        same(outcome(lambda: router._filter(policy, route)),
             outcome(lambda: reference(router, policy, route)))
        assert not tagged(network.interned.looked_up)

    @pytest.mark.parametrize("defaults", [(100, 77), (77, 100)])
    def test_routers_with_other_defaults_share_no_outcome(self, defaults):
        """Two routers on one interned table whose default LOCAL_PREFs
        differ get their own outcome for a route without LOCAL_PREF."""
        policy = Filter.compile(
            "filter f { if bgp_local_pref = 77 then accept; reject; }")
        route = Route(prefix=Prefix("10.1.0.0/16"),
                      attributes=PathAttributes(),
                      source=SOURCE_EBGP, peer="p", peer_as=65002)
        network, routers = attached_routers(*defaults)
        for router in routers:
            attrs, fell_through = router._filter(policy, route)
            assert (attrs is not None) is (
                router.config.default_local_pref == 77)
        assert len(tagged(network.interned)) == 2

    def test_an_unknown_attribute_still_raises(self):
        policy = Filter.compile(
            "filter f { if source = 0 then accept; "
            "if nonsense = 1 then accept; reject; }"
        )
        assert policy.inputs is None
        network, router = attached_router()
        route = Route(prefix=Prefix("10.1.0.0/16"),
                      attributes=PathAttributes(), source=SOURCE_EBGP,
                      peer="p", peer_as=65002)
        for _ in range(2):
            with pytest.raises(PolicyRuntimeError, match="nonsense"):
                router._filter(policy, route)
            assert router._filter(policy, route.replace(source="static")) \
                == (router._canonical(route.attributes), False)
        assert not tagged(network.interned)

    def test_a_filter_reads_only_what_it_names(self):
        policy = Filter.compile(
            "filter f { if bgp_community ~ (65535, 1) then "
            "bgp_local_pref = 50; accept; }"
        )
        route = Route(prefix=Prefix("10.1.0.0/16"),
                      attributes=PathAttributes(med=4, local_pref=9,
                                                communities=(CUSTOMER,)),
                      source=SOURCE_EBGP, peer="p", peer_as=65002)
        # The assignment target is read: an equal write changes nothing.
        assert policy.inputs(route) == ((CUSTOMER,), 9)
        network, router = attached_router()
        first, _ = router._filter(policy, route)
        other = route.replace(prefix=Prefix("10.2.0.0/16"), peer_as=1,
                              attributes=route.attributes.replace(med=5))
        assert router._filter(policy, other)[0].med == 5
        assert len(tagged(network.interned)) == 3  # FILTER + two WITH
        assert first.local_pref == 50


class TestEgressMemo:
    @settings(max_examples=150, deadline=None)
    @given(routes(), st.booleans(), st.none() | st.sampled_from((0, 7)))
    def test_cold_and_warm_equal_the_rewrite_then_canonical(
        self, route, is_ibgp, export_med
    ):
        network, routers = attached_routers(100, 77)
        attrs = route.attributes
        for _ in range(2):  # cold, then warm
            for router in routers:
                config = router.config
                if not is_ibgp:
                    expected = attrs.replace(
                        as_path=attrs.as_path.prepend(config.local_as),
                        next_hop=config.router_id, local_pref=None,
                        med=export_med)
                elif attrs.local_pref is None:
                    expected = attrs.replace(
                        local_pref=config.default_local_pref)
                else:
                    expected = attrs
                found = router._egress(attrs, is_ibgp, export_med)
                assert found is router._canonical(expected)
        assert len(tagged(network.interned)) == len(routers)


def test_no_memo_entry_is_pickled():
    live = quickstart_system(seed=3)
    live.converge()
    assert tagged(live.network.interned)
    snapshot = live.coordinator.capture(live.routers()[0].name)
    data = pickle.dumps(snapshot)
    for tag in TAGS:
        assert tag.encode() not in data
