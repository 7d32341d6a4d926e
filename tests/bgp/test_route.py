"""Tests for route objects."""

import pickle

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.route import SOURCE_EBGP, SOURCE_STATIC, Route
from repro.concolic.expr import Var
from repro.concolic.symbolic import SymInt


def make_route(**overrides):
    fields = dict(
        prefix=Prefix("10.0.0.0/8"),
        attributes=PathAttributes(
            as_path=AsPath.from_sequence(65001, 65002),
            next_hop=IPv4Address("10.0.0.1"),
        ),
        source=SOURCE_EBGP,
        peer="p1",
        peer_as=65001,
    )
    fields.update(overrides)
    return Route(**fields)


class TestRoute:
    def test_bad_source_rejected(self):
        with pytest.raises(ValueError):
            make_route(source="carrier-pigeon")

    def test_origin_as(self):
        assert make_route().origin_as == 65002

    def test_origin_as_empty_path(self):
        route = make_route(
            attributes=PathAttributes(next_hop=IPv4Address("10.0.0.1"))
        )
        assert route.origin_as is None

    def test_with_attributes_replaces_only_attributes(self):
        route = make_route()
        new_attrs = route.attributes.replace(med=9)
        changed = route.with_attributes(new_attrs)
        assert changed.attributes.med == 9
        assert changed.peer == route.peer
        assert route.attributes.med is None

    def test_effective_local_pref_priority(self):
        route = make_route()
        assert route.effective_local_pref(default=100) == 100
        route = make_route(
            attributes=route.attributes.replace(local_pref=150)
        )
        assert route.effective_local_pref() == 150
        value = SymInt(Var("lp", 0, 255), 7)
        route = route.with_attributes(
            route.attributes.replace(local_pref=value)
        )
        assert route.effective_local_pref() is value

    def test_effective_med_priority(self):
        route = make_route()
        assert route.effective_med() == 0
        route = make_route(attributes=route.attributes.replace(med=5))
        assert route.effective_med() == 5
        value = SymInt(Var("m", 0, 255), 7)
        route = route.with_attributes(route.attributes.replace(med=value))
        assert route.effective_med() is value

    def test_equality_hash_and_pickle_are_the_seven_fields(self):
        a = make_route()
        seven = (a.prefix, a.attributes, a.source, a.peer, a.peer_as,
                 a.peer_bgp_id, a.received_at)
        assert a == make_route() and hash(a) == hash(make_route())
        # the hash a frozen dataclass has: every field, as a tuple
        assert hash(a) == hash(seven)
        assert a.__reduce_ex__(2) == (Route, seven)
        assert pickle.loads(pickle.dumps(a)) == a
        assert a != make_route(peer="p2")
        assert a != make_route(received_at=1.0)
        assert a.__eq__("a route") is NotImplemented

    def test_replace_copies_every_other_field(self):
        route = make_route(received_at=2.0)
        moved = route.replace(peer="p2")
        assert (moved.peer, route.peer) == ("p2", "p1")
        assert moved.received_at == 2.0
        assert moved.attributes is route.attributes
        with pytest.raises(ValueError):
            route.replace(source="carrier-pigeon")
        with pytest.raises(TypeError):
            route.replace(colour="red")

    def test_a_route_has_no_dict_to_grow(self):
        with pytest.raises(AttributeError):
            make_route().scratch = 1

    def test_describe_mentions_prefix_and_peer(self):
        text = make_route().describe()
        assert "10.0.0.0/8" in text
        assert "p1" in text

    def test_static_route_describe(self):
        route = make_route(source=SOURCE_STATIC, peer=None, peer_as=None)
        assert "local" in route.describe()
