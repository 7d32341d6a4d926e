"""Tests for the filter compiler."""

import pytest

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.policy import (
    ACCEPT_ALL,
    Filter,
    PolicyRuntimeError,
    community_value,
)
from repro.bgp.route import SOURCE_EBGP, SOURCE_STATIC, Route


def make_route(
    prefix="10.1.0.0/16",
    asns=(65001, 65002),
    local_pref=None,
    med=None,
    origin=Origin.IGP,
    communities=(),
    source=SOURCE_EBGP,
    peer_as=65001,
):
    return Route(
        prefix=Prefix(prefix),
        attributes=PathAttributes(
            origin=origin,
            as_path=AsPath.from_sequence(*asns),
            next_hop=IPv4Address("10.0.0.1"),
            local_pref=local_pref,
            med=med,
            communities=tuple(communities),
        ),
        source=source,
        peer="p1" if source == SOURCE_EBGP else None,
        peer_as=peer_as if source == SOURCE_EBGP else None,
    )


def run(source, route, **kwargs):
    return Filter.compile(source).evaluate(route, **kwargs)


class TestVerdicts:
    def test_accept_all(self):
        assert ACCEPT_ALL.evaluate(make_route()).accepted

    def test_reject(self):
        result = run("filter f { reject; }", make_route())
        assert not result.accepted

    def test_fall_through_rejects_and_flags(self):
        result = run("filter f { bgp_med = 5; }", make_route())
        assert not result.accepted
        assert result.fell_through

    def test_first_verdict_wins(self):
        result = run("filter f { accept; reject; }", make_route())
        assert result.accepted


class TestConditions:
    def test_prefix_set_match(self):
        source = "filter f { if net ~ [ 10.0.0.0/8+ ] then accept; reject; }"
        assert run(source, make_route("10.1.0.0/16")).accepted
        assert not run(source, make_route("192.168.0.0/16")).accepted

    def test_prefix_set_length_range(self):
        source = (
            "filter f { if net ~ [ 10.0.0.0/8{16,24} ] then accept; reject; }"
        )
        assert run(source, make_route("10.1.0.0/16")).accepted
        assert not run(source, make_route("10.0.0.0/8")).accepted

    def test_exact_prefix_match(self):
        source = "filter f { if net ~ [ 10.1.0.0/16 ] then accept; reject; }"
        assert run(source, make_route("10.1.0.0/16")).accepted
        assert not run(source, make_route("10.2.0.0/16")).accepted

    def test_as_path_membership(self):
        source = "filter f { if bgp_path ~ [ 666 ] then reject; accept; }"
        assert run(source, make_route(asns=(65001, 65002))).accepted
        assert not run(source, make_route(asns=(65001, 666))).accepted

    def test_path_length(self):
        source = "filter f { if bgp_path.len > 3 then reject; accept; }"
        assert run(source, make_route(asns=(1, 2, 3))).accepted
        assert not run(source, make_route(asns=(1, 2, 3, 4))).accepted

    def test_path_first_and_last(self):
        source = "filter f { if bgp_path.first = 65001 then accept; reject; }"
        assert run(source, make_route(asns=(65001, 5))).accepted
        source = "filter f { if bgp_path.last = 5 then accept; reject; }"
        assert run(source, make_route(asns=(65001, 5))).accepted

    def test_community_match(self):
        value = community_value(65000, 99)
        source = (
            "filter f { if bgp_community ~ (65000, 99) then accept; reject; }"
        )
        assert run(source, make_route(communities=(value,))).accepted
        assert not run(source, make_route()).accepted

    def test_local_pref_default_read(self):
        source = "filter f { if bgp_local_pref = 100 then accept; reject; }"
        assert run(source, make_route(local_pref=None)).accepted
        assert run(
            "filter f { if bgp_local_pref = 77 then accept; reject; }",
            make_route(local_pref=None),
            default_local_pref=77,
        ).accepted

    def test_med_default_zero(self):
        source = "filter f { if bgp_med = 0 then accept; reject; }"
        assert run(source, make_route(med=None)).accepted

    def test_peer_as_readable(self):
        source = "filter f { if peer_as = 65001 then accept; reject; }"
        assert run(source, make_route()).accepted

    def test_source_readable(self):
        source = "filter f { if source = 0 then accept; reject; }"
        assert run(source, make_route(source=SOURCE_STATIC)).accepted
        assert not run(source, make_route(source=SOURCE_EBGP)).accepted

    def test_boolean_combinators(self):
        source = (
            "filter f { if bgp_med = 0 && bgp_path.len < 5 "
            "then accept; reject; }"
        )
        assert run(source, make_route(med=None)).accepted
        source = (
            "filter f { if bgp_med = 9 || bgp_path.len = 2 "
            "then accept; reject; }"
        )
        assert run(source, make_route()).accepted

    def test_not_operator(self):
        source = "filter f { if ! (bgp_med = 5) then accept; reject; }"
        assert run(source, make_route(med=0)).accepted
        assert not run(source, make_route(med=5)).accepted

    def test_arithmetic_in_condition(self):
        source = "filter f { if bgp_med + 10 = 15 then accept; reject; }"
        assert run(source, make_route(med=5)).accepted

    def test_else_branch(self):
        source = (
            "filter f { if bgp_med = 1 then reject; else accept; }"
        )
        assert run(source, make_route(med=0)).accepted


class TestActions:
    def test_set_local_pref(self):
        result = run(
            "filter f { bgp_local_pref = 250; accept; }", make_route()
        )
        assert result.attributes.local_pref == 250

    def test_set_med(self):
        result = run("filter f { bgp_med = 42; accept; }", make_route())
        assert result.attributes.med == 42

    def test_set_origin(self):
        result = run(
            "filter f { bgp_origin = 2; accept; }", make_route()
        )
        assert result.attributes.origin == 2

    def test_community_add(self):
        result = run(
            "filter f { bgp_community.add((65000, 7)); accept; }",
            make_route(),
        )
        assert community_value(65000, 7) in result.attributes.communities

    def test_community_add_idempotent(self):
        value = community_value(65000, 7)
        result = run(
            "filter f { bgp_community.add((65000, 7)); accept; }",
            make_route(communities=(value,)),
        )
        assert result.attributes.communities.count(value) == 1

    def test_community_delete(self):
        value = community_value(65000, 7)
        result = run(
            "filter f { bgp_community.delete((65000, 7)); accept; }",
            make_route(communities=(value, 5)),
        )
        assert value not in result.attributes.communities
        assert 5 in result.attributes.communities

    def test_path_prepend(self):
        result = run(
            "filter f { bgp_path.prepend(65009); accept; }", make_route()
        )
        assert result.attributes.as_path.first_as() == 65009

    def test_rejected_route_keeps_original_attributes(self):
        result = run(
            "filter f { bgp_local_pref = 9; reject; }",
            make_route(local_pref=100),
        )
        assert result.attributes.local_pref == 100

    def test_input_route_never_mutated(self):
        route = make_route(local_pref=100)
        run("filter f { bgp_local_pref = 9; accept; }", route)
        assert route.attributes.local_pref == 100

    def test_no_changes_returns_same_attributes(self):
        route = make_route()
        result = run("filter f { accept; }", route)
        assert result.attributes is route.attributes


class TestRuntimeErrors:
    def test_unknown_attribute(self):
        with pytest.raises(PolicyRuntimeError):
            run("filter f { if nonsense = 1 then accept; reject; }",
                make_route())

    def test_assign_to_readonly(self):
        with pytest.raises(PolicyRuntimeError):
            run("filter f { peer_as = 5; accept; }", make_route())

    def test_unknown_method(self):
        with pytest.raises(PolicyRuntimeError):
            run("filter f { bgp_community.frobnicate((1,2)); accept; }",
                make_route())

    def test_bad_match_types(self):
        with pytest.raises(PolicyRuntimeError):
            run("filter f { if bgp_med ~ [ 10.0.0.0/8 ] then accept; reject; }",
                make_route())


class TestSymbolicShadows:
    def test_shadowed_local_pref_read(self):
        route = make_route(local_pref=100)
        route = route.replace(sym={"local_pref": 55})
        result = run(
            "filter f { if bgp_local_pref = 55 then accept; reject; }", route
        )
        assert result.accepted

    def test_shadowed_prefix_match(self):
        route = make_route("10.1.0.0/16")
        # Shadow pretends the prefix is 192.168/16.
        route = route.replace(
            sym={"pfx_network": 0xC0A80000, "pfx_length": 16}
        )
        source = (
            "filter f { if net ~ [ 192.168.0.0/16 ] then accept; reject; }"
        )
        assert run(source, route).accepted


class TestResultAllocatesOnlyOnChange:
    """The accepted route's attribute set is the input *object* unless
    the filter changed a value: one allocation and one attribute-cache
    probe fewer per evaluated route."""

    CARRIES = dict(local_pref=120, med=30,
                   communities=(0xFDE90007, 0xFDE90008))

    @pytest.mark.parametrize("source", [
        "filter f { accept; }",
        "filter f { if bgp_med = 30 then accept; reject; }",
        # writes of the value already there
        "filter f { bgp_local_pref = 120; bgp_med = 30; bgp_origin = 0; accept; }",
        "filter f { bgp_community.add((65001,7)); accept; }",
        "filter f { bgp_community.delete((65001,9)); accept; }",
    ])
    def test_unchanged_values_return_the_input_set(self, source):
        route = make_route(**self.CARRIES)
        assert run(source, route).attributes is route.attributes

    @pytest.mark.parametrize("source, field, value", [
        ("filter f { bgp_local_pref = 121; accept; }", "local_pref", 121),
        ("filter f { bgp_med = 0; accept; }", "med", 0),
        ("filter f { bgp_origin = 2; accept; }", "origin", 2),
        ("filter f { bgp_community.add((65001,9)); accept; }", "communities",
         (0xFDE90007, 0xFDE90008, 0xFDE90009)),
        ("filter f { bgp_community.delete((65001,7)); accept; }",
         "communities", (0xFDE90008,)),
    ])
    def test_a_changed_value_builds_one_new_set(self, source, field, value):
        route = make_route(**self.CARRIES)
        result = run(source, route).attributes
        assert result is not route.attributes
        assert getattr(result, field) == value
        assert result == route.attributes.replace(**{field: value})

    def test_writing_an_absent_attribute_sets_it(self):
        route = make_route()
        result = run("filter f { bgp_med = 0; accept; }", route).attributes
        assert route.attributes.med is None and result.med == 0

    def test_a_symbolic_value_is_carried_and_never_compared(self):
        """``==`` on a symbolic value records a branch the filter did
        not take: assembling the result must not add one."""
        from repro.concolic.expr import Var
        from repro.concolic.symbolic import PathRecorder, SymInt

        shadow = SymInt(Var("m", 0, 255), 30)
        route = make_route(**self.CARRIES).replace(sym={"med": shadow})
        with PathRecorder() as recorder:
            result = run("filter f { accept; }", route).attributes
        assert recorder.branches == []
        assert result.med is shadow
        assert result is not route.attributes
        carried = route.replace(attributes=result, sym={})
        with PathRecorder() as recorder:
            again = run("filter f { accept; }", carried).attributes
        assert recorder.branches == []
        assert again is result
