"""Compiled filters against the tree-walking reference, and the ASCII
lexer against the Unicode one (both references in ``policy_reference``).

A compiled filter must agree with the walk on the verdict,
``fell_through``, the attributes (down to handing back the route's own
set when nothing changed), the error it raises and every branch a
symbolic value records, in order; on concrete routes it must also agree
with the differential oracle's interpreter.
"""

import ast
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from policy_reference import evaluate as walk
from policy_reference import tokenize as unicode_tokenize

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.policy import Filter
from repro.bgp.policy_lang import (
    AcceptStmt,
    AsSet,
    AssignStmt,
    AttributeRef,
    BinaryOp,
    BoolLiteral,
    FieldRef,
    FilterDef,
    IfStmt,
    IntLiteral,
    MethodStmt,
    PairLiteral,
    PolicySyntaxError,
    PrefixLiteral,
    PrefixPattern,
    PrefixSet,
    RejectStmt,
    UnaryOp,
    parse_single_filter,
    tokenize,
)
from repro.bgp.route import SOURCE_EBGP, SOURCE_IBGP, SOURCE_STATIC, Route
from repro.concolic.expr import Var
from repro.concolic.symbolic import PathRecorder, SymInt
from repro.differential.reference import _PolicyMachine

# -- generated filters -------------------------------------------------------

NUMBERS = (0, 1, 2, 3, 8, 16, 24, 50, 100, 120, 200, 666, 65001, 65535)
READS = ("bgp_origin", "bgp_med", "bgp_local_pref", "peer_as", "source")
PREFIXES = (Prefix("0.0.0.0/0"), Prefix("10.0.0.0/8"), Prefix("10.1.0.0/16"),
            Prefix("10.1.2.0/24"), Prefix("192.168.0.0/16"))
ASNS = (3, 666, 65001, 65002)
COMMUNITIES = (65535 << 16 | 1, 65535 << 16 | 2, 65001 << 16 | 7, 7)

numbers = st.sampled_from(NUMBERS).map(IntLiteral)
pairs = st.builds(PairLiteral, st.sampled_from((65001, 65535)).map(IntLiteral),
                  st.sampled_from((1, 2, 7)).map(IntLiteral))
prefix_sets = st.lists(
    st.builds(lambda prefix, low, span: PrefixPattern(prefix, low, min(32, low + span)),
              st.sampled_from(PREFIXES), st.sampled_from((0, 8, 16, 24)),
              st.sampled_from((0, 8, 16))),
    min_size=1, max_size=3,
).map(lambda patterns: PrefixSet(tuple(patterns)))
prefixes = st.sampled_from(PREFIXES).map(PrefixLiteral)
as_sets = st.lists(st.sampled_from(ASNS), min_size=1, max_size=3).map(
    lambda asns: AsSet(tuple(asns)))
booleans = st.sampled_from((BoolLiteral(True), BoolLiteral(False)))

# What a parsed, well-typed filter says.
values = st.recursive(
    numbers | pairs | st.sampled_from(READS).map(AttributeRef)
    | st.sampled_from([FieldRef(AttributeRef("bgp_path"), field)
                       for field in ("len", "first", "last")]
                      + [FieldRef(AttributeRef("net"), "len")]),
    lambda inner: st.builds(BinaryOp, st.sampled_from(("+", "-")), inner, inner)
    | st.builds(UnaryOp, st.just("-"), inner),
    max_leaves=4,
)
conditions = st.recursive(
    st.builds(BinaryOp, st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
              values, values)
    | st.builds(BinaryOp, st.just("~"), st.just(AttributeRef("net")),
                prefix_sets | prefixes)
    | st.builds(BinaryOp, st.just("~"), st.just(AttributeRef("bgp_path")), as_sets)
    | st.builds(BinaryOp, st.just("~"), st.just(AttributeRef("bgp_community")),
                values)
    | booleans,
    lambda inner: st.builds(BinaryOp, st.sampled_from(("&&", "||")), inner, inner)
    | st.builds(UnaryOp, st.just("!"), inner),
    max_leaves=6,
)
# Anything the AST can hold: type and name errors, values in odd places.
anything = st.recursive(
    numbers | pairs | prefix_sets | as_sets | prefixes | booleans
    | st.sampled_from(READS + ("net", "bgp_path", "bgp_community", "nonsense")).map(
        AttributeRef),
    lambda inner: st.builds(BinaryOp, st.sampled_from(
        ("&&", "||", "~", "=", "!=", "<", ">=", "+", "-", "*")), inner, inner)
    | st.builds(UnaryOp, st.sampled_from(("!", "-", "?")), inner)
    | st.builds(FieldRef, inner, st.sampled_from(("len", "first", "last", "bogus")))
    | st.builds(PairLiteral, inner, inner),
    max_leaves=5,
)


def filters(expressions, tests, targets, methods):
    simple = (st.sampled_from((AcceptStmt(), RejectStmt()))
              | st.builds(AssignStmt, targets, expressions) | methods)
    statements = st.recursive(
        simple, lambda inner: st.builds(
            IfStmt, tests, st.lists(inner, max_size=3).map(tuple),
            st.lists(inner, max_size=3).map(tuple)),
        max_leaves=8,
    )
    # Half the bodies end in ``accept``, so results carry attributes.
    return st.tuples(st.lists(statements, max_size=5), st.booleans()).map(
        lambda drawn: FilterDef("f", tuple(drawn[0]) + (AcceptStmt(),) * drawn[1]))


community_methods = st.builds(MethodStmt, st.just("bgp_community"),
                              st.sampled_from(("add", "delete")), values | pairs)
typed_targets = st.sampled_from(("bgp_local_pref", "bgp_med", "bgp_origin"))
typed_filters = filters(
    values, conditions, typed_targets,
    community_methods
    | st.builds(MethodStmt, st.just("bgp_path"), st.just("prepend"), numbers),
)
wild_filters = filters(
    anything, anything,
    st.sampled_from(("bgp_local_pref", "bgp_med", "bgp_origin", "peer_as")),
    st.builds(MethodStmt, st.sampled_from(("bgp_community", "bgp_path", "net")),
              st.sampled_from(("add", "delete", "prepend", "frob")),
              st.none() | anything),
)
# The oracle reads ``bgp_path`` after a prepend as the prepended path
# and the simulator as the route's, so its filters do not prepend.
oracle_filters = filters(values, conditions, typed_targets, community_methods)

# -- routes ------------------------------------------------------------------

# The fields a decoded concolic input can make symbolic, each drawn
# around the values the filters compare it with.
SYMBOLIC = {
    "local_pref": st.sampled_from(NUMBERS),
    "med": st.sampled_from(NUMBERS),
    "origin": st.sampled_from((0, 1, 2)),
}


@st.composite
def routes(draw, symbolic=False):
    attributes = PathAttributes(
        origin=draw(st.sampled_from((0, 1, 2))),
        as_path=AsPath.from_sequence(*draw(st.lists(st.sampled_from(ASNS),
                                                    max_size=4))),
        next_hop=IPv4Address("10.0.0.1"),
        med=draw(st.none() | st.sampled_from(NUMBERS)),
        local_pref=draw(st.none() | st.sampled_from(NUMBERS)),
        communities=tuple(draw(st.lists(st.sampled_from(COMMUNITIES), max_size=3))),
    )
    if symbolic:
        values = {
            name: SymInt(Var(name, 0, 2**32 - 1), draw(concrete))
            for name, concrete in SYMBOLIC.items() if draw(st.booleans())
        }
        if draw(st.booleans()):  # a symbolic community from the wire
            community = SymInt(Var("c", 0, 2**32 - 1),
                               draw(st.sampled_from(COMMUNITIES)))
            values["communities"] = attributes.communities + (community,)
        attributes = attributes.replace(**values)
    source = draw(st.sampled_from((SOURCE_EBGP, SOURCE_IBGP, SOURCE_STATIC)))
    return Route(
        prefix=draw(st.sampled_from(PREFIXES[1:])), attributes=attributes,
        source=source, peer=None if source == SOURCE_STATIC else "p",
        peer_as=draw(st.none() | st.sampled_from(ASNS)),
    )


def _plain(text):
    """``text`` without module paths and addresses in default reprs."""
    return re.sub(r"<(?:\w+\.)*(\w+) object at 0x[0-9a-f]+>", r"<\1>", text)


def observe(run, route):
    """What one run comes to, and the branches it recorded, in order."""
    with PathRecorder() as recorder:
        try:
            result = run()
        except Exception as error:  # the error is the outcome compared
            outcome = ("raises", type(error).__name__, _plain(str(error)))
        else:
            attributes = result.attributes
            outcome = (
                result.accepted, result.fell_through,
                attributes is route.attributes,
                _plain(repr([getattr(attributes, name)
                             for name in PathAttributes._FIELDS])),
            )
    return outcome, recorder.branches


class TestCompiledEqualsTheWalk:
    @settings(max_examples=150, deadline=None)
    @given(typed_filters | wild_filters, routes() | routes(symbolic=True),
           st.sampled_from((100, 77)))
    def test_same_outcome_and_branches(self, definition, route, local_pref):
        compiled = Filter(definition)
        assert observe(lambda: compiled.evaluate(route, local_pref), route) \
            == observe(lambda: walk(definition, route, local_pref), route)

    @settings(max_examples=100, deadline=None)
    @given(typed_filters, routes(symbolic=True))
    def test_symbolic_routes_record_the_same_branches(self, definition, route):
        """Well-typed filters over symbolic routes: where the branches are."""
        compiled = Filter(definition)
        assert observe(lambda: compiled.evaluate(route), route) \
            == observe(lambda: walk(definition, route), route)

    @settings(max_examples=100, deadline=None)
    @given(oracle_filters, routes(), st.sampled_from((100, 77)))
    def test_concrete_runs_agree_with_the_oracle(self, definition, route,
                                                 local_pref):
        result = Filter(definition).evaluate(route, local_pref)
        accepted, attributes = _PolicyMachine(definition, local_pref).run(
            route.prefix, route.attributes, route.source, route.peer_as)
        assert result.accepted == accepted
        assert result.attributes.key() == attributes.key()


class TestCasesTheGeneratorsRarelyDraw:
    """Deterministic cases for what the properties above seldom draw."""

    ROUTE = Route(prefix=Prefix("10.1.0.0/16"),
                  attributes=PathAttributes(as_path=AsPath.from_sequence(1)),
                  source=SOURCE_EBGP, peer="p", peer_as=1)

    @pytest.mark.parametrize("default", [77, 100])
    def test_an_absent_local_pref_reads_as_the_default(self, default):
        policy = Filter.compile(
            "filter f { if bgp_local_pref = 77 then accept; reject; }")
        assert self.ROUTE.attributes.local_pref is None
        result = policy.evaluate(self.ROUTE, default)
        assert result.accepted is (default == 77)
        assert walk(policy.definition, self.ROUTE, default).accepted \
            is result.accepted

    def test_writing_back_a_symbolic_value_compares_nothing(self):
        """A write whose value is symbolic counts as a change without a
        comparison, which would record a branch the filter never took:
        whether it is the very object already there or a new one."""
        policy = Filter.compile(
            "filter f { bgp_med = bgp_med + 0; "
            "bgp_local_pref = bgp_local_pref; accept; }")
        route = self.ROUTE.with_attributes(self.ROUTE.attributes.replace(
            med=SymInt(Var("med", 0, 2**32 - 1), 5),
            local_pref=SymInt(Var("lp", 0, 2**32 - 1), 100),
        ))
        compiled = observe(lambda: policy.evaluate(route), route)
        assert compiled == observe(
            lambda: walk(policy.definition, route), route)
        assert compiled[1] == []


class TestFilterObject:
    SOURCE = ("filter f { if net ~ [ 10.0.0.0/8+ ] && bgp_path.len < 4 "
              "then { bgp_community.add((65001, 7)); accept; } reject; }")
    ROUTE = Route(prefix=Prefix("10.1.0.0/16"),
                  attributes=PathAttributes(as_path=AsPath.from_sequence(1, 2)),
                  source=SOURCE_EBGP, peer="p", peer_as=1)

    def test_pickles_as_its_definition(self):
        policy = Filter.compile(self.SOURCE)
        assert policy.__reduce__() == (Filter, (policy.definition,))
        restored = pickle.loads(pickle.dumps(policy))
        assert restored.definition == policy.definition
        assert restored.evaluate(self.ROUTE) == policy.evaluate(self.ROUTE)

    def test_a_run_writes_nothing_to_the_filter(self):
        """Compiled in ``__init__`` and shared by the live system, its
        checkpoints and every clone: a run leaves every field as it was."""
        policy = Filter.compile(self.SOURCE)
        before = dict(vars(policy))
        policy.evaluate(self.ROUTE)
        policy.evaluate(self.ROUTE.replace(prefix=Prefix("192.168.0.0/16")))
        assert vars(policy).keys() == before.keys()
        assert all(vars(policy)[name] is value for name, value in before.items())


# -- the lexer ---------------------------------------------------------------


def lex(tokenizer, source):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenizer(source)]
    except PolicySyntaxError as error:
        return ("error", str(error), error.line, error.column)


class TestAsciiLexer:
    def test_a_superscript_digit_is_a_syntax_error(self):
        source = "filter f { bgp_med = ²; accept; }"
        with pytest.raises(PolicySyntaxError, match="'²'") as caught:
            Filter.compile(source)
        assert (caught.value.line, caught.value.column) == (1, source.index("²") + 1)

    def test_a_non_ascii_digit_in_a_length_range_is_a_syntax_error(self):
        source = "filter f { if net ~ [10.0.0.0/8{9,٣}] then accept; }"
        with pytest.raises(PolicySyntaxError, match="'٣'") as caught:
            parse_single_filter(source)
        assert (caught.value.line, caught.value.column) == (1, source.index("٣") + 1)

    @settings(max_examples=500, deadline=None)
    @given(st.text("abfilrtx_ 019#\t\r\n&|!=<>~{}()[];,.+-/$²٣߂éßλ", max_size=40))
    def test_same_tokens_or_an_error_where_they_part(self, source):
        new, old = lex(tokenize, source), lex(unicode_tokenize, source)
        if new == old:
            return
        # Only a non-ASCII letter or digit outside a comment parts them:
        # the old lexer took it for part of a name or number.
        kind, message, line, column = new
        assert kind == "error"
        char = ast.literal_eval(
            message.split("unexpected character ", 1)[1].rsplit(" (line", 1)[0])
        assert not char.isascii() and char.isalnum()
        if old[0] == "error":
            assert (old[2], old[3]) > (line, column)
        else:
            assert any(
                at_line == line and start <= column < start + len(text)
                and char in text
                for _, text, at_line, start in old
            )
