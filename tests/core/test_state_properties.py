"""Property-based tests on state invariants (hypothesis).

These stress the contracts the snapshot machinery silently relies on:
export/import must be a fixpoint, and policy evaluation must never
mutate its inputs — under arbitrary route/attribute content, not just
the fixtures used elsewhere.
"""

import ast
import copy
import pickle
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import quickstart_system
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.config import NeighborConfig, RouterConfig
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.messages import UpdateMessage
from repro.bgp.policy import Filter
from repro.bgp.rib import RibChange
from repro.bgp.route import SOURCE_EBGP, Route
from repro.bgp.router import BGPRouter
from repro.core.live import bgp_process_factory

prefixes = st.builds(
    lambda network, length: Prefix(
        network & (0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF),
        length,
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=8, max_value=28),
)

attributes = st.builds(
    PathAttributes,
    origin=st.sampled_from([0, 1, 2]),
    as_path=st.lists(
        st.integers(min_value=1, max_value=0xFFFE), min_size=1, max_size=5
    ).map(lambda asns: AsPath.from_sequence(*asns)),
    next_hop=st.integers(min_value=1, max_value=0xDFFFFFFF).map(IPv4Address),
    med=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    local_pref=st.one_of(st.none(), st.integers(min_value=0, max_value=500)),
    communities=st.lists(
        st.integers(min_value=0, max_value=2**32 - 1), max_size=4
    ).map(tuple),
)


def fresh_router():
    config = RouterConfig(
        name="prop",
        local_as=65001,
        router_id=IPv4Address("10.0.0.1"),
        neighbors=(NeighborConfig(peer="peer", peer_as=65002),),
    )
    return BGPRouter(config)


class TestCheckpointFixpoint:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(prefixes, attributes), max_size=8))
    def test_export_import_export_is_identity(self, entries):
        """export -> import -> export reproduces the state exactly."""
        router = fresh_router()
        for prefix, attrs in entries:
            route = Route(
                prefix=prefix,
                attributes=attrs,
                source=SOURCE_EBGP,
                peer="peer",
                peer_as=65002,
            )
            router.adj_rib_in["peer"].update(route)
        router.rerun_decision([prefix for prefix, _ in entries])
        first = router.export_state()
        before = pickle.dumps(first)
        clone = BGPRouter(first["config"])
        clone.import_state(first)  # handed over as is: import must not keep it
        second = clone.export_state()
        assert first == second
        assert pickle.dumps(first) == before
        # The routes themselves are shared, and safe to share.
        for ours, theirs in zip(
            first["adj_rib_in"]["peer"], second["adj_rib_in"]["peer"], strict=True
        ):
            assert ours is theirs

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(prefixes, attributes), min_size=1, max_size=8))
    def test_running_a_clone_leaves_the_checkpoint_untouched(self, entries):
        """A clone that withdraws everything it was restored with, run
        for the horizon, changes not one byte of the snapshot it came
        from, nor the live system."""
        live = quickstart_system(seed=3)
        live.converge()
        r2 = live.router("r2")
        for prefix, attrs in entries:
            r2.adj_rib_in["r1"].update(
                Route(
                    prefix=prefix, attributes=attrs, source=SOURCE_EBGP,
                    peer="r1", peer_as=65001,
                )
            )
        r2.rerun_decision([prefix for prefix, _ in entries])
        snapshot = live.coordinator.capture("r2")
        snapshot_bytes = pickle.dumps(snapshot)
        live_state = {r.name: r.export_state() for r in live.routers()}

        clone = snapshot.clone(bgp_process_factory, seed=5)
        withdrawn = tuple(dict.fromkeys(prefix for prefix, _ in entries))
        clone.processes["r2"].handle_raw(
            "r1", UpdateMessage(withdrawn=withdrawn).encode()
        )
        clone.run(until=clone.sim.now + 30.0)
        assert all(
            clone.processes["r2"].adj_rib_in["r1"].get(prefix) is None
            for prefix in withdrawn
        )

        assert pickle.dumps(snapshot) == snapshot_bytes
        assert {r.name: r.export_state() for r in live.routers()} == live_state

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(prefixes, attributes), min_size=1, max_size=8))
    def test_loc_rib_subset_of_candidates(self, entries):
        """Every selected route is one of the candidates offered."""
        router = fresh_router()
        for prefix, attrs in entries:
            router.adj_rib_in["peer"].update(
                Route(
                    prefix=prefix, attributes=attrs, source=SOURCE_EBGP,
                    peer="peer", peer_as=65002,
                )
            )
        router.rerun_decision([prefix for prefix, _ in entries])
        for selected in router.loc_rib.routes():
            stored = router.adj_rib_in["peer"].get(selected.prefix)
            assert stored is selected


class TestPolicyPurity:
    FILTERS = [
        "filter f { accept; }",
        "filter f { reject; }",
        "filter f { bgp_local_pref = 250; accept; }",
        "filter f { if bgp_path.len > 3 then reject; accept; }",
        "filter f { bgp_community.add((65000, 1)); accept; }",
        "filter f { if net ~ [ 10.0.0.0/8+ ] then { bgp_med = 1; accept; } reject; }",
    ]

    @settings(max_examples=40, deadline=None)
    @given(
        prefixes,
        attributes,
        st.sampled_from(range(len(FILTERS))),
    )
    def test_evaluate_never_mutates_route(self, prefix, attrs, index):
        policy = Filter.compile(self.FILTERS[index])
        route = Route(
            prefix=prefix, attributes=attrs, source=SOURCE_EBGP,
            peer="p", peer_as=65002,
        )
        snapshot = copy.deepcopy(route.attributes)
        policy.evaluate(route)
        assert route.attributes == snapshot

    @settings(max_examples=40, deadline=None)
    @given(prefixes, attributes, st.sampled_from(range(len(FILTERS))))
    def test_evaluate_deterministic(self, prefix, attrs, index):
        policy = Filter.compile(self.FILTERS[index])
        route = Route(
            prefix=prefix, attributes=attrs, source=SOURCE_EBGP,
            peer="p", peer_as=65002,
        )
        first = policy.evaluate(route)
        second = policy.evaluate(route)
        assert first.accepted == second.accepted
        assert first.attributes == second.attributes


def attribute_stores(tree):
    """Every attribute store, ``del`` and ``setattr`` under ``tree``, as
    (line, text, receiver, name or None when computed, owner, init_of).

    ``owner`` is the class the receiver provably is: ``self`` in one of
    its methods, a parameter or local annotated with it, a local built by
    calling it — where the module defines that class or imports it by
    name.  ``Any``, ``object``, unions, quoted and dotted annotations
    prove nothing: the owner is None.  ``init_of`` is the class whose
    ``__init__`` holds the store."""
    classes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            classes.add(node.name)
        elif isinstance(node, ast.ImportFrom):
            classes.update(alias.asname or alias.name for alias in node.names)
    classes -= {"Any", "object"}

    def named_class(annotation):
        if isinstance(annotation, ast.Name) and annotation.id in classes:
            return annotation.id
        return None

    found = []

    def visit(node, known, method_of, init_of):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                visit(child, known, node.name, init_of)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            known = dict(known)
            params = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
            for param in params:
                known[param.arg] = named_class(param.annotation)
            decorators = {ast.unparse(d) for d in getattr(node, "decorator_list", ())}
            if method_of and params and "staticmethod" not in decorators:
                known[params[0].arg] = method_of
                if getattr(node, "name", None) == "__init__":
                    init_of = method_of
            for inner in ast.walk(node):
                if isinstance(inner, ast.AnnAssign) and isinstance(inner.target, ast.Name):
                    known[inner.target.id] = named_class(inner.annotation)
                elif isinstance(inner, ast.Assign) and isinstance(inner.value, ast.Call):
                    for target in inner.targets:
                        if isinstance(target, ast.Name):
                            known[target.id] = named_class(inner.value.func)
            method_of = None
        receiver = name = None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            receiver, name = node.value, node.attr
        elif (isinstance(node, ast.Call) and node.args
              and ast.unparse(node.func) in ("setattr", "object.__setattr__")):
            receiver = node.args[0]
            second = node.args[1] if len(node.args) > 1 else None
            name = second.value if isinstance(second, ast.Constant) else None
        if receiver is not None:
            owner = known.get(receiver.id) if isinstance(receiver, ast.Name) else None
            found.append((node.lineno, ast.unparse(node), receiver, name, owner,
                          init_of))
        for child in ast.iter_child_nodes(node):
            visit(child, known, method_of, init_of)

    visit(tree, {}, None, None)
    return found


class TestPathAttributesNeverWritten:
    """``PathAttributes``, ``Route`` and ``RibChange`` are shared between
    the live router, checkpoints and clones but carry no runtime write
    guard (one is built per decoded UPDATE, per route, per Loc-RIB change,
    and a ``__setattr__`` hook would tax every one), so immutability is
    checked statically: nothing under ``src/`` assigns to one of their
    slots outside the class's own ``__init__``.

    The match is scoped by class.  A store to an object that is provably
    of another class (``self`` in its method, a parameter or local
    annotated with, or built by calling, a class the module defines or
    imports by name) writes that class.  Any other store to a slot's
    name counts where the module names the class, and a store through
    ``attrs``, ``attributes`` or ``x.attributes`` counts for
    ``PathAttributes`` everywhere."""

    GUARDED = {cls.__name__: frozenset(cls.__slots__)
               for cls in (PathAttributes, Route, RibChange)}

    def _writes(self, source: str):
        """(line, target) of every store that could hit a guarded slot."""
        named = {cls for cls in self.GUARDED if re.search(rf"\b{cls}\b", source)}
        for line, text, receiver, name, owner, init_of in attribute_stores(
            ast.parse(source)
        ):
            for cls, slots in self.GUARDED.items():
                if (name is not None and name not in slots) or init_of == cls:
                    continue
                if owner is not None:
                    hit = owner == cls
                else:
                    hit = cls in named or cls == "PathAttributes" and (
                        isinstance(receiver, ast.Attribute)
                        and receiver.attr == "attributes"
                        or isinstance(receiver, ast.Name)
                        and receiver.id in ("attrs", "attributes")
                    )
                if hit:
                    yield line, text
                    break

    def test_no_slot_assignment_outside_init(self):
        root = Path(repro.__file__).parent
        offenders = [
            f"{path.relative_to(root)}:{line}: {target}"
            for path in sorted(root.rglob("*.py"))
            for line, target in self._writes(path.read_text())
        ]
        assert offenders == []

    def test_the_walk_sees_a_planted_write(self):
        planted = (
            "from repro.bgp.attributes import PathAttributes\n"
            "def f(route, a):\n"
            "    a.med = 3\n"
            "    route.attributes.local_pref += 1\n"
            "    setattr(a, 'origin', 0)\n"
            "    setattr(a, 'unrelated', 0)\n"
        )
        found = [t for _, t in self._writes(planted)]
        assert found == [
            "a.med", "route.attributes.local_pref", "setattr(a, 'origin', 0)"
        ]
        elsewhere = "def g(route):\n    route.attributes.med = 1\n    route.med = 2\n"
        found = [t for _, t in self._writes(elsewhere)]
        assert found == ["route.attributes.med"]

    def test_the_match_is_scoped_by_class(self):
        planted = (
            "from typing import Any\n"
            "from repro.bgp.route import Route\n"
            "from repro.report import Report\n"
            "class Frame:\n"
            "    def __init__(self, route):\n"
            "        self.prefix = route.prefix\n"
            "    def reset(self):\n"
            "        self.med = None\n"
            "def write(f: Frame, route, change: 'RibChange', x: Any, y: object,\n"
            "          z: Route | None, w: Frame | None, v: lib.Frame):\n"
            "    f.med = 1\n"
            "    f.communities = []\n"
            "    setattr(f, 'origin', 0)\n"
            "    route.peer = 'x'\n"
            "    change.new = None\n"
            "    report = Report()\n"
            "    report.prefix = 'p'\n"
            "    made = make()\n"
            "    made.prefix = 'p'\n"
            "    x.peer = 1\n"
            "    y.peer_bgp_id = None\n"
            "    z.peer_as = 1\n"
            "    w.source = 's'\n"
            "    v.received_at = 0.0\n"
            "class Route:\n"
            "    def __init__(self, peer):\n"
            "        self.peer = peer\n"
            "    def touch(self):\n"
            "        self.attributes = None\n"
        )
        found = [t for _, t in self._writes(planted)]
        assert found == [
            "route.peer", "change.new", "made.prefix", "x.peer",
            "y.peer_bgp_id", "z.peer_as", "w.source", "v.received_at",
            "self.attributes",
        ]
