"""Property-based tests on state invariants (hypothesis).

These stress the contracts the snapshot machinery silently relies on:
export/import must be a fixpoint, and policy evaluation must never
mutate its inputs — under arbitrary route/attribute content, not just
the fixtures used elsewhere.
"""

import ast
import copy
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import quickstart_system
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.config import NeighborConfig, RouterConfig
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.messages import UpdateMessage
from repro.bgp.policy import Filter
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
            with pytest.raises(TypeError):
                theirs.sym["local_pref"] = 1

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


class TestPathAttributesNeverWritten:
    """``PathAttributes`` is shared between the live router, checkpoints
    and clones but carries no runtime write guard (it is built once per
    decoded UPDATE, and a ``__setattr__`` hook would tax the decoder), so
    immutability is checked statically: nothing under ``src/`` assigns
    to one of its slots outside its own ``__init__``."""

    SLOTS = frozenset(PathAttributes.__slots__)

    def _writes(self, tree: ast.AST, sees_class: bool):
        """(line, target) of every attribute store that could hit a
        ``PathAttributes`` slot."""
        own_init = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "PathAttributes":
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                        own_init.update(map(id, ast.walk(item)))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and node.attr in self.SLOTS
                and id(node) not in own_init
            ):
                via_attributes = (
                    isinstance(node.value, ast.Attribute)
                    and node.value.attr == "attributes"
                ) or (
                    isinstance(node.value, ast.Name)
                    and node.value.id in ("attrs", "attributes")
                )
                if sees_class or via_attributes:
                    yield node.lineno, ast.unparse(node)
            elif (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) in ("setattr", "object.__setattr__")
                and sees_class
                and id(node) not in own_init
                # a computed name could be any slot
                and not (
                    len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value not in self.SLOTS
                )
            ):
                yield node.lineno, ast.unparse(node)

    def test_no_slot_assignment_outside_init(self):
        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            source = path.read_text()
            for line, target in self._writes(
                ast.parse(source), sees_class="PathAttributes" in source
            ):
                offenders.append(f"{path.relative_to(root)}:{line}: {target}")
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
        found = [t for _, t in self._writes(ast.parse(planted), sees_class=True)]
        assert found == [
            "a.med", "route.attributes.local_pref", "setattr(a, 'origin', 0)"
        ]
        elsewhere = "def g(route):\n    route.attributes.med = 1\n    route.med = 2\n"
        found = [t for _, t in self._writes(ast.parse(elsewhere), sees_class=False)]
        assert found == ["route.attributes.med"]
