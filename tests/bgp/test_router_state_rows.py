"""A router's exported state pickles as rows over one object per value.

``BGPRouter.export_state`` returns a dict whose pickle writes each
Adj-RIB-In as one ``(prefix, attributes, received_at)`` row per route
under the provenance its peer's routes share, and the Loc-RIB as row
numbers into those rows (``bgp/router.py::_RouterState``).  These tests
hold the loaded state equal to the exported one, route for route and
field for field, with Loc-RIB and Adj-RIB-In routes one object again;
keep routes that fit no row exact; and make a row carrying an invalid
value fail to load, as a whole route carrying it does.
"""

import pickle

import pytest

from repro import LiveSystem
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.route import SOURCE_EBGP, SOURCE_IBGP, Route
from repro.concolic.expr import Var
from repro.concolic.symbolic import SymInt
from repro.core.live import bgp_process_factory
from repro.core.snapshot import Snapshot
from repro.differential.extract import capture_canonical_ribs
from repro.topo.demo27 import build_demo27
from repro.topo.gadgets import GADGETS
from repro.topo.internet import TopologyParams, build_internet

PROTOCOLS = range(2, pickle.HIGHEST_PROTOCOL + 1)


def exact(route):
    """Every field of ``route``, with its type."""
    return tuple(
        (name, type(getattr(route, name)), repr(getattr(route, name)))
        for name in Route.__slots__
    )


def shared_routes(state):
    """(peer, prefix) of every Loc-RIB route that is its peer's
    Adj-RIB-In route object."""
    held = {
        (peer, route.prefix): route
        for peer, routes in state["adj_rib_in"].items()
        for route in routes
    }
    return {
        (route.peer, route.prefix) for route in state["loc_rib"]
        if held.get((route.peer, route.prefix)) is route
    }


def canonical_ribs(snapshot: Snapshot):
    clone = snapshot.clone(bgp_process_factory)
    return capture_canonical_ribs(LiveSystem(clone, []))


def assert_round_trips(snapshot: Snapshot, protocol=pickle.DEFAULT_PROTOCOL):
    restored = pickle.loads(pickle.dumps(snapshot, protocol))
    assert sorted(restored.checkpoints) == sorted(snapshot.checkpoints)
    for name, checkpoint in snapshot.checkpoints.items():
        state = checkpoint.state
        loaded = restored.checkpoints[name].state
        # A config's filters compare by identity: compare it pickled.
        assert ({**loaded, "config": None} == {**state, "config": None}), name
        assert (pickle.dumps(loaded["config"])
                == pickle.dumps(state["config"])), name
        assert list(loaded) == list(state), name  # key order kept
        for peer, routes in state["adj_rib_in"].items():
            assert ([exact(r) for r in loaded["adj_rib_in"][peer]]
                    == [exact(r) for r in routes]), (name, peer)
        assert ([exact(r) for r in loaded["loc_rib"]]
                == [exact(r) for r in state["loc_rib"]]), name
        assert shared_routes(loaded) == shared_routes(state), name
    assert canonical_ribs(restored) == canonical_ribs(snapshot)
    return restored


def converged(configs, links, seed=0, until=None):
    live = LiveSystem.build(configs, links, seed=seed)
    if until is None:
        live.converge(deadline=600)
    else:
        live.run(until=until)
    return live


@pytest.fixture(scope="module")
def demo27_live():
    topology = build_demo27()
    return converged(topology.configs, topology.links, seed=27), topology


class TestRoundTrip:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_demo27(self, demo27_live, protocol):
        live, topology = demo27_live
        assert_round_trips(
            live.coordinator.capture(topology.nodes_in_tier(1)[0]), protocol
        )

    def test_internet40(self):
        topology = build_internet(
            TopologyParams(tier1=3, transit=12, stubs=25, seed=2711)
        )
        live = converged(topology.configs, topology.links)
        assert_round_trips(
            live.coordinator.capture(topology.nodes_in_tier(1)[0])
        )

    @pytest.mark.parametrize("gadget", sorted(GADGETS))
    def test_every_gadget(self, gadget):
        # Some never converge: a fixed run, cut wherever it stands.
        configs, links = GADGETS[gadget]()
        live = converged(configs, links, seed=7, until=30.0)
        assert_round_trips(live.coordinator.capture(configs[0].name))

    def test_loc_rib_routes_are_adj_rib_in_routes_again(self, demo27_live):
        live, topology = demo27_live
        snapshot = live.coordinator.capture(topology.nodes_in_tier(1)[0])
        restored = pickle.loads(pickle.dumps(snapshot))
        shared = 0
        for checkpoint in restored.checkpoints.values():
            state = checkpoint.state
            held = {
                (route.peer, route.prefix): route
                for routes in state["adj_rib_in"].values()
                for route in routes
            }
            for route in state["loc_rib"]:
                if route.peer is not None:
                    assert held[route.peer, route.prefix] is route
                    shared += 1
        assert shared > 100


def planted(live, router_name, change):
    """``live``'s snapshot with one Adj-RIB-In route of ``router_name``
    replaced by ``change(route)``, in the Loc-RIB too if it is there."""
    snapshot = live.coordinator.capture(router_name)
    state = snapshot.checkpoints[router_name].state
    peer = next(p for p, routes in state["adj_rib_in"].items() if len(routes) > 1)
    old = state["adj_rib_in"][peer][-1]
    new = change(old)
    state["adj_rib_in"][peer] = [
        new if route is old else route for route in state["adj_rib_in"][peer]
    ]
    state["loc_rib"] = [
        new if route is old else route for route in state["loc_rib"]
    ]
    return snapshot, router_name, peer, new


class TestRoutesThatFitNoRow:
    @pytest.fixture
    def live(self, demo27_live):
        return demo27_live[0]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_symbolic_shadows(self, live, protocol):
        """A route whose set holds symbolic values has nothing outside
        its fields, so it takes a row like any other, and its values
        keep their expressions."""
        value = SymInt(Var("lp", 0, 255), 7)
        snapshot, name, peer, route = planted(
            live, "st-1",
            lambda r: r.with_attributes(
                r.attributes.replace(local_pref=value, med=value)
            ),
        )
        restored = assert_round_trips(snapshot, protocol)
        loaded = restored.checkpoints[name].state["adj_rib_in"][peer][-1]
        assert exact(loaded) == exact(route)
        assert repr(loaded.attributes.local_pref) == repr(value)
        assert repr(loaded.attributes.med) == repr(value)

    @pytest.mark.parametrize("change", [
        lambda r: r.replace(peer_bgp_id=IPv4Address("192.0.2.99")),
        lambda r: r.replace(peer_as=64999),
        lambda r: r.replace(
            source=SOURCE_IBGP if r.source == SOURCE_EBGP else SOURCE_EBGP
        ),
    ], ids=["peer_bgp_id", "peer_as", "source"])
    def test_a_provenance_of_its_own(self, live, change):
        snapshot, name, peer, route = planted(live, "st-1", change)
        _, (_, rows, _) = snapshot.checkpoints[name].state.__reduce__()
        assert rows[peer][1][-1] is route  # it goes whole
        assert type(rows[peer][1][-2]) is tuple
        restored = assert_round_trips(snapshot)
        routes = restored.checkpoints[name].state["adj_rib_in"][peer]
        assert exact(routes[-1]) == exact(route)

    def test_empty_adj_rib_ins_and_static_routes(self):
        configs, links = GADGETS["good-gadget"]()
        live = converged(configs, links, seed=7, until=30.0)
        snapshot = live.coordinator.capture(configs[0].name)
        name, state = next(
            (name, checkpoint.state)
            for name, checkpoint in snapshot.checkpoints.items()
            if any(route.peer is None for route in checkpoint.state["loc_rib"])
        )
        state["adj_rib_in"] = {peer: [] for peer in state["adj_rib_in"]}
        state["loc_rib"] = [r for r in state["loc_rib"] if r.peer is None]
        restored = assert_round_trips(snapshot)
        assert restored.checkpoints[name].state["loc_rib"]


class _BadPrefix(Prefix):
    """Pickles as ``Prefix(network, length)`` with host bits set, the
    way a forged row would carry it."""

    def __init__(self, network, length):
        self.network, self.length, self._hash = network, length, None

    def __reduce__(self):
        return (Prefix, (self.network, self.length))


class TestInvalidRowsFailToLoad:
    def test_a_prefix_with_host_bits_set(self, demo27_live):
        live, _ = demo27_live
        snapshot, name, peer, _ = planted(
            live, "st-1", lambda r: r.replace(prefix=_BadPrefix(0x0A000001, 8)),
        )
        state = snapshot.checkpoints[name].state
        # It goes in a row, not in a whole route.
        _, (_, rows, _) = state.__reduce__()
        assert type(rows[peer][1][-1]) is tuple
        with pytest.raises(ValueError, match="host bits"):
            pickle.loads(pickle.dumps(snapshot))

    def test_a_bad_as_path_in_a_row(self, demo27_live):
        live, _ = demo27_live

        class BadPath(AsPath):
            def __reduce__(self):
                return (AsPath, (((3, (65001,)),),))  # unknown segment type

        snapshot, *_ = planted(
            live, "st-1",
            lambda r: r.with_attributes(
                PathAttributes(as_path=BadPath(((2, (65001,)),)))
            ),
        )
        with pytest.raises(ValueError, match="segment type"):
            pickle.loads(pickle.dumps(snapshot))
