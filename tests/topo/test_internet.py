"""Tests for the Internet-like topology generator."""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.bgp.config import AddFilter, SetNeighborFilter
from repro.bgp.policy import Filter
from repro.checks.reachability import convergence_complete
from repro.core.live import LiveSystem
from repro.topo.internet import (
    REL_CUSTOMER,
    REL_PEER,
    REL_PROVIDER,
    TopologyParams,
    build_internet,
)

SMALL = TopologyParams(tier1=2, transit=3, stubs=4, seed=11)


class TestStructure:
    def test_node_counts(self):
        topology = build_internet(SMALL)
        assert len(topology.configs) == SMALL.total
        assert len(topology.nodes_in_tier(1)) == 2
        assert len(topology.nodes_in_tier(2)) == 3
        assert len(topology.nodes_in_tier(3)) == 4

    def test_tier1_full_mesh_of_peers(self):
        topology = build_internet(SMALL)
        tier1 = topology.nodes_in_tier(1)
        for i, a in enumerate(tier1):
            for b in tier1[i + 1 :]:
                assert topology.relationships[(a, b)] == REL_PEER

    def test_every_stub_has_a_provider(self):
        topology = build_internet(SMALL)
        for stub in topology.nodes_in_tier(3):
            providers = [
                other
                for (node, other), rel in topology.relationships.items()
                if node == stub and rel == REL_PROVIDER
            ]
            assert providers

    def test_relationships_symmetric(self):
        topology = build_internet(SMALL)
        inverse = {
            REL_CUSTOMER: REL_PROVIDER,
            REL_PROVIDER: REL_CUSTOMER,
            REL_PEER: REL_PEER,
        }
        for (a, b), rel in topology.relationships.items():
            assert topology.relationships[(b, a)] == inverse[rel]

    def test_unique_asns_and_prefixes(self):
        topology = build_internet(SMALL)
        asns = [config.local_as for config in topology.configs]
        assert len(asns) == len(set(asns))
        prefixes = [config.networks[0] for config in topology.configs]
        assert len(prefixes) == len(set(prefixes))

    def test_deterministic_per_seed(self):
        a = build_internet(SMALL)
        b = build_internet(SMALL)
        assert [c.name for c in a.configs] == [c.name for c in b.configs]
        assert a.relationships == b.relationships
        different = build_internet(
            TopologyParams(tier1=2, transit=3, stubs=4, seed=12)
        )
        assert a.relationships != different.relationships

    def test_config_for_lookup(self):
        topology = build_internet(SMALL)
        assert topology.config_for("t1-1").name == "t1-1"
        with pytest.raises(KeyError):
            topology.config_for("nope")


class TestPolicies:
    def test_import_filters_set_relationship_pref(self):
        """Customer-learned routes must carry LOCAL_PREF 200 after
        import, peers 100, providers 50 (Gao-Rexford)."""
        topology = build_internet(SMALL)
        live = LiveSystem.build(topology.configs, topology.links, seed=1)
        live.converge(deadline=300)
        # Find a transit node and inspect a route learned from a stub
        # customer.
        for transit in topology.nodes_in_tier(2):
            router = live.router(transit)
            for peer, rib in router.adj_rib_in.items():
                relationship = topology.relationships.get((transit, peer))
                for route in rib.routes():
                    expected = {
                        REL_CUSTOMER: 200, REL_PEER: 100, REL_PROVIDER: 50,
                    }[relationship]
                    assert route.attributes.local_pref == expected

    def test_valley_free_export(self):
        """No route learned from a peer/provider may be exported to
        another peer/provider — check Adj-RIB-Out contents."""
        topology = build_internet(SMALL)
        live = LiveSystem.build(topology.configs, topology.links, seed=1)
        live.converge(deadline=300)
        from repro.topo.internet import _REL_COMMUNITY

        peer_tag = _REL_COMMUNITY[REL_PEER]
        provider_tag = _REL_COMMUNITY[REL_PROVIDER]
        for name in sorted(live.network.processes):
            router = live.router(name)
            for peer, rib_out in router.adj_rib_out.items():
                relationship = topology.relationships.get((name, peer))
                if relationship == REL_CUSTOMER:
                    continue  # everything may go to customers
                for prefix in rib_out.prefixes():
                    communities = rib_out.advertised(prefix).communities
                    assert peer_tag not in communities, (
                        f"{name} leaked a peer route to {relationship} {peer}"
                    )
                    assert provider_tag not in communities, (
                        f"{name} leaked a provider route to "
                        f"{relationship} {peer}"
                    )

    def test_sessions_of_a_role_share_one_filter(self):
        topology = build_internet(SMALL)
        shared = {}
        for config in topology.configs:
            for neighbor in config.neighbors:
                relationship = topology.relationships[(config.name, neighbor.peer)]
                assert neighbor.import_filter == f"imp_{relationship}"
                assert neighbor.export_filter == f"exp_{relationship}"
                for name in (neighbor.import_filter, neighbor.export_filter):
                    assert shared.setdefault(name, config.filters[name]) \
                        is config.filters[name]
        assert len(shared) == 6

    def test_redefining_a_role_filter_reaches_every_session_of_the_role(self):
        """``AddFilter`` redefines a filter by name, and a name is a role:
        one session's policy changes with a new name plus
        ``SetNeighborFilter``."""
        topology = build_internet(SMALL)
        config = max(topology.configs, key=lambda c: sum(
            n.import_filter == "imp_customer" for n in c.neighbors
        ))
        customers = [n.peer for n in config.neighbors
                     if n.import_filter == "imp_customer"]
        assert len(customers) >= 2
        strict = Filter.compile("filter imp_customer { reject; }")
        redefined = AddFilter(strict).apply(config)
        assert all(
            redefined.filters[n.import_filter] is strict
            for n in redefined.neighbors if n.peer in customers
        )
        one = Filter.compile("filter imp_one { reject; }")
        narrowed = SetNeighborFilter(customers[0], "import", "imp_one").apply(
            AddFilter(one).apply(config)
        )
        assert [n.peer for n in narrowed.neighbors
                if narrowed.filters[n.import_filter] is one] == customers[:1]
        assert narrowed.filters["imp_customer"] is config.filters["imp_customer"]


def _topology_digest(params: TopologyParams) -> str:
    """A byte-level fingerprint of everything the generator emits.

    Rendering every config through the BIRD compiler covers names,
    ASNs, router ids, networks, neighbor order, filter semantics and
    link order (via the address plan) in one deterministic text form.
    """
    from repro.differential.birdconf import AddressPlan, compile_router

    topology = build_internet(params)
    plan = AddressPlan(topology.links)
    digest = hashlib.sha256()
    for config in topology.configs:
        digest.update(compile_router(config, plan).encode())
    for pair in sorted(topology.relationships.items()):
        digest.update(repr(pair).encode())
    return digest.hexdigest()


class TestGeneratorInvariants:
    """Same seed ⇒ byte-identical output, across processes too.

    The campaign layer replays topologies from (params, seed) alone —
    any hidden dependence on hash randomisation or process state would
    silently break snapshot replay and the differential oracle.
    """

    def test_same_seed_byte_identical_in_process(self):
        assert _topology_digest(SMALL) == _topology_digest(SMALL)

    def test_same_seed_byte_identical_across_processes(self):
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)
            ))), "src",
        )
        code = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from test_internet import _topology_digest, SMALL\n"
            "print(_topology_digest(SMALL))\n"
        ).format(src=src)
        digests = []
        for hash_seed in ("1", "271828"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.path.dirname(
                           os.path.abspath(__file__)))
            completed = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, check=True,
            )
            digests.append(completed.stdout.strip())
        assert digests[0] == digests[1] == _topology_digest(SMALL)

    def test_tier1_clique_has_every_link(self):
        params = TopologyParams(tier1=4, transit=3, stubs=3, seed=2)
        topology = build_internet(params)
        tier1 = topology.nodes_in_tier(1)
        linked = {
            frozenset((a, b)) for a, b, _profile in topology.links
        }
        for i, a in enumerate(tier1):
            for b in tier1[i + 1:]:
                assert frozenset((a, b)) in linked, (
                    f"tier-1 clique missing physical link {a}–{b}"
                )
                assert topology.relationships[(a, b)] == REL_PEER

    def test_valley_free_under_oracle_export_semantics(self):
        """The oracle's own export machinery — which runs the generated
        filters through an independent interpreter — must withhold
        peer/provider-learned routes from peers and providers."""
        from repro.differential.reference import (
            ReferenceOracle,
            _decanonicalize,
        )
        from repro.topo.internet import _REL_COMMUNITY

        topology = build_internet(SMALL)
        oracle = ReferenceOracle(topology.configs, links=topology.links)
        outcome = oracle.stable_state()
        assert outcome.converged
        learned_tags = {
            _REL_COMMUNITY[REL_PEER], _REL_COMMUNITY[REL_PROVIDER],
        }
        checked = 0
        for name, table in outcome.ribs.items():
            lateral = [
                other for (node, other), rel
                in topology.relationships.items()
                if node == name and rel in (REL_PEER, REL_PROVIDER)
            ]
            for prefix, route in table.items():
                if not learned_tags & set(route.communities):
                    continue  # own or customer-learned: exportable
                for neighbor in lateral:
                    exported = oracle._export(
                        name, neighbor, prefix, _decanonicalize(route)
                    )
                    assert exported is None, (
                        f"{name} would leak {prefix} to {neighbor}"
                    )
                    checked += 1
        assert checked, "no peer/provider-learned routes exercised"


class TestConvergence:
    def test_small_internet_converges_fully(self):
        topology = build_internet(SMALL)
        live = LiveSystem.build(topology.configs, topology.links, seed=1)
        live.converge(deadline=300)
        assert convergence_complete(live.network)

    def test_all_sessions_established(self):
        topology = build_internet(SMALL)
        live = LiveSystem.build(topology.configs, topology.links, seed=1)
        live.converge(deadline=300)
        for router in live.routers():
            assert len(router.established_peers()) == len(router.sessions)
