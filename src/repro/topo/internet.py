"""Tiered Internet-like topology generation with Gao–Rexford policies.

The generated graph has three tiers:

* **tier-1** — a full clique of peer links (the default-free zone);
* **transit** — each multi-homed to tier-1 providers, optionally peering
  laterally;
* **stub** — customer ASes, each homed to one or two transit providers.

Business relationships drive both link placement and policy, following
Gao–Rexford:

* routes learned from customers get LOCAL_PREF 200, from peers 100,
  from providers 50 (prefer customer > peer > provider);
* routes are tagged on import with a relationship community, and the
  export policy announces customer-learned and own routes to everyone
  but peer/provider-learned routes only to customers (valley-free).

Policies are *generated filter source text*, compiled by the real
policy parser — so exploration of any node's behaviour runs through the
configured policy exactly as the paper describes.  As BIRD protocols
name one shared filter, every session of a role — import from, or
export to, a customer, peer or provider — references one compiled
:class:`Filter`: six per topology, whatever its size, each parsed once.
Sessions name a filter by its role (``imp_customer``, ``exp_peer``, …),
so an ``AddFilter`` that redefines one of these names changes policy for
every session of that role on the router; changing one session's policy
takes ``AddFilter`` under a new name plus ``SetNeighborFilter``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bgp.config import NeighborConfig, RouterConfig
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.policy import Filter
from repro.net.link import LinkProfile

REL_CUSTOMER = "customer"  # the neighbor is our customer
REL_PEER = "peer"
REL_PROVIDER = "provider"  # the neighbor is our provider

# Relationship communities: (65535, code).
_REL_COMMUNITY = {
    REL_CUSTOMER: (65535 << 16) | 1,
    REL_PEER: (65535 << 16) | 2,
    REL_PROVIDER: (65535 << 16) | 3,
}

_LOCAL_PREF = {REL_CUSTOMER: 200, REL_PEER: 100, REL_PROVIDER: 50}


@dataclass
class TopologyParams:
    """Knobs for :func:`build_internet`."""

    tier1: int = 3
    transit: int = 8
    stubs: int = 16
    seed: int = 0
    transit_uplinks: int = 2  # providers per transit AS
    stub_uplinks_max: int = 2  # 1..max providers per stub
    transit_peering_prob: float = 0.3
    base_as: int = 100
    connect_delay: float = 0.1

    @property
    def total(self) -> int:
        """Total router count."""
        return self.tier1 + self.transit + self.stubs


@dataclass
class InternetTopology:
    """The build product: configs, links, and relationship metadata."""

    configs: list[RouterConfig]
    links: list[tuple[str, str, LinkProfile]]
    # (a, b) -> relationship of b from a's point of view.
    relationships: dict[tuple[str, str], str] = field(default_factory=dict)
    tiers: dict[str, int] = field(default_factory=dict)

    def config_for(self, name: str) -> RouterConfig:
        """Config of the named router."""
        for config in self.configs:
            if config.name == name:
                return config
        raise KeyError(name)

    def nodes_in_tier(self, tier: int) -> list[str]:
        """Router names in the given tier (1, 2, or 3)."""
        return sorted(n for n, t in self.tiers.items() if t == tier)

    def to_networkx(self):
        """Export as a networkx graph for analysis/plotting.

        Nodes carry ``asn`` and ``tier`` attributes; edges carry
        ``relationship`` (from the lexicographically smaller endpoint's
        point of view) and ``latency_ms``.
        """
        import networkx as nx

        graph = nx.Graph()
        for config in self.configs:
            graph.add_node(
                config.name,
                asn=config.local_as,
                tier=self.tiers[config.name],
            )
        for a, b, profile in self.links:
            low, high = sorted((a, b))
            graph.add_edge(
                a,
                b,
                relationship=self.relationships[(low, high)],
                latency_ms=profile.latency_s * 1000.0,
            )
        return graph


def _import_filter(name: str, relationship: str) -> str:
    community = _REL_COMMUNITY[relationship]
    high, low = community >> 16, community & 0xFFFF
    pref = _LOCAL_PREF[relationship]
    # Relationship tags are meaningful only within one AS: strip whatever
    # the neighbor's own tagging left behind before adding ours.  Without
    # this, a customer tag added two hops away would make our export
    # filter leak peer-learned routes upstream (a valley violation that
    # breaks the Gao-Rexford convergence guarantee — observed as a
    # permanent oscillation on larger topologies).
    strip = "".join(
        f"    bgp_community.delete(({value >> 16}, {value & 0xFFFF}));\n"
        for value in _REL_COMMUNITY.values()
    )
    return (
        f"filter {name} {{\n"
        f"{strip}"
        f"    bgp_local_pref = {pref};\n"
        f"    bgp_community.add(({high}, {low}));\n"
        f"    accept;\n"
        f"}}\n"
    )


def _export_filter(name: str, relationship: str) -> str:
    """Valley-free export: everything to customers; own + customer-learned
    routes to peers and providers."""
    if relationship == REL_CUSTOMER:
        return f"filter {name} {{ accept; }}\n"
    cust_high = _REL_COMMUNITY[REL_CUSTOMER] >> 16
    cust_low = _REL_COMMUNITY[REL_CUSTOMER] & 0xFFFF
    return (
        f"filter {name} {{\n"
        f"    if source = 0 then accept;\n"
        f"    if bgp_community ~ ({cust_high}, {cust_low}) then accept;\n"
        f"    reject;\n"
        f"}}\n"
    )


def _link_profile(tier_a: int, tier_b: int, rng: random.Random) -> LinkProfile:
    """Internet-like latencies by tier pairing."""
    if tier_a == 1 and tier_b == 1:
        latency = rng.uniform(20.0, 60.0)
    elif 1 in (tier_a, tier_b):
        latency = rng.uniform(10.0, 40.0)
    elif tier_a == 2 and tier_b == 2:
        latency = rng.uniform(8.0, 30.0)
    else:
        latency = rng.uniform(2.0, 20.0)
    return LinkProfile.wan(latency_ms=latency, jitter_ms=latency * 0.1)


def build_internet(params: TopologyParams) -> InternetTopology:
    """Generate the tiered topology; deterministic in ``params.seed``."""
    rng = random.Random(params.seed)
    names: list[str] = []
    tiers: dict[str, int] = {}
    asn_of: dict[str, int] = {}
    next_as = params.base_as
    for index in range(params.tier1):
        name = f"t1-{index + 1}"
        names.append(name)
        tiers[name] = 1
        asn_of[name] = next_as
        next_as += 100
    for index in range(params.transit):
        name = f"tr-{index + 1}"
        names.append(name)
        tiers[name] = 2
        asn_of[name] = next_as
        next_as += 10
    for index in range(params.stubs):
        name = f"st-{index + 1}"
        names.append(name)
        tiers[name] = 3
        asn_of[name] = next_as
        next_as += 1

    relationships: dict[tuple[str, str], str] = {}
    links: list[tuple[str, str, LinkProfile]] = []

    def connect(a: str, b: str, rel_of_b_from_a: str) -> None:
        if (a, b) in relationships:
            return
        inverse = {
            REL_CUSTOMER: REL_PROVIDER,
            REL_PROVIDER: REL_CUSTOMER,
            REL_PEER: REL_PEER,
        }[rel_of_b_from_a]
        relationships[(a, b)] = rel_of_b_from_a
        relationships[(b, a)] = inverse
        links.append((a, b, _link_profile(tiers[a], tiers[b], rng)))

    tier1_names = [n for n in names if tiers[n] == 1]
    transit_names = [n for n in names if tiers[n] == 2]
    stub_names = [n for n in names if tiers[n] == 3]

    # Tier-1 clique of peer links.
    for i, a in enumerate(tier1_names):
        for b in tier1_names[i + 1 :]:
            connect(a, b, REL_PEER)
    # Transit ASes buy from tier-1 providers.
    for name in transit_names:
        providers = rng.sample(
            tier1_names, min(params.transit_uplinks, len(tier1_names))
        )
        for provider in providers:
            connect(name, provider, REL_PROVIDER)
    # Lateral transit peering.
    for i, a in enumerate(transit_names):
        for b in transit_names[i + 1 :]:
            if rng.random() < params.transit_peering_prob:
                connect(a, b, REL_PEER)
    # Stubs buy from transit providers.
    for name in stub_names:
        count = rng.randint(1, max(1, params.stub_uplinks_max))
        providers = rng.sample(transit_names, min(count, len(transit_names)))
        for provider in providers:
            connect(name, provider, REL_PROVIDER)

    role_filters: dict[str, Filter] = {}
    for relationship in (REL_CUSTOMER, REL_PEER, REL_PROVIDER):
        for filter_name, render in ((f"imp_{relationship}", _import_filter),
                                    (f"exp_{relationship}", _export_filter)):
            role_filters[filter_name] = Filter.compile(
                render(filter_name, relationship)
            )

    configs = []
    for index, name in enumerate(names):
        neighbors = []
        filters: dict[str, Filter] = {}
        for other in sorted(
            peer for (a, peer) in relationships if a == name
        ):
            relationship = relationships[(name, other)]
            import_name = f"imp_{relationship}"
            export_name = f"exp_{relationship}"
            filters[import_name] = role_filters[import_name]
            filters[export_name] = role_filters[export_name]
            neighbors.append(
                NeighborConfig(
                    peer=other,
                    peer_as=asn_of[other],
                    import_filter=import_name,
                    export_filter=export_name,
                )
            )
        prefix = Prefix((10 << 24) | ((index + 1) << 16), 16)
        router_id = IPv4Address((172 << 24) | (16 << 16) | (index + 1))
        configs.append(
            RouterConfig(
                name=name,
                local_as=asn_of[name],
                router_id=router_id,
                networks=(prefix,),
                neighbors=tuple(neighbors),
                filters=filters,
            )
        )
    return InternetTopology(
        configs=configs, links=links, relationships=relationships, tiers=tiers
    )
