"""Oracle checks with global visibility: forwarding paths, loops,
blackholes.

These walk every router's Loc-RIB, which no federated participant could
do — they exist as ground truth for tests, benchmarks and the dashboard.
Contrast with :mod:`repro.checks.hijack`, which restricts itself to the
sharing interface; keeping the two side by side documents exactly what
federation costs in observability.
"""

from __future__ import annotations

from repro.bgp.ip import Prefix
from repro.net.network import Network

# Hops a forwarding walk takes before it reports ``too_long``.
MAX_HOPS = 64


def forwarding_path(
    network: Network, start: str, prefix: Prefix
) -> tuple[list[str], str]:
    """Follow best-route next hops from ``start`` toward ``prefix``.

    Returns (hop list, outcome) with outcome one of:
    ``delivered`` (reached an originator), ``blackhole`` (a hop has no
    route), ``loop`` (a hop repeated), ``too_long``.
    """
    path = [start]
    visited = {start}
    current = start
    for _ in range(MAX_HOPS):
        router = network.processes[current]
        config = getattr(router, "config", None)
        if config is not None and prefix in config.networks:
            return path, "delivered"
        route = router.loc_rib.get(prefix)
        if route is None:
            return path, "blackhole"
        if route.peer is None:
            # Static route at a non-originator would be odd, but treat
            # owning the route locally as delivery.
            return path, "delivered"
        next_hop = route.peer
        path.append(next_hop)
        if next_hop in visited:
            return path, "loop"
        visited.add(next_hop)
        current = next_hop
    return path, "too_long"


def find_forwarding_loops(
    network: Network, prefixes: list[Prefix] | None = None
) -> list[tuple[str, Prefix, list[str]]]:
    """All (node, prefix, path) triples whose forwarding walk loops."""
    loops = []
    for prefix in _prefix_universe(network, prefixes):
        for name in sorted(network.processes):
            path, outcome = forwarding_path(network, name, prefix)
            if outcome == "loop":
                loops.append((name, prefix, path))
    return loops


def find_blackholes(
    network: Network, prefixes: list[Prefix] | None = None
) -> list[tuple[str, Prefix]]:
    """All (node, prefix) pairs where an originated prefix is unreachable.

    Nodes with no route at all to an originated prefix count, as do
    nodes whose forwarding walk dead-ends part way.
    """
    blackholes = []
    for prefix in _prefix_universe(network, prefixes):
        for name in sorted(network.processes):
            path, outcome = forwarding_path(network, name, prefix)
            if outcome == "blackhole":
                blackholes.append((name, prefix))
    return blackholes


def convergence_complete(network: Network,
                         prefixes: list[Prefix] | None = None) -> bool:
    """True when every router can deliver to every originated prefix."""
    return not find_blackholes(network, prefixes) and not find_forwarding_loops(
        network, prefixes
    )


def _prefix_universe(
    network: Network, prefixes: list[Prefix] | None
) -> list[Prefix]:
    if prefixes is not None:
        return prefixes
    universe: set[Prefix] = set()
    for process in network.processes.values():
        config = getattr(process, "config", None)
        if config is not None:
            universe.update(config.networks)
    return sorted(universe)
