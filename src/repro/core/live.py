"""The deployed system DiCE runs alongside.

:class:`LiveSystem` bundles a network of BGP routers built from
configurations and a link list, provides the clone factory the snapshot
layer needs, and can apply configuration changes mid-run (the operator
actions whose consequences DiCE explores).

Nothing here is DiCE-specific behaviourally — it is "production": the
same object drives the baseline convergence experiments.
"""

from __future__ import annotations

from typing import Iterable

from repro.bgp.config import ConfigChange, RouterConfig
from repro.bgp.ip import Prefix
from repro.bgp.router import BGPRouter
from repro.core.checkpoint import NodeCheckpoint
from repro.core.snapshot import SnapshotCoordinator
from repro.net.link import LinkProfile
from repro.net.network import Network

LinkSpec = tuple[str, str, LinkProfile]


def bgp_process_factory(checkpoint: NodeCheckpoint) -> BGPRouter:
    """Rebuild a router for a clone from its checkpointed config.

    The constructor-produced state is immediately overwritten by
    ``restore_into``; only the identity (name/config object) matters.
    """
    config = checkpoint.state["config"]
    return BGPRouter(config)


class LiveSystem:
    """A running federation of BGP routers."""

    def __init__(self, network: Network, configs: list[RouterConfig],
                 links: Iterable[LinkSpec] | None = None):
        self.network = network
        self.configs = list(configs)
        # The trusted baseline: configurations as initially deployed.
        # Origination claims (the IRR analogue) derive from these, so a
        # later runtime change cannot launder itself into legitimacy.
        self.initial_configs = list(configs)
        # The link list the network was wired from; differential oracles
        # that rebuild the topology elsewhere (BIRD) need it.
        self.links = list(links) if links is not None else []
        self.coordinator = SnapshotCoordinator(network)
        self._churn_count = 0

    @staticmethod
    def build(
        configs: Iterable[RouterConfig],
        links: Iterable[LinkSpec],
        seed: int = 0,
    ) -> "LiveSystem":
        """Construct the network, add routers, wire links."""
        configs = list(configs)
        links = list(links)
        network = Network(seed=seed)
        for config in configs:
            network.add_process(BGPRouter(config))
        for a, b, profile in links:
            network.add_link(a, b, profile)
        return LiveSystem(network, configs, links=links)

    # -- running --

    def router(self, name: str) -> BGPRouter:
        """The named router."""
        process = self.network.processes[name]
        assert isinstance(process, BGPRouter)
        return process

    def routers(self) -> list[BGPRouter]:
        """All routers, by name order."""
        return [self.router(name) for name in sorted(self.network.processes)]

    def run(self, until: float | None = None,
            max_events: int | None = None) -> float:
        """Drive the live simulation."""
        return self.network.run(until=until, max_events=max_events)

    def converge(self, deadline: float = 120.0, settle: float = 1.0) -> float:
        """Run until the network quiesces (modulo keepalive timers).

        Quiescence is detected as: no Loc-RIB change anywhere during the
        last ``settle`` simulated seconds.  Returns the simulated time.
        """
        self.network.start()
        last_changes = self._total_rib_changes()
        clock = self.network.sim.now
        while clock < deadline:
            clock = self.network.run(until=clock + settle)
            changes = self._total_rib_changes()
            if changes == last_changes:
                return clock
            last_changes = changes
        return clock

    def _total_rib_changes(self) -> int:
        return sum(router.loc_rib.changes_total for router in self.routers())

    # -- operator actions --

    def apply_change(self, node: str, change: ConfigChange) -> None:
        """Apply a configuration change at one router, as its operator."""
        self.router(node).apply_config_change(change)
        self.configs = [
            router.config for router in self.routers()
        ]

    def schedule_change(self, at: float, node: str,
                        change: ConfigChange) -> None:
        """Apply the change at simulated time ``at``."""
        self.network.sim.schedule_at(
            at, lambda: self.apply_change(node, change)
        )

    def enable_churn(
        self,
        node: str,
        prefix: Prefix,
        period: float,
        start_at: float = 1.0,
    ) -> None:
        """Periodically announce/withdraw ``prefix`` at ``node``.

        Keeps the live system visibly *alive* during campaigns — DiCE
        must tolerate exploring a moving target (start-from-current-state
        rather than from a quiet initial state).
        """
        from repro.bgp.config import AddNetwork, RemoveNetwork

        def flip() -> None:
            router = self.router(node)
            if prefix in router.config.networks:
                change: ConfigChange = RemoveNetwork(prefix)
            else:
                change = AddNetwork(prefix)
            self.apply_change(node, change)
            self._churn_count += 1
            self.network.sim.schedule(period, flip)

        self.network.sim.schedule_at(start_at, flip)

    @property
    def churn_events(self) -> int:
        """Number of churn flips applied so far."""
        return self._churn_count

    # -- introspection --

    def originated_prefixes(self) -> list[Prefix]:
        """Every prefix currently originated by some router."""
        universe: set[Prefix] = set()
        for router in self.routers():
            universe.update(router.config.networks)
        return sorted(universe)

    def total_routes(self) -> int:
        """Sum of Loc-RIB sizes (dashboard metric)."""
        return sum(len(router.loc_rib) for router in self.routers())
