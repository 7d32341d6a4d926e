"""DiCE: online testing of federated and heterogeneous distributed systems.

A full reproduction of Canini et al., SIGCOMM 2011 (demo), in Python:

* :mod:`repro.net` — the discrete-event network substrate (the testbed);
* :mod:`repro.bgp` — a complete BGP-4 speaker (the BIRD substitute);
* :mod:`repro.concolic` — a concolic execution engine (the Oasis
  substitute);
* :mod:`repro.core` — DiCE itself: checkpoints, consistent snapshots,
  per-node explorers, the orchestrator, the federated sharing interface;
* :mod:`repro.checks` — the three fault-class property checkers;
* :mod:`repro.topo` — Internet-like topologies, including the 27-router
  demo topology, and policy-conflict gadgets;
* :mod:`repro.viz` — the terminal dashboard (the Figure 1 GUI analogue).

Quickstart::

    from repro import quickstart_system, DiceOrchestrator, OrchestratorConfig
    from repro.checks import default_property_suite

    live = quickstart_system()
    live.converge()
    dice = DiceOrchestrator(live, default_property_suite())
    result = dice.run_campaign(OrchestratorConfig(inputs_per_node=20))
    for report in result.reports:
        print(report.headline())
"""

import logging

from repro.bgp import BGPRouter, RouterConfig, NeighborConfig, Prefix, IPv4Address
from repro.core import (
    CampaignResult,
    DiceOrchestrator,
    LiveSystem,
    OrchestratorConfig,
    Snapshot,
    SnapshotCoordinator,
)
from repro.net import LinkProfile, Network

__version__ = "1.0.0"

# ``repro.*`` records are the embedding application's to route; without
# a handler here, ``logging.lastResort`` would print them to stderr.
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "BGPRouter",
    "RouterConfig",
    "NeighborConfig",
    "Prefix",
    "IPv4Address",
    "Network",
    "LinkProfile",
    "LiveSystem",
    "Snapshot",
    "SnapshotCoordinator",
    "DiceOrchestrator",
    "OrchestratorConfig",
    "CampaignResult",
    "quickstart_system",
    "__version__",
]


def quickstart_system(seed: int = 0) -> LiveSystem:
    """A small ready-made federation: 3 ASes in a line, one prefix each.

    Used by the quickstart example and as a convenient fixture.
    """
    configs = [
        RouterConfig(
            name="r1",
            local_as=65001,
            router_id=IPv4Address("172.16.0.1"),
            networks=(Prefix("10.1.0.0/16"),),
            neighbors=(NeighborConfig(peer="r2", peer_as=65002),),
        ),
        RouterConfig(
            name="r2",
            local_as=65002,
            router_id=IPv4Address("172.16.0.2"),
            networks=(Prefix("10.2.0.0/16"),),
            neighbors=(
                NeighborConfig(peer="r1", peer_as=65001),
                NeighborConfig(peer="r3", peer_as=65003),
            ),
        ),
        RouterConfig(
            name="r3",
            local_as=65003,
            router_id=IPv4Address("172.16.0.3"),
            networks=(Prefix("10.3.0.0/16"),),
            neighbors=(NeighborConfig(peer="r2", peer_as=65002),),
        ),
    ]
    links = [
        ("r1", "r2", LinkProfile.wan(latency_ms=20.0)),
        ("r2", "r3", LinkProfile.wan(latency_ms=25.0)),
    ]
    return LiveSystem.build(configs, links, seed=seed)
