"""The four campaign workloads and what one repetition of each does.

A workload is a tuple of *scenarios*.  One repetition walks them in
order and does the same three things for each:

1. **set-up** — build the topology, ``LiveSystem.build(seed=<--seed>)``,
   converge or settle, construct the ``DiceOrchestrator``;
2. **campaign** — one ``run_campaign`` with a constant config, timed
   from outside the call;
3. **stall probes** — a few direct ``SnapshotCoordinator.capture`` calls
   on the live system, each timed (the live simulator is held for
   exactly that long) and pickled (what a task ships).

Every repetition rebuilds its live systems, so repetitions do identical
work.  ``--seed`` reaches ``LiveSystem.build`` and the churn schedule
only: campaign and topology seeds are constants, because the solver's
random-search tail makes campaign wall swing several-fold with
``OrchestratorConfig.seed`` and would bury every change under test.

Budgets are smaller than a "realistic" campaign on purpose: the driver
makes 92 runs inside 57 minutes, so one run gets 30 s and must still
hold at least three repetitions.

No workload runs two processes at once.  ``demo27-parallel`` reaches the
task engine through the loopback transport (worker slots inside the
campaign's process), because on two shared cores a real two-worker pool
plus the capturing coordinator measures the host's other tenants: the
same campaign ran 40% slower whenever a neighbour took one core.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import DiceOrchestrator, OrchestratorConfig, quickstart_system
from repro.bgp import faults
from repro.bgp.config import AddNetwork
from repro.bgp.ip import Prefix
from repro.checks import default_property_suite
from repro.core.faultclass import (
    FAULT_OPERATOR_MISTAKE,
    FAULT_POLICY_CONFLICT,
    FAULT_PROGRAMMING_ERROR,
)
from repro.core.live import LiveSystem
from repro.topo.demo27 import build_demo27
from repro.topo.gadgets import build_bad_gadget
from repro.topo.internet import TopologyParams, build_internet

# Simulated seconds between stall probes on a system without churn (the
# campaign's own default ``live_advance``).
PROBE_GAP = 0.5
# Stub churn: one announce/withdraw flip every CHURN_PERIOD simulated
# seconds; probes land CHURN_LANDING after a flip so the marker cut
# crosses the resulting UPDATE wave and records in-flight messages.
CHURN_PERIOD = 4.0
CHURN_LANDING = 0.02
CHURN_PREFIX = Prefix("10.200.0.0/16")

INTERNET40 = TopologyParams(tier1=3, transit=12, stubs=25, seed=2711)

# What --quick (the smoke test) shrinks every campaign to, besides
# exploring only the first node.  Too small for the crash hunt to reach
# its bug, so quick mode does not demand the seeded fault classes.
QUICK_CAMPAIGN = {"inputs_per_node": 1, "cycles": 1, "grammar_seeds": 1}


@dataclass
class Rig:
    """One scenario's live system, as set-up leaves it."""

    live: LiveSystem
    initiators: list[str]  # stall probes rotate over these
    churn_start: float | None = None  # simulated time of the first flip
    dice: DiceOrchestrator = field(init=False)

    def __post_init__(self):
        self.dice = DiceOrchestrator(self.live, default_property_suite())

    def next_probe_time(self) -> float:
        """Simulated time at which the next stall probe starts."""
        now = self.live.network.sim.now
        if self.churn_start is None:
            return now + PROBE_GAP
        flips = math.floor((now - self.churn_start) / CHURN_PERIOD) + 1
        return self.churn_start + flips * CHURN_PERIOD + CHURN_LANDING


@dataclass(frozen=True)
class Scenario:
    """Set-up + one campaign + stall probes."""

    name: str
    build: Callable[[int], Rig]  # --seed -> converged rig
    config: OrchestratorConfig
    probes: int
    # The fault class a hunt is seeded with; None = healthy topology,
    # which must report no fault at all.
    expect: str | None = None

    def campaign(self, quick: bool) -> OrchestratorConfig:
        """A fresh config object per campaign (configs are mutable)."""
        if not quick:
            return dataclasses.replace(self.config)
        return dataclasses.replace(
            self.config, **QUICK_CAMPAIGN,
            explorer_nodes=self.config.explorer_nodes[:1],
        )


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[Scenario, ...]
    # The live system changes under the probes, so at least one cut per
    # repetition must record in-flight messages.
    churn: bool = False


@dataclass
class Repetition:
    """Everything measured and produced by one repetition."""

    setup_s: float = 0.0
    campaign_s: float = 0.0
    wall_s: float = 0.0
    stall_ms: list[float] = field(default_factory=list)
    snapshot_bytes: list[int] = field(default_factory=list)
    channel_msgs: list[int] = field(default_factory=list)
    results: list[Any] = field(default_factory=list)  # CampaignResult
    # The last probe's snapshot and its pickle, for the round-trip check.
    last_capture: tuple[Any, bytes] | None = None
    peak_rss_mib: float = 0.0
    spans: list = field(default_factory=list)  # empty unless traced
    problems: list[str] = field(default_factory=list)

    @property
    def inputs(self) -> int:
        return sum(result.inputs_explored for result in self.results)

    @property
    def operations(self) -> int:
        """Node sessions + campaigns + direct captures."""
        sessions = sum(len(result.node_reports) for result in self.results)
        return sessions + len(self.results) + len(self.stall_ms)


def pickle_snapshot(snapshot) -> bytes:
    """The bytes a worker task would carry.  A function of its own so
    the tracer can wrap it like any other layer boundary."""
    return pickle.dumps(snapshot)


def run_repetition(workload: Workload, seed: int,
                   quick: bool = False) -> Repetition:
    rep = Repetition()
    began = time.perf_counter()
    for scenario in workload.scenarios:
        started = time.perf_counter()
        rig = scenario.build(seed)
        rep.setup_s += time.perf_counter() - started

        config = scenario.campaign(quick)
        started = time.perf_counter()
        result = rig.dice.run_campaign(config)
        rep.campaign_s += time.perf_counter() - started
        rep.results.append(result)

        for index in range(1 if quick else scenario.probes):
            rig.live.run(until=rig.next_probe_time())
            initiator = rig.initiators[index % len(rig.initiators)]
            started = time.perf_counter()
            snapshot = rig.live.coordinator.capture(initiator)
            rep.stall_ms.append((time.perf_counter() - started) * 1000.0)
            blob = pickle_snapshot(snapshot)
            rep.snapshot_bytes.append(len(blob))
            rep.channel_msgs.append(len(snapshot.channels))
            rep.last_capture = (snapshot, blob)
    rep.wall_s = time.perf_counter() - began
    return rep


# -- set-up functions (everything `setup_s` covers) --


def _demo27(seed: int) -> Rig:
    topology = build_demo27()
    live = LiveSystem.build(topology.configs, topology.links, seed=seed)
    live.converge(deadline=600)
    return Rig(live, initiators=topology.nodes_in_tier(1))


def _crash_bug(seed: int) -> Rig:
    live = quickstart_system(seed=seed)
    router = live.router("r2")
    router.config = dataclasses.replace(
        router.config,
        enabled_bugs=frozenset({faults.BUG_COMMUNITY_CRASH}),
    )
    live.converge()
    return Rig(live, initiators=["r1", "r2", "r3"])


def _bad_gadget(seed: int) -> Rig:
    configs, links = build_bad_gadget()
    live = LiveSystem.build(configs, links, seed=seed)
    live.run(until=3)
    return Rig(live, initiators=["r1", "r2", "r3"])


def _hijack(seed: int) -> Rig:
    live = quickstart_system(seed=seed)
    live.converge()
    # The operator's mistake: r3 originates r1's prefix.
    live.apply_change("r3", AddNetwork(Prefix("10.1.0.0/16")))
    live.run(until=live.network.sim.now + 5)
    return Rig(live, initiators=["r1", "r2", "r3"])


def _internet40_churn(seed: int) -> Rig:
    topology = build_internet(INTERNET40)
    live = LiveSystem.build(topology.configs, topology.links, seed=seed)
    live.converge(deadline=600)
    # The churn schedule is the one other thing --seed decides: which
    # stub flaps and at what phase.
    rng = random.Random(seed)
    stubs = topology.nodes_in_tier(3)
    churn_start = live.network.sim.now + 1.0 + rng.random()
    live.enable_churn(
        stubs[rng.randrange(len(stubs))], CHURN_PREFIX,
        period=CHURN_PERIOD, start_at=churn_start,
    )
    return Rig(live, initiators=topology.nodes_in_tier(1),
               churn_start=churn_start)


# -- the workloads --

_DEMO27_CAMPAIGN = OrchestratorConfig(
    explorer_nodes=["tr-1", "tr-2"],
    cycles=2,
    inputs_per_node=2,
    grammar_seeds=1,
    horizon=3.0,
    seed=27,
    workers=1,
    pipeline=False,
)

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("demo27-serial", (
            Scenario("demo27", _demo27, _DEMO27_CAMPAIGN, probes=4),
        )),
        Workload("demo27-parallel", (
            Scenario(
                "demo27", _demo27,
                dataclasses.replace(_DEMO27_CAMPAIGN, workers=2,
                                    pipeline=True, transport="loopback"),
                probes=4,
            ),
        )),
        Workload("hunt-faults", (
            Scenario(
                "community-crash", _crash_bug,
                OrchestratorConfig(
                    inputs_per_node=50, explorer_nodes=["r2"],
                    grammar_seeds=5, seed=13, stop_after_first_fault=True,
                ),
                probes=4, expect=FAULT_PROGRAMMING_ERROR,
            ),
            Scenario(
                "bad-gadget", _bad_gadget,
                OrchestratorConfig(
                    inputs_per_node=2, horizon=15.0, explorer_nodes=["r1"],
                    seed=4, stop_after_first_fault=True,
                ),
                probes=4, expect=FAULT_POLICY_CONFLICT,
            ),
            Scenario(
                "hijack", _hijack,
                OrchestratorConfig(
                    inputs_per_node=4, explorer_nodes=["r3"], seed=2,
                    stop_after_first_fault=True,
                ),
                probes=4, expect=FAULT_OPERATOR_MISTAKE,
            ),
        )),
        Workload("internet40-churn", (
            Scenario(
                "internet40", _internet40_churn,
                OrchestratorConfig(
                    strategy="grammar", explorer_nodes=["tr-1", "tr-2"],
                    inputs_per_node=2, horizon=3.0, seed=1, workers=1,
                    pipeline=False,
                ),
                probes=5,
            ),
        ), churn=True),
    )
}
