"""Shared fixtures for the campaign-determinism test suites.

The equality matrices under ``tests/core/`` all assert that execution
mode (worker count, shard placement, transport, failover) never
changes campaign results; they must build the same faulty system and
compare the same fingerprint fields, so those live here once.
"""

import dataclasses

from repro import quickstart_system
from repro.bgp import faults
from repro.bgp.config import AddNetwork
from repro.bgp.ip import Prefix
from repro.concolic.frontier import FrontierShard
from repro.core.live import LiveSystem
from repro.topo.demo27 import build_demo27
from repro.topo.gadgets import build_bad_gadget


def faulty_live():
    """A converged system with a crash bug on r2 and a hijack at r3."""
    live = quickstart_system(seed=42)
    router = live.router("r2")
    router.config = dataclasses.replace(
        router.config,
        enabled_bugs=frozenset({faults.BUG_COMMUNITY_CRASH}),
    )
    live.converge()
    live.apply_change("r3", AddNetwork(Prefix("10.1.0.0/16")))
    live.run(until=live.network.sim.now + 5)
    return live


def demo27_live():
    """The converged 27-router topology."""
    topology = build_demo27()
    live = LiveSystem.build(topology.configs, topology.links, seed=0)
    live.converge(deadline=600)
    return live


def crash_live():
    """The benchmark's crash hunt: r2 crashes on a community it
    mishandles."""
    live = quickstart_system(seed=0)
    router = live.router("r2")
    router.config = dataclasses.replace(
        router.config,
        enabled_bugs=frozenset({faults.BUG_COMMUNITY_CRASH}),
    )
    live.converge()
    return live


def bad_gadget_live():
    """The benchmark's policy-conflict hunt: BAD GADGET, oscillating."""
    configs, links = build_bad_gadget()
    live = LiveSystem.build(configs, links, seed=0)
    live.run(until=3)
    return live


def hijack_live():
    """The benchmark's operator-mistake hunt: r3 originates r1's
    prefix."""
    live = quickstart_system(seed=0)
    live.converge()
    live.apply_change("r3", AddNetwork(Prefix("10.1.0.0/16")))
    live.run(until=live.network.sim.now + 5)
    return live


def whole_session(budget):
    """The one round-0 shard a whole session of ``budget`` inputs is."""
    return FrontierShard(round=0, index=0, count=1, budget=budget)


def report_fingerprint(result):
    """Everything deterministic about a campaign's fault reports.

    Wall-clock stamps vary by machine, so they are excluded; snapshot
    ids count the live system's own captures, so they are not.
    """
    return [
        (r.fault_class, r.property_name, r.node, r.detected_at,
         r.input_summary, r.inputs_explored, r.snapshot_id)
        for r in result.reports
    ]


def node_fingerprint(result):
    """The deterministic per-node exploration counters — what a session
    found and what it cost, solver work included."""
    return [
        (n.node, n.strategy, n.executions, n.unique_paths, n.branch_coverage,
         n.shape_coverage, n.clones_created, n.crashes, len(n.violations),
         n.solver_queries, n.solver_sat)
        for n in result.node_reports
    ]


def campaign_fingerprint(result):
    """Everything the determinism contract covers, in one tuple."""
    return (
        report_fingerprint(result),
        node_fingerprint(result),
        result.inputs_explored,
        result.snapshots_taken,
        result.solver_queries,
    )
