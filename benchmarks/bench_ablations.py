"""Ablation benchmarks for the design choices DESIGN.md calls out.

* **frontier discipline** — BFS (SAGE-style generational default) vs
  DFS vs coverage-first queueing in the concolic engine, measured on the
  real UPDATE decoder;
* **route-flap damping** — RFC 2439 damping on the BAD GADGET wheel:
  damping collapses the churn by parking the flapping routes in
  suppressed state — the conflict is *masked*, not fixed (reachability
  through the suppressed paths is lost), which is the operational
  argument for detecting the conflict rather than damping its symptom;
* **MRAI** — advertisement batching reduces UPDATE volume under churn
  without changing the converged state.

Run:  pytest benchmarks/bench_ablations.py --benchmark-only -s
"""

import dataclasses
import random

import pytest

import benchlib

from repro.bgp.damping import DampingParams
from repro.bgp.errors import BGPError
from repro.bgp.messages import decode_message
from repro.concolic.engine import ConcolicEngine
from repro.concolic.frontier import Frontier
from repro.concolic.grammar import UpdateGrammar
from repro.concolic.solver import Solver
from repro.core.live import LiveSystem
from repro.topo.gadgets import GADGET_PREFIX, build_bad_gadget

FRONTIER_RESULTS = {}


@pytest.mark.parametrize("frontier", ["bfs", "dfs", "coverage"])
def test_frontier_discipline(benchmark, frontier):
    """Unique decoder paths at a fixed 120-execution budget."""

    def program(sym):
        try:
            return decode_message(sym)
        except BGPError:
            return "protocol_error"

    def explore():
        engine = ConcolicEngine(program, solver=Solver(seed=7))
        grammar = UpdateGrammar(rng=random.Random(11))
        seeds = [
            generated.symbolic(prefix=f"f{index}_")
            for index, generated in enumerate(grammar.generate_many(3))
        ]
        return engine.run_shard(Frontier.from_seeds(seeds, frontier), 120)

    result = benchmark.pedantic(explore, rounds=1, iterations=1)
    FRONTIER_RESULTS[frontier] = result
    print(
        f"\n  {frontier:<9} paths={result.unique_paths:<4} "
        f"coverage={result.branch_coverage:<4} "
        f"crashes={len(result.crashes)}"
    )
    benchlib.record(
        "ablations",
        metrics={f"{frontier}_unique_paths": result.unique_paths},
        config={"budget": 120},
    )
    assert result.unique_paths > 40  # all disciplines explore plenty


def _gadget_churn(damping, horizon=60.0):
    configs, links = build_bad_gadget()
    if damping is not None:
        configs = [
            config if config.name == "d"
            else dataclasses.replace(config, damping=damping)
            for config in configs
        ]
    live = LiveSystem.build(configs, links, seed=3)
    live.run(until=5)  # oscillation underway
    start = {
        router.name: router.loc_rib.changes_total
        for router in live.routers()
    }
    live.run(until=live.network.sim.now + horizon)
    return live, sum(
        router.loc_rib.changes_total - start[router.name]
        for router in live.routers()
    )


def test_damping_ablation(benchmark):
    """RFC 2439 damping cuts BAD GADGET churn rate; conflict remains."""
    _, undamped_churn = _gadget_churn(None)

    def run_damped():
        return _gadget_churn(
            DampingParams(half_life_s=30.0, suppress_threshold=2000.0)
        )

    live, damped_churn = benchmark.pedantic(run_damped, rounds=1, iterations=1)
    print(
        f"\n  churn over 60s: undamped={undamped_churn} "
        f"damped={damped_churn} "
        f"(reduction {1 - damped_churn / undamped_churn:.0%})"
    )
    assert damped_churn < undamped_churn / 2
    # The conflict is mitigated, not fixed: routes for the prefix are
    # either still flapping or parked on suppressed state.
    suppressed = sum(
        len(list(router.dampener.suppressed_routes(router.now)))
        for router in live.routers()
        if router.dampener is not None
    )
    print(f"  suppressed (peer,prefix) pairs at end: {suppressed}")
    assert suppressed > 0 or damped_churn > 0


def test_mrai_ablation(benchmark):
    """MRAI batching reduces UPDATE volume on the oscillating wheel."""

    def total_updates(mrai):
        configs, links = build_bad_gadget()
        if mrai:
            configs = [
                dataclasses.replace(config, mrai=mrai) for config in configs
            ]
        live = LiveSystem.build(configs, links, seed=3)
        live.run(until=60)
        return sum(
            session.stats.updates_sent
            for router in live.routers()
            for session in router.sessions.values()
        )

    without = total_updates(0.0)
    with_mrai = benchmark.pedantic(
        lambda: total_updates(5.0), rounds=1, iterations=1
    )
    print(f"\n  UPDATEs in 60s: mrai=0 -> {without}, mrai=5s -> {with_mrai}")
    assert with_mrai < without
    # Sanity: the origin still reaches everyone.
    configs, links = build_bad_gadget()
    configs = [dataclasses.replace(c, mrai=5.0) for c in configs]
    live = LiveSystem.build(configs, links, seed=4)
    live.run(until=30)
    assert live.router("r1").adj_rib_in["d"].get(GADGET_PREFIX) is not None
