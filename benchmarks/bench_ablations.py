"""Ablation benchmarks for the design choices DESIGN.md calls out.

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

from repro.bgp.damping import DampingParams
from repro.core.live import LiveSystem
from repro.topo.gadgets import GADGET_PREFIX, build_bad_gadget


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
