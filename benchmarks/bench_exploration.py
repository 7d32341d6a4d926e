"""EXP-EXPLORE (Table C) — managing path explosion.

Compares exploration strategies at a fixed execution budget over the
real UPDATE handler of a converged router clone:

* concolic (grammar seeds + constraint negation) — the paper's approach;
* grammar-only fuzzing (valid messages, no feedback) — ablation of the
  concolic layer;
* random byte fuzzing — the classic baseline.

Also runs the start-from-current-state ablation (insight (i) of
section 2): exploring a freshly-booted, empty router reaches far fewer
distinct handler paths than exploring from converged state, because the
interesting code (decision process among candidates, policy
interactions) only executes when state exists.

Expected shape: concolic > grammar > random on unique paths; online
(current-state) > offline (initial-state) on coverage.

Run:  pytest benchmarks/bench_exploration.py --benchmark-only -s
"""

import pytest

import benchlib

from repro import quickstart_system
from repro.checks import default_property_suite
from repro.concolic.frontier import FrontierShard
from repro.core.explorer import ExplorationConfig, Explorer
from repro.core.parallel import (
    ExplorationTask,
    ParallelCampaignEngine,
    claims_to_spec,
    make_transport,
)
from repro.core.sharing import SharingRegistry

BUDGET = 60


@pytest.fixture(scope="module")
def converged_explorer():
    live = quickstart_system(seed=5)
    live.converge()
    snapshot = live.coordinator.capture("r2")
    claims = SharingRegistry.from_configs(live.initial_configs)
    return Explorer(snapshot, default_property_suite(), claims)


_RESULTS = {}


@pytest.mark.parametrize("strategy", ["concolic", "grammar", "random"])
def test_strategy_at_fixed_budget(benchmark, converged_explorer, strategy):
    def explore():
        return converged_explorer.explore(
            ExplorationConfig(
                node="r2", inputs=BUDGET, strategy=strategy, seed=17,
                horizon=2.0,
            )
        )

    report = benchmark.pedantic(explore, rounds=1, iterations=1)
    _RESULTS[strategy] = report
    print(
        f"\n  {strategy:<10} executions={report.executions:<4} "
        f"unique paths={report.unique_paths:<4} "
        f"shape coverage={report.shape_coverage}"
    )
    assert report.executions == BUDGET
    if len(_RESULTS) == 3:
        _print_table_c()


def _print_table_c():
    concolic = _RESULTS["concolic"]
    grammar = _RESULTS["grammar"]
    random_result = _RESULTS["random"]
    print("\nTable C — exploration strategies at equal budget "
          f"({BUDGET} executions)")
    print(f"{'strategy':<12}{'paths':>7}{'shape-cov':>11}{'paths/exec':>12}")
    for name, report in _RESULTS.items():
        efficiency = report.unique_paths / max(1, report.executions)
        print(
            f"{name:<12}{report.unique_paths:>7}{report.shape_coverage:>11}"
            f"{efficiency:>12.2f}"
        )
    # The paper's shape: concolic dominates on distinct paths.  (Shape
    # coverage at small budgets mildly favours gross mutation, which
    # trips many differently-shaped error checks; reported, not
    # asserted.)
    benchlib.record(
        "exploration",
        metrics={
            f"{name}_unique_paths": report.unique_paths
            for name, report in _RESULTS.items()
        },
        config={"budget": BUDGET, "workers": benchlib.workers()},
    )
    assert concolic.unique_paths >= grammar.unique_paths
    assert concolic.unique_paths > random_result.unique_paths


def test_strategy_sweep_sharded_across_workers(benchmark):
    """The three strategies as picklable tasks over one snapshot.

    Threads the suite-wide ``--workers`` knob through the parallel
    campaign engine: each strategy is an independent
    :class:`ExplorationTask`, so the sweep itself shards.
    """
    live = quickstart_system(seed=5)
    live.converge()
    snapshot = live.coordinator.capture("r2")
    claims = claims_to_spec(
        SharingRegistry.from_configs(live.initial_configs)
    )
    whole = FrontierShard(index=0, count=1, budget=BUDGET // 2)
    tasks = [
        ExplorationTask(
            config=ExplorationConfig(
                node="r2", seed=17, inputs=BUDGET // 2, strategy=strategy,
                horizon=2.0,
            ),
            shard=whole,
            snapshot=snapshot,
            suite=default_property_suite(),
            claims=claims,
        )
        for strategy in ["concolic", "grammar", "random"]
    ]
    workers = benchlib.workers()

    def sweep():
        # Submit every task, then resolve the handles in task order.
        with ParallelCampaignEngine(make_transport(workers)) as engine:
            handles = [engine.submit(task) for task in tasks]
            return [handle.result() for handle in handles]

    outcomes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert [o.report.strategy for o in outcomes] == [
        "concolic", "grammar", "random",
    ]
    assert all(o.report.executions == BUDGET // 2 for o in outcomes)
    benchlib.record(
        "exploration",
        metrics={"sweep_strategies": len(outcomes)},
        config={"workers": workers},
    )


def test_online_vs_offline_state_ablation(benchmark):
    """Insight (i): start exploration from *current* state."""
    import dataclasses

    from repro import quickstart_system as build

    # Online: converged snapshot (routes present, sessions up).
    live_online = build(seed=5)
    live_online.converge()
    online_snapshot = live_online.coordinator.capture("r2")
    claims = SharingRegistry.from_configs(live_online.initial_configs)
    online = Explorer(online_snapshot, default_property_suite(), claims)

    # Offline: the same topology started from *initial* state — no
    # originated prefixes, so RIBs are empty and the decision process,
    # export machinery and policy interactions have no material to run
    # on.  (The paper's point: testing from initial state would need a
    # long input history replayed to reach interesting states.)
    live_offline = build(seed=5)
    for router in live_offline.routers():
        router.config = dataclasses.replace(router.config, networks=())
    live_offline.converge()
    offline_snapshot = live_offline.coordinator.capture("r2")
    offline = Explorer(offline_snapshot, default_property_suite(), claims)

    def explore_online():
        return online.explore(
            ExplorationConfig(node="r2", inputs=40, seed=33, horizon=2.0)
        )

    online_report = benchmark.pedantic(explore_online, rounds=1, iterations=1)
    offline_report = offline.explore(
        ExplorationConfig(node="r2", inputs=40, seed=33, horizon=2.0)
    )
    print(
        f"\n  online  (converged state): paths={online_report.unique_paths} "
        f"coverage={online_report.branch_coverage}"
    )
    if offline_report.skipped_reason:
        print(f"  offline (initial state)  : skipped — "
              f"{offline_report.skipped_reason}")
        offline_coverage = 0
    else:
        print(
            f"  offline (initial state)  : paths="
            f"{offline_report.unique_paths} "
            f"coverage={offline_report.branch_coverage}"
        )
        offline_coverage = offline_report.branch_coverage
    assert online_report.branch_coverage > offline_coverage
