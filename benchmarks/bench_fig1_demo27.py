"""FIG1 — the demo experiment: DiCE over 27 BGP routers.

Regenerates the content of the paper's Figure 1: the 27-router
Internet-like topology with DiCE exploring BGP behaviour on it.  The
benchmark measures one full exploration cycle (snapshot -> clones ->
inputs -> checks) at three transit routers; the printed dashboard is the
figure's textual equivalent.

Run:  pytest benchmarks/bench_fig1_demo27.py --benchmark-only -s
"""

import benchlib

from repro.checks import default_property_suite
from repro.checks.reachability import convergence_complete
from repro.core.live import LiveSystem
from repro.core.orchestrator import DiceOrchestrator, OrchestratorConfig
from repro.topo.demo27 import build_demo27
from repro.viz import render_campaign, render_topology


def build_converged_live(seed=27):
    topology = build_demo27()
    live = LiveSystem.build(topology.configs, topology.links, seed=seed)
    live.converge(deadline=600)
    return topology, live


def test_fig1_convergence(benchmark):
    """Baseline: bring the 27-router system to convergence."""

    def converge():
        _, live = build_converged_live()
        return live

    live = benchmark.pedantic(converge, rounds=1, iterations=1)
    assert convergence_complete(live.network)
    assert live.total_routes() == 27 * 27  # every prefix everywhere


def test_fig1_exploration_cycle(benchmark):
    """One DiCE cycle over three transit routers of the demo topology."""
    topology, live = build_converged_live()
    dice = DiceOrchestrator(live, default_property_suite())
    nodes = topology.nodes_in_tier(2)[:3]

    def cycle():
        return dice.run_campaign(
            OrchestratorConfig(
                inputs_per_node=10,
                explorer_nodes=nodes,
                horizon=3.0,
                seed=27,
                workers=benchlib.workers(),
            )
        )

    result = benchmark.pedantic(cycle, rounds=1, iterations=1)
    print()
    print(render_topology(topology))
    print()
    print(render_campaign(result))
    benchlib.record(
        "fig1_demo27",
        metrics={
            "inputs_explored": result.inputs_explored,
            "clones_created": result.clones_created,
            "cycle_wall_s": round(result.wall_time_s, 3),
        },
        config={"nodes": 27, "workers": benchlib.workers()},
    )
    assert result.snapshots_taken == 3
    assert 20 <= result.inputs_explored <= 30
    # Healthy topology: exploration must not raise false alarms.
    assert result.fault_classes_found() == []
