"""EXP-SHARD — intra-session frontier sharding on a skewed campaign.

The scenario parallel workers cannot help with: one hot explorer node
owns the whole exploration budget, so a whole-session task pins every
cycle to a single worker slot no matter how many slots exist.  Frontier
sharding splits that one session's branch frontier into shard tasks and
spreads them over the idle slots, with leftovers re-dealt (work
stealing) at round barriers.

Three campaigns over one transit router of the 27-router demo topology:

* A — ``workers=4``, unsharded: the skew baseline (slots sit idle);
* B — ``workers=4``, ``frontier_shards=4``: the sharded campaign;
* C — ``workers=1``, ``frontier_shards=4``: the *same* decomposition on
  one worker — the serial reference the determinism contract is
  defined against.

Reported: wall-clock speedup of B over A, plus the equality check
B == C on fault classes and per-node counters — paths, coverage,
clones, crashes, solver queries (``all_identical`` — gated by CI;
worker count must never change what DiCE finds).

The exit status is non-zero when ``all_identical`` fails or the
speedup misses ``--min-speedup`` (default 1.5x).  The timing gate
auto-skips when the host has fewer cores than worker slots — a
1-core box can only measure oversubscription, not the feature — and
CI passes ``--min-speedup 0`` outright because shared runners make
wall-clock noise, not signal.  Equality is gated everywhere.

Run:  python benchmarks/bench_frontier_sharding.py --json out/
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import benchlib

from repro import DiceOrchestrator, LiveSystem, OrchestratorConfig
from repro.checks import default_property_suite
from repro.topo.demo27 import build_demo27

BENCH = "frontier_sharding"


def build_live(seed: int) -> tuple[LiveSystem, str]:
    """The converged demo27 system and its first transit router."""
    topology = build_demo27()
    live = LiveSystem.build(topology.configs, topology.links, seed=seed)
    live.converge(deadline=600)
    return live, topology.nodes_in_tier(2)[0]


def run_campaign(workers: int, shards: int, args: argparse.Namespace):
    """One campaign with the whole budget on the single hot node."""
    live, hot_node = build_live(args.seed)
    dice = DiceOrchestrator(live, default_property_suite())
    return dice.run_campaign(
        OrchestratorConfig(
            inputs_per_node=args.inputs,
            cycles=args.cycles,
            explorer_nodes=[hot_node],
            horizon=args.horizon,
            seed=args.seed,
            workers=workers,
            frontier_shards=shards,
        )
    )


def campaign_summary(result):
    """The equality tuple: everything placement must not change."""
    return (
        result.fault_classes_found(),
        sorted(
            (report.node, report.executions, report.unique_paths,
             report.branch_coverage, report.shape_coverage,
             report.clones_created, report.crashes,
             report.solver_queries, report.solver_sat)
            for report in result.node_reports
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4,
                        help="worker slots for campaigns A and B")
    parser.add_argument("--shards", type=int, default=4,
                        help="frontier_shards for campaigns B and C")
    parser.add_argument("--inputs", type=int, default=48,
                        help="exploration inputs for the hot node")
    parser.add_argument("--cycles", type=int, default=1)
    parser.add_argument("--horizon", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=27)
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="fail below this sharded-vs-unsharded "
                             "speedup (0 disables the timing gate)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write BENCH_frontier_sharding.json here "
                             "(file or directory)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    unsharded = run_campaign(args.workers, 1, args)
    sharded = run_campaign(args.workers, args.shards, args)
    serial = run_campaign(1, args.shards, args)

    speedup = unsharded.wall_time_s / max(sharded.wall_time_s, 1e-9)
    all_identical = campaign_summary(sharded) == campaign_summary(serial)
    cores = os.cpu_count() or 1
    if args.min_speedup <= 0:
        timing_gate = "disabled (--min-speedup 0)"
    elif cores < args.workers:
        timing_gate = (f"skipped ({cores} core(s) < {args.workers} "
                       f"workers: no parallelism to measure)")
    else:
        timing_gate = f"enforced (>= {args.min_speedup}x)"
    metrics = {
        "unsharded_wall_s": round(unsharded.wall_time_s, 4),
        "sharded_wall_s": round(sharded.wall_time_s, 4),
        "serial_sharded_wall_s": round(serial.wall_time_s, 4),
        "speedup": round(speedup, 3),
        "inputs_explored": sharded.inputs_explored,
        "unique_paths": sum(
            report.unique_paths for report in sharded.node_reports
        ),
        "branch_coverage": max(
            (report.branch_coverage for report in sharded.node_reports),
            default=0,
        ),
        "fault_classes": sharded.fault_classes_found(),
        "all_identical": all_identical,
        "timing_gate": timing_gate,
    }
    config = {
        "workers": args.workers,
        "frontier_shards": args.shards,
        "inputs_per_node": args.inputs,
        "cycles": args.cycles,
        "horizon": args.horizon,
        "seed": args.seed,
        "topology": "demo27, single hot transit router",
    }

    print(f"EXP-SHARD — demo27 hot node, {args.inputs} inputs x "
          f"{args.cycles} cycle(s)")
    print(f"{'campaign':<26}{'wall (s)':>10}{'paths':>8}")
    rows = (
        (f"A {args.workers}w unsharded", unsharded),
        (f"B {args.workers}w x{args.shards} shards", sharded),
        (f"C 1w x{args.shards} shards", serial),
    )
    for label, result in rows:
        paths = sum(r.unique_paths for r in result.node_reports)
        print(f"{label:<26}{result.wall_time_s:>10.2f}{paths:>8}")
    print(f"speedup (A/B): {speedup:.2f}x   B == C: {all_identical}")
    print(f"timing gate: {timing_gate}")

    if args.json:
        path = benchlib.write_payload(args.json, BENCH, metrics, config)
        print(f"JSON written to {path}")
    else:
        print(json.dumps(benchlib.payload(BENCH, metrics, config),
                         sort_keys=True))
    if not all_identical:
        print("FAIL: sharded campaign diverged from the serial reference")
        return 1
    if timing_gate.startswith("enforced") and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below "
              f"--min-speedup {args.min_speedup}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
