#!/usr/bin/env python3
"""Benchmark trajectory gate: diff fresh BENCH_*.json against a baseline.

Every benchmark writes ``BENCH_<name>.json`` in the common schema
(``benchmarks/benchlib.py``) and CI uploads the files as artifacts.
This script compares a fresh run against the previous run's downloaded
artifacts and fails when a *gated* metric regressed beyond tolerance —
so a perf-regressing PR fails in CI rather than silently bending the
trajectory.

Only metrics listed in ``GATED_METRICS`` participate: each has a known
good direction, and timing-style metrics are excluded entirely (shared
CI runners make wall-clock noise, not signal).  A missing baseline —
first run, renamed bench, expired artifact — is reported and skipped,
never failed.

A metric whose definition changes takes a new name.  Its first run then
has no baseline and is skipped, and the run after compares like with
like.  Kept under the old name, an intended shift past tolerance would
fail every run against the last green baseline, which no later run can
replace while the gate fails.

Run:  python scripts/check_bench_regression.py \
          --baseline bench-baseline --current bench-results \
          [--tolerance 0.25]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

# metric name -> direction ("higher" is better / "lower" is better).
# Counters and deterministic rates only — never wall-clock seconds or
# anything derived from them ("speedup"):
# those stay informational because shared-runner timing noise would
# fail CI without a real regression.
GATED_METRICS = {
    "sat_rate": "higher",
    "unique_paths": "higher",
    "branch_coverage": "higher",
    "clone_route_sharing": "higher",
    # bench_solver: 476 684 before dead flips were refuted up front,
    # about 1 000 since; a lost refutation is 8 200 rounds a query.
    "repair_rounds": "lower",
    # bench_solver: calls to the refutation pre-pass's _reach plus
    # Constraint.holds, per flip query.  125.5 while every flip was
    # asked as a fresh list, its whole prefix bounded and evaluated
    # again; 10.2 since every flip of a path is asked against the
    # path's one incremental path condition.
    "constraint_visits_per_query": "lower",
    # bench_overhead: clones a session makes beyond one per input. 3
    # while peer pick and grammar seeding each cloned the whole system
    # to read one router, 1 (the null probe) since.
    "session_overhead_clones": "lower",
    # bench_overhead, grammar inputs at a converged 40-router internet's
    # transit router: routers a clone restores.  40 while a clone
    # restored every router up front (27 on demo27), 1.0 since a clone
    # restores a router only when an event reaches it.
    "routers_restored_per_clone": "lower",
    # bench_overhead, converged 40-router internet: distinct attribute
    # values / attribute objects in a snapshot, and the snapshot's
    # pickle.  0.23 and 1 437 KiB while every UPDATE was decoded into
    # fresh objects per receiver; 1.0 and 472 KiB since a network's
    # routers share one object per value; 380.1 KiB while an
    # Adj-RIB-Out held a Route per peer and prefix, 286.6 KiB since it
    # holds the attribute set sent (the dumps/loads ms beside them are
    # wall-clock, so informational).
    "snapshot_attr_sharing": "higher",
    "snapshot_pickle_kib": "lower",
    # bench_event_loop: heap entries written per event run on the
    # bad-gadget null probe, 2.00 while every re-armed hold timer
    # scheduled a new event and 1.00 since it moves the armed one; and
    # objects the cyclic collector tracks for a converged 40-router
    # internet, 39 291 with 3 809 dead events queued, 22 704 since;
    # 20 296 since an Adj-RIB-Out holds attribute sets, not routes.
    "queue_pushes_per_event": "lower",
    "live_gc_objects": "lower",
    # bench_event_loop, converged 40-router internet: Python and C calls
    # per Filter.evaluate, replaying each distinct (filter, route,
    # default LOCAL_PREF) evaluation once, so how often a cheap filter
    # runs does not move it: 28.18 over 6 434 since a constant operand
    # is held rather than called (31.0 before).  It replaces
    # policy_calls_per_eval, the mean over every evaluation made, which
    # update groups lifted 22.9 -> 26.7 by running half the cheap export
    # filters, with no filter dearer (75.4 while a filter walked its AST
    # on every route).  And distinct Filter objects in its configs, 328
    # with one per session and 6 with one per role.
    "policy_calls_per_distinct_eval": "lower",
    "internet40_filter_objects": "lower",
    # bench_event_loop: export-filter evaluations while the converging
    # 40-router internet propagates, 6 625 with one per peer and 3 378
    # with one per change and update group (export filter, iBGP, MED).
    "export_filter_runs": "lower",
}

# Booleans that must never flip to False once True.
GATED_FLAGS = ("fault_classes_identical", "all_identical",
               "zero_divergences")


def load_payloads(directory: str) -> dict[str, dict]:
    """Map bench name -> payload for every BENCH_*.json in a tree."""
    payloads: dict[str, dict] = {}
    pattern = os.path.join(directory, "**", "BENCH_*.json")
    for path in sorted(glob.glob(pattern, recursive=True)):
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"warning: skipping unreadable {path}: {error}")
            continue
        name = payload.get("bench")
        if name:
            payloads[name] = payload
    return payloads


def compare(bench: str, baseline: dict, current: dict,
            tolerance: float) -> list[str]:
    """Regression messages for one benchmark (empty = clean)."""
    problems = []
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})

    def comparable(config: dict) -> dict:
        # Environment facts recorded for context (runner hardware) must
        # not disable the gate — only genuine budget/seed changes do.
        return {
            key: value
            for key, value in (config or {}).items()
            if key not in ("cpu_count",)
        }

    if comparable(baseline.get("config")) != comparable(
            current.get("config")):
        # Different budget/workers/seed: numbers are not comparable.
        print(f"  {bench}: config changed, skipping comparison")
        return problems
    for metric, direction in GATED_METRICS.items():
        base = base_metrics.get(metric)
        cur = cur_metrics.get(metric)
        if not isinstance(base, (int, float)) or isinstance(base, bool):
            continue
        if not isinstance(cur, (int, float)) or isinstance(cur, bool):
            problems.append(f"{bench}: metric {metric} disappeared")
            continue
        if direction == "higher":
            floor = base * (1.0 - tolerance)
            if cur < floor:
                problems.append(
                    f"{bench}: {metric} regressed {base} -> {cur} "
                    f"(floor {floor:.4g} at tolerance {tolerance:.0%})"
                )
        else:
            ceiling = base * (1.0 + tolerance)
            if cur > ceiling:
                problems.append(
                    f"{bench}: {metric} regressed {base} -> {cur} "
                    f"(ceiling {ceiling:.4g} at tolerance {tolerance:.0%})"
                )
    for flag in GATED_FLAGS:
        if base_metrics.get(flag) is not True:
            continue
        value = cur_metrics.get(flag)
        if value is False:
            problems.append(f"{bench}: {flag} flipped True -> False")
        elif value is not True:
            # A vanished flag must not silently un-gate determinism.
            problems.append(f"{bench}: gated flag {flag} disappeared")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="directory of the previous run's BENCH_*.json")
    parser.add_argument("--current", required=True,
                        help="directory of this run's BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative slack per metric")
    args = parser.parse_args(argv)

    current = load_payloads(args.current)
    if not current:
        print(f"error: no BENCH_*.json under {args.current}")
        return 2
    if not os.path.isdir(args.baseline):
        print(f"no baseline directory {args.baseline}; "
              "first run — nothing to compare")
        return 0
    baseline = load_payloads(args.baseline)
    if not baseline:
        print(f"no baseline payloads under {args.baseline}; skipping")
        return 0

    problems: list[str] = []
    compared = 0
    for bench, payload in sorted(current.items()):
        if bench not in baseline:
            print(f"  {bench}: no baseline (new benchmark)")
            continue
        compared += 1
        problems.extend(
            compare(bench, baseline[bench], payload, args.tolerance)
        )
    print(f"compared {compared} benchmark(s) against baseline")
    if problems:
        print("\nREGRESSIONS:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("no regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
