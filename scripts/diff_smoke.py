#!/usr/bin/env python
"""Differential smoke: the reference oracle over every built-in topology.

The CI ``diff-smoke`` job runs this script as the standing contract for
the differential subsystem:

* demo27 and every gadget that settles must verify against the
  reference oracle with **zero divergences** — the simulator and the
  independent RFC 4271 re-derivation agree route-for-route,
  attribute-for-attribute;
* the intentionally non-convergent gadget (bad-gadget) must be
  reported as non-convergent by the oracle too, not "verified";
* a campaign with ``--differential reference`` must produce the same
  oracle verdict at any worker count (the pre-pass runs before
  exploration, so this is checked with a serial vs 2-worker run).

Exit status 0 = all contracts hold.

Usage: PYTHONPATH=src python scripts/diff_smoke.py
"""

import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro import DiceOrchestrator, OrchestratorConfig  # noqa: E402
from repro.checks import default_property_suite  # noqa: E402
from repro.core.live import LiveSystem  # noqa: E402
from repro.differential.extract import (  # noqa: E402
    capture_canonical_ribs,
    network_settled,
    oracle_for_live,
    settle_live,
)
from repro.differential.reference import ReferenceBackend  # noqa: E402
from repro.topo.demo27 import build_demo27  # noqa: E402
from repro.topo.gadgets import GADGETS  # noqa: E402

NON_CONVERGENT = {"bad-gadget"}


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    raise SystemExit(1)


def verify_topology(name: str, configs, links) -> int:
    """Settle the simulator and verify against the oracle; returns the
    number of routes checked."""
    started = time.monotonic()
    live = LiveSystem.build(configs, links, seed=11)
    settle_live(live, deadline=600.0)
    if not network_settled(live):
        fail(f"{name}: simulator did not settle")
    ribs = capture_canonical_ribs(live)
    divergences = oracle_for_live(live).verify_fixpoint(ribs)
    if divergences:
        for divergence in divergences[:10]:
            print(f"  {divergence.describe()}")
        fail(f"{name}: {len(divergences)} divergence(s)")
    routes = sum(len(table) for table in ribs.values())
    elapsed = time.monotonic() - started
    print(f"  ok    {name:<18} {routes:>4} routes, 0 divergences "
          f"({elapsed:.1f}s)")
    return routes


def verify_non_convergent(name: str, configs, links) -> None:
    outcome = ReferenceBackend().converged_ribs(configs, links)
    if outcome.converged:
        fail(f"{name}: oracle converged but the gadget must oscillate")
    print(f"  ok    {name:<18} oracle reports non-convergence")


def campaign_verdict(workers: int) -> tuple[int, int]:
    topology = build_demo27()
    live = LiveSystem.build(topology.configs, topology.links, seed=3)
    settle_live(live, deadline=600.0)
    dice = DiceOrchestrator(live, default_property_suite())
    result = dice.run_campaign(OrchestratorConfig(
        inputs_per_node=3, explorer_nodes=["tr-1"], seed=1,
        workers=workers, differential="reference",
    ))
    verdict = result.differential
    if verdict.skipped:
        fail(f"campaign (workers={workers}) skipped the oracle: "
             f"{verdict.skipped}")
    return verdict.divergences, verdict.prefixes_checked


def main() -> None:
    print("differential smoke: reference oracle vs simulator")

    print("fixpoint verification:")
    total_routes = 0
    topology = build_demo27()
    total_routes += verify_topology(
        "demo27", topology.configs, topology.links
    )
    for name, builder in GADGETS.items():
        configs, links = builder()
        if name in NON_CONVERGENT:
            verify_non_convergent(name, configs, links)
            continue
        total_routes += verify_topology(name, configs, links)

    print("campaign pre-pass, serial vs 2 workers:")
    serial = campaign_verdict(workers=1)
    sharded = campaign_verdict(workers=2)
    if serial != sharded:
        fail(f"worker count changed the verdict: {serial} != {sharded}")
    if serial[0] != 0:
        fail(f"campaign pre-pass found {serial[0]} divergence(s)")
    print(f"  ok    verdict identical at both worker counts "
          f"({serial[1]} routes, 0 divergences)")

    print(f"diff-smoke PASS: {total_routes} routes verified, "
          f"0 divergences everywhere")


if __name__ == "__main__":
    main()
