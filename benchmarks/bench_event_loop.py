"""EXP-LOOP — what the event loop and one BGP UPDATE cost.

The simulator runs every clone DiCE explores and the live system beside
it, so its constant costs per message are paid on both sides.  Six
numbers, four of them deterministic and gated by CI:

* ``queue_pushes_per_event`` — heap entries written (schedule + push
  back) per event run, over the null probe of the bad-gadget hunt: a
  clone of the oscillating wheel run for 15 simulated seconds.  Every
  message re-arms a hold timer; when re-arming moves the timer's event
  instead of scheduling another, this falls towards one message
  delivery per event.  Gated "lower".
* ``live_gc_objects`` — objects the cyclic collector tracks that a
  converged 40-router internet adds to the process: what every full
  collection in a campaign walks.  Gated "lower".  Beside it, for
  context: ``live_dead_events`` (cancelled events still queued) and
  ``full_collection_ms`` (one ``gc.collect()`` with the system alive).
* ``handle_update_us`` — one UPDATE through ``handle_raw`` on a demo27
  transit router: decode (memoized), import, decision, export to every
  peer.  Wall-clock, so informational.
* ``policy_evaluate_us`` — one import-filter evaluation on the same
  router.  Informational.
* ``policy_calls_per_eval`` — Python and C calls (``sys.setprofile``
  events) per ``Filter.evaluate``, replaying every evaluation a
  40-router internet made while it converged.  Gated "lower".
* ``internet40_filter_objects`` — distinct ``Filter`` objects in that
  internet's configs.  Gated "lower".

Run:  python benchmarks/bench_event_loop.py [--json DIR]
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import sys
import time

import benchlib

from repro import LiveSystem, quickstart_system
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.ip import Prefix
from repro.bgp.messages import UpdateMessage
from repro.bgp.policy import Filter
from repro.core.live import bgp_process_factory
from repro.net import sim as sim_module
from repro.topo.demo27 import build_demo27
from repro.topo.gadgets import build_bad_gadget
from repro.topo.internet import TopologyParams, build_internet

BENCH = "event_loop"
# The bad-gadget hunt of benchmarks/e2e: settled for 3 s, probed for 15.
GADGET_SETTLE = 3.0
GADGET_HORIZON = 15.0
INTERNET40 = TopologyParams(tier1=3, transit=12, stubs=25, seed=2711)
PROBE_PREFIX = Prefix("203.0.113.0/24")


class _CountingHeapq:
    """``heapq`` as the simulator module calls it, counting every entry
    written to a heap."""

    def __init__(self):
        self.pushes = 0

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)

    def heapreplace(self, heap, item):
        self.pushes += 1
        return heapq.heapreplace(heap, item)

    heappop = staticmethod(heapq.heappop)


def pushes_per_event(seed: int) -> tuple[int, int]:
    """(heap entries written, events run) by the bad-gadget null probe."""
    configs, links = build_bad_gadget()
    live = LiveSystem.build(configs, links, seed=seed)
    live.run(until=GADGET_SETTLE)
    snapshot = live.coordinator.capture("r1")
    clone = snapshot.clone(bgp_process_factory, seed=seed)
    counter = _CountingHeapq()
    sim_module.heapq = counter
    try:
        clone.run(until=clone.sim.now + GADGET_HORIZON)
    finally:
        sim_module.heapq = heapq
    return counter.pushes, clone.sim.events_run


def live_heap(seed: int) -> dict:
    """What a converged internet40 adds to the collector's work."""
    topology = build_internet(INTERNET40)
    quickstart_system(seed=seed).converge()  # first-use caches, not counted
    gc.collect()
    before = len(gc.get_objects())
    live = LiveSystem.build(topology.configs, topology.links, seed=seed)
    live.converge(deadline=600)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    started = time.perf_counter()
    gc.collect()
    collect_ms = (time.perf_counter() - started) * 1000.0
    queue = live.network.sim._queue  # noqa: SLF001 - measuring the queue
    dead = sum(1 for entry in queue if entry[-1].cancelled)
    return {
        "live_gc_objects": tracked,
        "live_dead_events": dead,
        "full_collection_ms": round(collect_ms, 2),
    }


def best_us(fn, per_call: int, repeat: int = 5) -> float:
    """Fastest of ``repeat`` timed calls, per unit of work, in µs."""
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return round(best / per_call * 1e6, 2)


def update_costs(seed: int, rounds: int) -> dict:
    """handle_update_us and policy_evaluate_us on a demo27 transit router."""
    topology = build_demo27()
    live = LiveSystem.build(topology.configs, topology.links, seed=seed)
    live.converge(deadline=600)
    router = live.router(topology.nodes_in_tier(2)[0])
    peer = next(
        p for p in router.established_peers()
        if router.sessions[p].peer_as != router.config.local_as
    )
    neighbor = router.config.neighbor(peer)
    attributes = PathAttributes(
        as_path=AsPath.from_sequence(neighbor.peer_as),
        next_hop=live.router(peer).config.router_id,
    )
    announce = UpdateMessage(attributes=attributes,
                             nlri=(PROBE_PREFIX,)).encode()
    withdraw = UpdateMessage(withdrawn=(PROBE_PREFIX,)).encode()

    def updates():
        for _ in range(rounds):
            router.handle_raw(peer, announce)
            router.handle_raw(peer, withdraw)

    handle_us = best_us(updates, 2 * rounds)
    router.handle_raw(peer, announce)
    route = router.adj_rib_in[peer].get(PROBE_PREFIX)
    assert route is not None, "probe announcement was not accepted"
    policy = router.config.get_filter(neighbor.import_filter)
    local_pref = router.config.default_local_pref

    def evaluations():
        for _ in range(rounds):
            policy.evaluate(route, default_local_pref=local_pref)

    return {
        "handle_update_us": handle_us,
        "policy_evaluate_us": best_us(evaluations, rounds),
    }


def policy_costs(seed: int) -> dict:
    """Calls per filter evaluation, and filter objects, on internet40."""
    topology = build_internet(INTERNET40)
    evaluations = []
    evaluate = Filter.evaluate

    def recording(policy, route, default_local_pref=100):
        evaluations.append((policy, route, default_local_pref))
        return evaluate(policy, route, default_local_pref)

    Filter.evaluate = recording
    try:
        live = LiveSystem.build(topology.configs, topology.links, seed=seed)
        live.converge(deadline=600)
    finally:
        Filter.evaluate = evaluate
    events = 0

    def count(frame, event, arg):
        nonlocal events
        if event in ("call", "c_call"):
            events += 1

    sys.setprofile(count)
    try:
        for policy, route, default_local_pref in evaluations:
            policy.evaluate(route, default_local_pref)
    finally:
        sys.setprofile(None)
    filters = {id(policy) for config in topology.configs
               for policy in config.filters.values()}
    return {
        "policy_calls_per_eval": round(events / len(evaluations), 2),
        "policy_evaluations": len(evaluations),
        "internet40_filter_objects": len(filters),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=500,
                        help="UPDATE pairs / evaluations per timed call")
    parser.add_argument("--json", metavar="PATH",
                        help="write BENCH_event_loop.json (dir or file)")
    args = parser.parse_args(argv)

    pushes, events = pushes_per_event(args.seed)
    metrics = {
        "queue_pushes_per_event": round(pushes / events, 4),
        "probe_events": events,
        "probe_pushes": pushes,
        **live_heap(args.seed),
        **policy_costs(args.seed),
        **update_costs(args.seed, args.rounds),
    }
    config = {"seed": args.seed, "rounds": args.rounds,
              "gadget_horizon": GADGET_HORIZON}

    print("EXP-LOOP — event loop and UPDATE costs")
    for name, value in metrics.items():
        print(f"  {name:<24}{value:>12}")
    if args.json:
        path = benchlib.write_payload(args.json, BENCH, metrics, config)
        print(f"JSON written to {path}")
    else:
        print(json.dumps(benchlib.payload(BENCH, metrics, config),
                         sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
