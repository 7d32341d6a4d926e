"""Span tracing from outside the program.

The benchmark wraps the public entry point of each layer while a traced
repetition runs and puts the original back afterwards; nothing under
``src/`` knows about it.  Spans stay in memory until the run ends.

A span is ``(name, start, end, parent, thread, repetition, count, id)``:
``parent`` is the id of the span that was open on the same thread when
this one started (0 at the top), ``count`` is the span's own work count
where the boundary has one (events run, messages recorded, violations
returned, bytes pickled) and 0 elsewhere.  A layer's *self time* is its
spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    thread: int
    repetition: int
    count: int
    id: int


@dataclass
class Layer:
    """One span name folded over one repetition."""

    count: int = 0
    s: float = 0.0
    self_s: float = 0.0
    work: int = 0  # sum of the spans' own counts
    ms: list[float] = field(default_factory=list)

    def stat(self, name: str) -> float:
        """`count`, `s`, `self_s`, or a duration percentile `ms_pNN`."""
        if name.startswith("ms_p"):
            return percentile(self.ms, int(name[4:]))
        return getattr(self, name)


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    if pct == 50:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, len(ordered) * pct // 100)]


def fold(spans: list[Span]) -> dict[str, Layer]:
    """Per-name totals with self time, for the spans of one repetition."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        covered[span.parent] += span.end - span.start
    layers: dict[str, Layer] = defaultdict(Layer)
    for span in spans:
        duration = span.end - span.start
        layer = layers[span.name]
        layer.count += 1
        layer.s += duration
        layer.self_s += duration - covered[span.id]
        layer.work += span.count
        layer.ms.append(duration * 1000.0)
    return layers


# (owner, attribute, span name, pre, weigh).  `pre(args)` runs before
# the call and `weigh(args, result, pre_value)` after it; together they
# give the span its own work count.
Target = tuple[Any, str, str, Callable | None, Callable | None]


def _targets() -> list[Target]:
    # Imported here so that importing this module needs no `repro`.
    import workloads
    from repro.bgp import router as bgp_router
    from repro.concolic.engine import ConcolicEngine
    from repro.concolic.solver import Solver
    from repro.core import explorer as core_explorer
    from repro.core import snapshot as core_snapshot
    from repro.core.checkpoint import NodeCheckpoint
    from repro.core.explorer import Explorer
    from repro.core.orchestrator import DiceOrchestrator
    from repro.core.parallel import (
        ParallelCampaignEngine,
        SolverCacheCoordinator,
        TaskHandle,
    )
    from repro.core.pipeline import SnapshotPipeline
    from repro.core.properties import PropertySuite
    from repro.core.snapshot import Snapshot, SnapshotCoordinator
    from repro.net.network import Network

    def events_before(args):
        return args[0].sim.events_run

    def events_run(args, result, before):
        return args[0].sim.events_run - before

    def result_len(args, result, before):
        return len(result)

    def channel_msgs(args, result, before):
        return len(result.channels)

    plain = [
        (DiceOrchestrator, "run_campaign", "campaign"),
        # `capture` as core/snapshot.py bound it: one node's checkpoint.
        (core_snapshot, "capture", "checkpoint.capture"),
        (Snapshot, "clone", "snapshot.clone"),
        (NodeCheckpoint, "restore_into", "checkpoint.restore"),
        (Explorer, "explore", "explorer.session"),
        (Explorer, "explore_shard", "explorer.session"),
        (ConcolicEngine, "explore", "concolic.explore"),
        (ConcolicEngine, "run_shard", "concolic.explore"),
        (ConcolicEngine, "run_once", "concolic.run_once"),
        (Solver, "solve", "solver.solve"),
        (bgp_router, "best_route", "bgp.best_route"),
        (bgp_router, "decode_message", "bgp.decode"),
        (core_explorer, "decode_message", "bgp.decode"),
        (PropertySuite, "prepare_all", "checks.check_all"),
        (SnapshotPipeline, "next_capture", "pipeline.wait"),
        (ParallelCampaignEngine, "submit", "parallel.submit"),
        (TaskHandle, "result", "parallel.wait"),
        (SolverCacheCoordinator, "absorb", "cache.merge"),
        (SolverCacheCoordinator, "absorb_shard", "cache.merge"),
        (SolverCacheCoordinator, "end_cycle", "cache.merge"),
    ]
    return [(*target, None, None) for target in plain] + [
        (SnapshotCoordinator, "capture", "snapshot.capture",
         None, channel_msgs),
        (Network, "run", "net.run", events_before, events_run),
        (PropertySuite, "check_all", "checks.check_all", None, result_len),
        (workloads, "pickle_snapshot", "snapshot.pickle", None, result_len),
    ]


class Recorder:
    """Collects spans; installs and removes the wrappers."""

    def __init__(self, repetition: int = 0):
        self.spans: list[Span] = []
        self._repetition = repetition
        self._ids = itertools.count(1)
        self._open = threading.local()  # per-thread stack of open ids
        self._originals: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for owner, attribute, name, pre, weigh in _targets():
            original = vars(owner)[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, pre, weigh))

    def remove(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _wrap(self, name: str, fn: Callable, pre: Callable | None,
              weigh: Callable | None) -> Callable:
        spans, ids, open_ = self.spans, self._ids, self._open
        clock, thread_id = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = open_.stack
            except AttributeError:
                stack = open_.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            before = pre(args) if pre is not None else None
            returned = False
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                count = (
                    weigh(args, result, before)
                    if returned and weigh is not None else 0
                )
                spans.append(Span(name, start, end, parent, thread_id(),
                                  self._repetition, count, span_id))

        return traced


def write_chrome_trace(path: str, spans: list[Span]) -> None:
    """Chrome trace-event JSON (complete events); opens in Perfetto.
    Each repetition ran in a process of its own and shows as one."""
    origin = min((span.start for span in spans), default=0.0)
    events = [
        {
            "name": span.name,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": span.repetition,
            "tid": span.thread,
            "args": {"count": span.count},
        }
        for span in spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
