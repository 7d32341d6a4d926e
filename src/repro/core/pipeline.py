"""The campaign's capture source: ordered captures, taken when asked for.

Snapshots must be captured in the main process — the live system is
singular, and the marker protocol drives its simulator.
:class:`SnapshotPipeline` runs each capture on the caller's thread,
inside :meth:`~SnapshotPipeline.next_capture`, exactly when the
campaign loop asks for it, so the live system pays only for the
captures a campaign consumes.  Capture still overlaps exploration on
pooled transports, with no thread of its own, because the loop submits
each session before it asks for the next capture.

Requests are fixed up front and captured strictly in the campaign's
(cycle, node) order, one at a time, so the live simulator's evolution
— and every captured snapshot — is bit-identical at any worker count.
An exception raised by ``capture_fn`` (e.g. a snapshot deadline)
propagates out of :meth:`~SnapshotPipeline.next_capture` unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.snapshot import Snapshot


@dataclass(frozen=True)
class CaptureRequest:
    """One planned capture, positioned in the campaign's serial order."""

    index: int  # global position across the whole campaign
    cycle: int
    node: str


@dataclass
class CapturedSnapshot:
    """One completed capture, tagged with its place in the plan.

    ``detected_at`` is the live simulated time immediately after the
    cut closed — the value fault reports from this snapshot's
    exploration must carry.

    ``payload`` is the pickled snapshot, when the pipeline was given a
    ``prepare_fn``: every task of the session (each shard of every
    round included) then ships these same bytes instead of
    re-serializing the snapshot.  When a payload was prepared,
    ``snapshot`` is None — the payload fully replaces it.
    ``capture_wall_s`` covers the capture and the pickling.
    """

    index: int
    cycle: int
    node: str
    snapshot: Snapshot | None
    detected_at: float
    capture_wall_s: float
    payload: bytes | None = None


# capture_fn returns (snapshot, detected_at); it owns the live system
# for the call.
CaptureFn = Callable[[CaptureRequest], tuple[Snapshot, float]]


class SnapshotPipeline:
    """Yields the campaign's captures in request order, each taken on
    the caller's thread when :meth:`next_capture` asks for it."""

    def __init__(
        self,
        capture_fn: CaptureFn,
        requests: Sequence[CaptureRequest],
        prepare_fn: Callable[[Snapshot], bytes] | None = None,
    ):
        self._capture_fn = capture_fn
        self._prepare_fn = prepare_fn
        self._requests = iter(requests)

    def next_capture(self) -> CapturedSnapshot:
        """Take the next planned capture (and its payload), timed."""
        request = next(self._requests, None)
        if request is None:
            raise IndexError("all requested captures already consumed")
        started = time.perf_counter()
        snapshot, detected_at = self._capture_fn(request)
        payload = None
        if self._prepare_fn is not None:
            payload = self._prepare_fn(snapshot)
        return CapturedSnapshot(
            index=request.index,
            cycle=request.cycle,
            node=request.node,
            snapshot=None if payload is not None else snapshot,
            detected_at=detected_at,
            capture_wall_s=time.perf_counter() - started,
            payload=payload,
        )


def plan_captures(nodes: Sequence[str], cycles: int) -> list[CaptureRequest]:
    """The campaign's full capture schedule, in serial-loop order."""
    return [
        CaptureRequest(index=cycle * len(nodes) + position, cycle=cycle,
                       node=node)
        for cycle in range(cycles)
        for position, node in enumerate(nodes)
    ]
