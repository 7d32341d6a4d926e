"""The campaign's capture source: its one contact with the live system.

Snapshots must be captured in the main process — the live system is
singular, and the marker protocol drives its simulator.
:class:`SnapshotPipeline` advances the live system and captures, on
the caller's thread, exactly when the campaign loop asks, at the
(cycle, node) the loop names, so the live system pays only for the
captures a campaign consumes.  Capture still overlaps exploration on
pooled transports, with no thread of its own, because the loop submits
each session before it asks for the next capture.

The loop names captures strictly in its (cycle, node) order, one at a
time, so the live simulator's evolution — and every captured snapshot
— is bit-identical at any worker count.  An exception raised by a
capture (e.g. a snapshot deadline) propagates out of
:meth:`~SnapshotPipeline.next_capture` unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.live import LiveSystem
from repro.core.payload import SnapshotEncoder
from repro.core.snapshot import Snapshot


@dataclass
class CapturedSnapshot:
    """One completed capture of the campaign's (cycle, node) schedule.

    ``detected_at`` is the live simulated time immediately after the
    cut closed — the value fault reports from this snapshot's
    exploration must carry.

    ``payload`` is the encoded snapshot, when the pipeline was given a
    :class:`~repro.core.payload.SnapshotEncoder`: every task of the
    session (each shard of every round included) then ships these same
    bytes instead of re-serializing the snapshot.  When a payload was
    prepared, ``snapshot`` is None — the payload fully replaces it.
    ``capture_wall_s`` covers the live advance before the capture, the
    capture and the encoding.
    """

    cycle: int
    node: str
    snapshot: Snapshot | None
    detected_at: float
    capture_wall_s: float
    payload: bytes | None = None


class SnapshotPipeline:
    """Takes each capture the caller names on the caller's thread,
    advancing the live system ``live_advance`` simulated seconds
    between captures, so each snapshot sees genuinely newer state."""

    def __init__(
        self,
        live: LiveSystem,
        live_advance: float,
        encoder: SnapshotEncoder | None = None,
    ):
        self._live = live
        self._live_advance = live_advance
        self._encoder = encoder
        self._captured = False

    def next_capture(self, cycle: int, node: str) -> CapturedSnapshot:
        """Advance (after the first capture), capture at ``node`` and
        encode, timed."""
        started = time.perf_counter()
        self.advance()
        self._captured = True
        snapshot = self._live.coordinator.capture(node)
        payload = None if self._encoder is None else self._encoder(snapshot)
        return CapturedSnapshot(
            cycle=cycle,
            node=node,
            snapshot=None if payload is not None else snapshot,
            detected_at=self._live.network.sim.now,
            capture_wall_s=time.perf_counter() - started,
            payload=payload,
        )

    def advance(self) -> float:
        """Run the live system ``live_advance`` simulated seconds on
        from its last capture, if one was taken; the wall seconds that
        took.  A campaign that ran to its end calls it once more after
        its last capture; an early stop leaves the live system where
        its last capture did."""
        if not self._captured or self._live_advance <= 0:
            return 0.0
        started = time.perf_counter()
        self._live.run(until=self._live.network.sim.now + self._live_advance)
        return time.perf_counter() - started
