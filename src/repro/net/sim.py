"""The discrete-event simulator core.

A :class:`Simulator` owns a simulated clock and a priority queue of
:class:`Event` objects.  Events at equal timestamps are ordered by their
insertion sequence number, which makes execution fully deterministic: two
runs that schedule the same events in the same order observe identical
histories.

The simulator is intentionally minimal — no processes, no links — those
live in :mod:`repro.net.node` and :mod:`repro.net.link` and are built on
top of ``schedule``/``run``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from repro.util.rng import RandomService


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Ordering is (time, sequence): the sequence number breaks ties between
    events scheduled for the same instant in insertion order.
    """

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the loop skips it when popped."""
        self.cancelled = True


class Simulator:
    """Deterministic discrete-event loop with a simulated clock."""

    def __init__(self, seed: int = 0):
        self._queue: list[Event] = []
        self._now = 0.0
        self._seq = 0
        self._events_run = 0
        self.random = RandomService(seed)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_run(self) -> int:
        """Number of events executed so far (for overhead accounting)."""
        return self._events_run

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return sum(1 for event in self._queue if not event.cancelled)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        event = Event(self._now + delay, self._seq, callback)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        return self.schedule(when - self._now, callback)

    def clear(self) -> None:
        """Drop every queued event without running it."""
        self._queue.clear()

    def step(self) -> bool:
        """Run the next pending event.  Returns False when queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            self._events_run += 1
            event.callback()
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run events until the queue drains, ``until`` passes, or
        ``max_events`` have executed.  Returns the simulated time reached.

        With ``until`` set, the clock is advanced to exactly ``until`` even
        if the queue drains earlier, so back-to-back ``run`` calls observe
        a monotone clock.
        """
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                return self._now
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and head.time > until:
                break
            if not self.step():
                break
            executed += 1
        if until is not None and self._now < until:
            self._now = until
        return self._now
