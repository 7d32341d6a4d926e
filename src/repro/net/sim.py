"""The discrete-event simulator core.

A :class:`Simulator` owns a simulated clock and a priority queue of
:class:`Event` objects.  Events at equal timestamps are ordered by their
insertion sequence number, which makes execution fully deterministic: two
runs that schedule the same events in the same order observe identical
histories.

The queue holds ``(time, seq, event)`` tuples, so the heap compares
entries in C.  An entry is written once, when the event is scheduled or
pushed back, and is not updated when the event moves:
:meth:`Simulator.postpone` re-arms a pending event at a later deadline by
changing the event alone, and when its stale entry comes up the loop
pushes it back at the event's current ``(time, seq)``.  Re-arming a
timer on every message therefore costs no heap entry and leaves no
cancelled event behind.  For the same reason a caller may take a run of
sequence numbers at once (:meth:`Simulator.reserve`) and schedule each
event under its number later (:meth:`Simulator.schedule_reserved`): a
clone so defers a router's timers until the router is built (see
:mod:`repro.core.snapshot`).

The simulator is intentionally minimal — no processes, no links — those
live in :mod:`repro.net.node` and :mod:`repro.net.link` and are built on
top of ``schedule``/``run``.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator

from repro.util.rng import RandomService


class Event:
    """A scheduled callback.

    Ordering is (time, sequence): the sequence number breaks ties between
    events scheduled for the same instant in insertion order.  Both are
    the event's current values; :meth:`Simulator.postpone` moves them.
    """

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the loop skips it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} seq={self.seq}{state}>"


class Simulator:
    """Deterministic discrete-event loop with a simulated clock."""

    def __init__(self, seed: int = 0):
        self._queue: list[tuple[float, int, Event]] = []
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
        """Number of events executed so far (for overhead accounting).
        A postponed event's stale entry coming up is not one."""
        return self._events_run

    @property
    def pending(self) -> int:
        """Number of events still queued, cancelled ones excluded."""
        return sum(1 for _ in self.queued())

    def queued(self) -> Iterator[Event]:
        """The events still queued, cancelled ones excluded, in no
        particular order."""
        return (event for _, _, event in self._queue if not event.cancelled)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        return self.schedule(when - self._now, callback)

    def reserve(self, count: int) -> int:
        """Take the next ``count`` sequence numbers; returns the first.

        No later :meth:`schedule` or :meth:`postpone` takes one of
        them, so an event scheduled under one with
        :meth:`schedule_reserved` is ordered as if it had been
        scheduled when they were taken.
        """
        base = self._seq
        self._seq = base + count
        return base

    def schedule_reserved(self, when: float, seq: int,
                          callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute time ``when`` under ``seq``,
        a number :meth:`reserve` returned that no other event holds.

        The queue orders entries by ``(time, seq)`` alone, not by when
        they were pushed, so the event runs where one scheduled with
        that number would, provided nothing ordered after it has run
        when it is pushed.
        """
        if when < self._now:
            raise ValueError(
                f"cannot schedule into the past (at {when}, now {self._now})"
            )
        event = Event(when, seq, callback)
        heapq.heappush(self._queue, (when, seq, event))
        return event

    def postpone(self, event: Event, delay: float) -> Event:
        """Re-arm ``event`` to run ``delay`` seconds from now; returns
        the event that now carries its callback.

        Observably the same as ``event.cancel()`` followed by
        ``schedule(delay, event.callback)``: the event takes the next
        sequence number now, so it fires in the same order, and
        ``events_run`` and ``pending`` read the same.  A deadline no
        earlier than the current one moves ``event`` itself and pushes
        nothing: its queue entry still carries the old deadline, which
        comes up first, and the loop then pushes it back at the new one.
        An earlier deadline would come up after the entry should have
        fired, so it takes the cancel + schedule path and returns a new
        event.

        ``event`` must be pending: scheduled, not yet run.  A cancelled
        one is scheduled afresh, as the cancel + schedule path would.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        if event.cancelled or time < event.time:
            event.cancel()
            return self.schedule(delay, event.callback)
        event.time = time
        event.seq = self._seq
        self._seq += 1
        return event

    def clear(self) -> None:
        """Drop every queued event without running it."""
        self._queue.clear()

    def step(self) -> bool:
        """Run the next pending event.  Returns False when queue is empty."""
        queue = self._queue
        while queue:
            time, seq, event = heapq.heappop(queue)
            if event.cancelled:
                continue
            if seq != event.seq:  # postponed: back at its deadline
                heapq.heappush(queue, (event.time, event.seq, event))
                continue
            self._now = time
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
        queue = self._queue
        executed = 0
        while queue:
            if max_events is not None and executed >= max_events:
                return self._now
            time, seq, event = queue[0]
            if event.cancelled:
                heapq.heappop(queue)
                continue
            if seq != event.seq:  # postponed: back at its deadline
                heapq.heapreplace(queue, (event.time, event.seq, event))
                continue
            if until is not None and time > until:
                break
            heapq.heappop(queue)
            self._now = time
            self._events_run += 1
            event.callback()
            executed += 1
        if until is not None and self._now < until:
            self._now = until
        return self._now
