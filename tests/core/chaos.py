"""Deterministic fault injection for worker transports.

:class:`ChaosTransport` wraps any real :class:`~repro.core.parallel.
WorkerTransport` (loopback, socket, local pools) and kills scripted
worker slots at exact protocol points, so failover tests are
reproducible instead of racing a real process kill:

* ``PRE_DISPATCH`` — the slot dies before the task frame leaves the
  orchestrator; the worker never sees the task;
* ``MID_TASK`` — the task reaches the worker and runs, but the
  response is lost.

Kill occurrences are counted per ``(point, slot)`` in dispatch order,
which the engine keeps deterministic — so a :class:`Kill` script
always fires at the same task at any worker count.

A killed slot fails fast with :class:`~repro.core.remote.
WorkerDiedError` (the engine's failover trigger) and is retired on the
inner transport too (``discard_slot``).  ``on_kill`` lets socket tests
take down the *real* daemon at the scripted moment, so genuine
connection teardown is exercised, while the synthetic fail-fast keeps
the test deterministic regardless of TCP timing.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass

from repro.core.remote import WorkerDiedError

PRE_DISPATCH = "pre-dispatch"
MID_TASK = "mid-task"

KILL_POINTS = (PRE_DISPATCH, MID_TASK)


@dataclass(frozen=True)
class Kill:
    """Kill ``slot`` at the ``occurrence``-th hit of ``point``."""

    point: str
    slot: int
    occurrence: int = 1


class ChaosTransport:
    """A worker transport with scripted, deterministic slot deaths."""

    def __init__(self, inner, kills, on_kill=None):
        unknown = {kill.point for kill in kills} - set(KILL_POINTS)
        if unknown:
            raise ValueError(
                f"unknown kill points {sorted(unknown)}; "
                f"choose from {KILL_POINTS}"
            )
        self.inner = inner
        self.slots = inner.slots
        self._kills = list(kills)
        self._on_kill = on_kill
        self._counts: dict[tuple[str, int], int] = {}
        self.dead: set[int] = set()
        self.kill_log: list[tuple[str, int]] = []

    # -- passthroughs the engine/benchmarks read --

    @property
    def bytes_sent(self) -> int:
        return getattr(self.inner, "bytes_sent", 0)

    @property
    def bytes_received(self) -> int:
        return getattr(self.inner, "bytes_received", 0)

    def slot_label(self, slot: int) -> str:
        label = getattr(self.inner, "slot_label", None)
        return label(slot) if label is not None else f"chaos slot {slot}"

    def discard_slot(self, slot: int) -> None:
        self.dead.add(slot)
        discard = getattr(self.inner, "discard_slot", None)
        if discard is not None:
            discard(slot)

    # -- kill machinery --

    def _tripped(self, point: str, slot: int) -> bool:
        key = (point, slot)
        self._counts[key] = self._counts.get(key, 0) + 1
        count = self._counts[key]
        for kill in self._kills:
            if (kill.point, kill.slot, kill.occurrence) == (
                    point, slot, count):
                self._die(point, slot)
                return True
        return False

    def _die(self, point: str, slot: int) -> None:
        self.kill_log.append((point, slot))
        if self._on_kill is not None:
            self._on_kill(slot)
        self.discard_slot(slot)

    def _death_future(self, slot: int) -> Future:
        future: Future = Future()
        future.set_exception(
            WorkerDiedError(
                f"chaos killed {self.slot_label(slot)}",
                address=self.slot_label(slot),
            )
        )
        return future

    # -- WorkerTransport surface --

    def submit(self, slot: int, task) -> Future:
        if slot in self.dead:
            return self._death_future(slot)
        if self._tripped(PRE_DISPATCH, slot):
            return self._death_future(slot)
        inner_future = self.inner.submit(slot, task)
        if self._tripped(MID_TASK, slot):
            # The worker ran (or is running) the task; the response is
            # lost.  The inner future is deliberately abandoned.
            return self._death_future(slot)
        return inner_future

    def close(self) -> None:
        self.inner.close()
