"""Process model: nodes with message handlers and timers.

A :class:`Process` is a named node attached to a :class:`~repro.net.network.
Network`.  Subclasses implement :meth:`on_message` and may arm named timers.
Re-arming a named timer at a later deadline — as BGP does with its hold
timer on every message — moves its one simulator event instead of
leaving a cancelled event in the queue.
The base class also defines the checkpoint contract used by DiCE
(:meth:`export_state` / :meth:`import_state`): subclasses return their
full protocol state as containers over immutable leaves that no live
object holds, and can be reconstructed from it inside a cloned
simulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network
    from repro.net.sim import Event


class Process:
    """A simulated node."""

    def __init__(self, name: str):
        self.name = name
        self.network: "Network | None" = None
        self._timers: dict[str, "Event"] = {}

    # -- lifecycle ---------------------------------------------------------

    def attach(self, network: "Network") -> None:
        """Called by the network when the process is added."""
        self.network = network

    def detach(self) -> None:
        """Called by the network when it is closed: forget it and every
        armed timer (each holds a callback that points back here)."""
        self._timers.clear()
        self.network = None

    def start(self) -> None:
        """Called once when the simulation starts.  Default: nothing."""

    # -- messaging ---------------------------------------------------------

    def send(self, dst: str, payload: Any) -> None:
        """Send ``payload`` to process ``dst`` over the connecting link."""
        assert self.network is not None, f"{self.name} is not attached"
        self.network.transmit(self.name, dst, payload)

    def on_message(self, src: str, payload: Any) -> None:
        """Handle a delivered message.  Subclasses override."""
        raise NotImplementedError

    # -- timers --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (0.0 for a detached process).

        Detached operation matters for offline harnesses that drive a
        protocol process without a network (e.g. checkpoint benchmarks
        and the offline parser tester).
        """
        if self.network is None:
            return 0.0
        return self.network.sim.now

    def set_timer(self, name: str, delay: float) -> None:
        """Arm (or re-arm) the named timer ``delay`` seconds from now.

        Re-arming hands the armed event to :meth:`Simulator.postpone`
        rather than cancelling it and scheduling another.
        """
        assert self.network is not None, f"{self.name} is not attached"
        sim = self.network.sim
        # Popped and inserted again, never updated in place: the dict is
        # in the order timers were last armed, as with cancel + schedule,
        # and export_state (so every checkpoint's bytes) follows it.
        event = self._timers.pop(name, None)
        if event is None:
            event = sim.schedule(delay, lambda: self._fire_timer(name))
        else:
            event = sim.postpone(event, delay)
        self._timers[name] = event

    def cancel_timer(self, name: str) -> None:
        """Cancel the named timer if armed."""
        event = self._timers.pop(name, None)
        if event is not None:
            event.cancel()

    def timer_armed(self, name: str) -> bool:
        """True if the named timer is pending."""
        event = self._timers.get(name)
        return event is not None and not event.cancelled

    def cancel_all_timers(self) -> None:
        """Cancel every armed timer (used when cloning/retiring a node)."""
        for name in list(self._timers):
            self.cancel_timer(name)

    def adopt_timers(self, events: dict[str, "Event"]) -> None:
        """Take ``events`` — pending, scheduled to fire this process's
        timers by name — as its armed timers, in their order, in place
        of any armed now.  A deferred process's timers are scheduled
        before it is built (:meth:`~repro.net.network.Network.
        defer_process`); this is how it gets them."""
        self.cancel_all_timers()
        self._timers = dict(events)

    def _fire_timer(self, name: str) -> None:
        self._timers.pop(name, None)
        self.on_timer(name)

    def on_timer(self, name: str) -> None:
        """Handle a timer expiry.  Default: nothing."""

    # -- checkpoint contract -------------------------------------------------

    def export_state(self, memo: dict | None = None) -> dict[str, Any]:
        """Return a snapshot of the full protocol state.

        Contract: every container in the result, at any depth, holds
        only immutable leaves and is never held by a live object.  It
        is newly built, or — given ``memo``, a dict the caller keeps
        for this process between checkpoints and writes nothing else
        into — one this process's earlier checkpoint through the same
        memo holds, shared because nobody writes a checkpoint and
        handed back only while what it was built from is unchanged.
        Checkpoints store the result as is; nothing copies it again.

        Subclasses extend the returned dict; the base records armed timers
        as (name, remaining-delay) pairs so a restored clone re-arms them.
        """
        remaining = {}
        if self.network is not None:
            now = self.network.sim.now
            for name, event in self._timers.items():
                if not event.cancelled:
                    remaining[name] = max(0.0, event.time - now)
        return {"timers": remaining}

    def import_state(self, state: dict[str, Any]) -> None:
        """Restore the state produced by :meth:`export_state`.

        Contract: keep no container from ``state`` and write to none —
        every clone of one checkpoint is handed the same ``state``.
        """
        self.cancel_all_timers()
        for name, delay in state.get("timers", {}).items():
            self.set_timer(name, delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
