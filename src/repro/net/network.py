"""The network container: processes + links + the simulator.

This is the "testbed" object the rest of the reproduction works against.
It also implements the two hooks DiCE needs from its substrate:

* **in-flight capture** — a consistent snapshot must include channel state,
  so the network can enumerate messages currently scheduled for delivery
  (:meth:`in_flight`);
* **pause/clone support** — the orchestrator restores exported node
  states and in-flight messages into a *fresh* network, never sharing
  mutable state with the live one (see :mod:`repro.core.snapshot`).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable

from repro.net.link import Link, LinkProfile
from repro.net.node import Process
from repro.net.sim import Event, Simulator


class InFlightMessage:
    """A message scheduled for delivery, tracked for snapshotting."""

    __slots__ = ("src", "dst", "payload", "deliver_at", "event")

    def __init__(self, src: str, dst: str, payload: Any, deliver_at: float,
                 event: Event):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.deliver_at = deliver_at
        self.event = event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<in-flight {self.src}->{self.dst} @{self.deliver_at:.3f}>"


class Network:
    """A set of processes joined by links, driven by one simulator."""

    # Entries ``interned`` may hold before it is dropped whole.
    INTERN_LIMIT = 1 << 15

    def __init__(self, seed: int = 0):
        self.sim = Simulator(seed)
        self.processes: dict[str, Process] = {}
        self._links: list[Link] = []
        # src -> dst -> [link, the link's RNG stream]: one entry per link,
        # reached from both endpoints, so a message finds its link and
        # loss/jitter stream by two dict lookups.  The stream is None
        # until the link first carries a message, so a clone pays only
        # for the streams of the links it uses.
        self._wires: dict[str, dict[str, list[Any]]] = {}
        self._in_flight: dict[int, InFlightMessage] = {}
        self._in_flight_seq = 0
        self._interceptors: list[Callable[[str, str, Any], bool]] = []
        self._started = False
        # Immutable values this network's processes hold one object of
        # per distinct value, keyed by content (a BGP router keeps a
        # decoded message under its wire bytes and an attribute set
        # under its key), so that everything pickled with the network's
        # state holds each once.  A value is a pure function of its key:
        # what the table holds decides object identity and nothing else.
        self.interned: dict[Hashable, Any] = {}

    # -- construction --------------------------------------------------------

    def add_process(self, process: Process) -> Process:
        """Add a process; names must be unique."""
        if process.name in self.processes:
            raise ValueError(f"duplicate process name {process.name!r}")
        self.processes[process.name] = process
        process.attach(self)
        if self._started:
            process.start()
        return process

    def add_link(self, a: str, b: str, profile: LinkProfile | None = None) -> Link:
        """Connect processes ``a`` and ``b``; at most one link per pair."""
        for name in (a, b):
            if name not in self.processes:
                raise KeyError(f"unknown process {name!r}")
        if b in self._wires.get(a, ()):
            raise ValueError(f"link {a}<->{b} already exists")
        link = Link(a, b, profile)
        self._links.append(link)
        wire: list[Any] = [link, None]
        self._wires.setdefault(a, {})[b] = wire
        self._wires.setdefault(b, {})[a] = wire
        return link

    def link_between(self, a: str, b: str) -> Link | None:
        """The link joining ``a`` and ``b``, if any."""
        wire = self._wires.get(a, {}).get(b)
        return None if wire is None else wire[0]

    def links(self) -> Iterable[Link]:
        """All links, in the order they were added."""
        return self._links

    def neighbors(self, name: str) -> list[str]:
        """Names of processes directly linked to ``name``, sorted."""
        return sorted(self._wires.get(name, ()))

    # -- running ---------------------------------------------------------------

    def start(self) -> None:
        """Invoke every process's ``start`` hook once."""
        if self._started:
            return
        self._started = True
        for name in sorted(self.processes):
            self.processes[name].start()

    def start_silently(self) -> None:
        """Mark the network started without running ``start`` hooks.

        Snapshot clones use this: restored state already reflects
        everything the start hooks would have done (origination, session
        establishment), so running them again would corrupt the clone.
        """
        self._started = True

    def run(self, until: float | None = None,
            max_events: int | None = None) -> float:
        """Start if needed, then drive the simulator."""
        self.start()
        return self.sim.run(until=until, max_events=max_events)

    # -- message transport -------------------------------------------------------

    def transmit(self, src: str, dst: str, payload: Any,
                 reliable: bool = False) -> bool:
        """Send ``payload`` from ``src`` to ``dst``; returns False if dropped.

        Requires a link between the two processes.  Loss and delay are
        drawn from the link profile using the network's seeded RNG.
        ``reliable`` skips the loss draw while preserving latency and
        FIFO order — used for control traffic like snapshot markers,
        which in a real deployment rides a reliable transport.
        """
        try:
            wire = self._wires[src][dst]
        except KeyError:
            raise KeyError(f"no link between {src!r} and {dst!r}") from None
        link, rng = wire
        if rng is None:
            rng = wire[1] = self.sim.random.stream(
                f"link/{min(src, dst)}/{max(src, dst)}"
            )
        delay = link.delay_for(src, dst, payload, self.sim.now, rng,
                               reliable=reliable)
        if delay is None:
            return False
        self._schedule_delivery(src, dst, payload, delay)
        return True

    def _schedule_delivery(self, src: str, dst: str, payload: Any,
                           delay: float) -> None:
        token = self._in_flight_seq
        self._in_flight_seq += 1

        def deliver() -> None:
            self._in_flight.pop(token, None)
            self._deliver(src, dst, payload)

        event = self.sim.schedule(delay, deliver)
        self._in_flight[token] = InFlightMessage(
            src, dst, payload, self.sim.now + delay, event
        )

    def _deliver(self, src: str, dst: str, payload: Any) -> None:
        process = self.processes.get(dst)
        if process is None:
            return
        # Iterate a copy: an interceptor may unregister itself mid-delivery
        # (the snapshot session does, on its final marker).
        for interceptor in list(self._interceptors):
            if interceptor(src, dst, payload):
                return  # consumed (e.g. a snapshot marker)
        process.on_message(src, payload)

    def inject(self, src: str, dst: str, payload: Any, delay: float = 0.0) -> None:
        """Schedule a delivery without requiring a link (testing hook).

        DiCE's explorer uses this to subject a cloned node to synthesized
        inputs that appear to come from a real neighbor.
        """
        self._schedule_delivery(src, dst, payload, delay)

    def add_interceptor(
        self, callback: Callable[[str, str, Any], bool]
    ) -> None:
        """Register a delivery interceptor.

        Interceptors run before the destination process; returning True
        consumes the message, returning False lets it through (so an
        observer is an interceptor that returns False).  The snapshot
        protocol uses this to carry its markers over the same FIFO
        channels as protocol traffic without the application ever
        seeing them.
        """
        self._interceptors.append(callback)

    def remove_interceptor(
        self, callback: Callable[[str, str, Any], bool]
    ) -> None:
        """Unregister a previously added interceptor."""
        self._interceptors.remove(callback)

    def intern(self, key: Hashable, value: Any) -> Any:
        """Keep ``value`` as the one object for ``key``; returns it.

        Bounded by dropping everything on overflow: a dropped entry
        costs its next user a second, equal object and nothing else.
        """
        if len(self.interned) >= self.INTERN_LIMIT:
            self.interned.clear()
        self.interned[key] = value
        return value

    # -- snapshot hooks ------------------------------------------------------------

    def in_flight(self) -> list[InFlightMessage]:
        """Messages currently scheduled for delivery, in schedule order."""
        live = [
            msg for msg in self._in_flight.values() if not msg.event.cancelled
        ]
        return sorted(live, key=lambda msg: (msg.deliver_at, msg.src, msg.dst))

    def quiescent(self) -> bool:
        """True when no events remain (network fully converged)."""
        return self.sim.pending == 0

    def close(self) -> None:
        """Take a finished network apart so it is freed at once.

        A network is a knot of reference cycles: every process points
        back at it, and every armed timer and scheduled delivery is an
        event whose callback closes over a process or the network.
        Dropping the last outside reference therefore frees nothing
        until the cyclic collector happens to run, and an explorer that
        clones a whole system per input would hold every dead clone
        until then.  Call this once everything has been read from the
        network; afterwards it has no processes, links or pending
        events, so running it does nothing.
        """
        for process in self.processes.values():
            process.detach()
        self.processes.clear()
        self._links.clear()
        self._wires.clear()
        self._in_flight.clear()
        self._interceptors.clear()
        self.interned.clear()
        self.sim.clear()
