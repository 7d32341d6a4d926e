"""The network container: processes + links + the simulator.

This is the "testbed" object the rest of the reproduction works against.
It also implements the two hooks DiCE needs from its substrate:

* **in-flight capture** — a consistent snapshot must include channel state,
  so the network can enumerate messages currently scheduled for delivery
  (:meth:`in_flight`);
* **pause/clone support** — the orchestrator restores exported node
  states and in-flight messages into a *fresh* network, never sharing
  mutable state with the live one (see :mod:`repro.core.snapshot`).
  A clone adds its processes *deferred* (:meth:`Network.defer_process`):
  each is built the first time something reaches it, and its links
  come from a shared :class:`LinkTable`, each made the first time a
  message crosses it, so a clone pays only for the processes and links
  its run touches.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from functools import partial
from types import MappingProxyType
from typing import Any, Callable, Hashable, Iterable, NamedTuple

from repro.net.link import Link, LinkProfile
from repro.net.node import Process
from repro.net.sim import Event, Simulator


class InFlightMessage(NamedTuple):
    """A message scheduled for delivery, as :meth:`Network.in_flight`
    lists it for a snapshot."""

    src: str
    dst: str
    payload: Any
    deliver_at: float


class _Delivery:
    """A scheduled delivery: the event's callback, and the one object a
    message in flight costs."""

    __slots__ = ("network", "src", "dst", "payload")

    def __init__(self, network: "Network", src: str, dst: str,
                 payload: Any):
        self.network = network
        self.src = src
        self.dst = dst
        self.payload = payload

    def __call__(self) -> None:
        self.network._deliver(self.src, self.dst, self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<delivery {self.src}->{self.dst}>"


class Processes(Mapping[str, Process]):
    """Every process of a network by name, built or deferred.

    A deferred process is made by its build function on its first
    lookup and is then one dict hit away like any other.  Names, membership and
    length need no build; ``values()``, ``items()`` and ``get`` build
    what they return, so every reader sees the whole network.  Iteration
    follows the order processes were added.
    """

    __slots__ = ("built", "_deferred", "_names")

    def __init__(self) -> None:
        # The processes built so far, in the order they were built.
        self.built: dict[str, Process] = {}
        self._deferred: dict[str, Callable[[], Process]] = {}
        self._names: list[str] = []

    def __getitem__(self, name: str) -> Process:
        try:
            return self.built[name]
        except KeyError:
            pass
        process = self._deferred[name]()
        del self._deferred[name]
        self.built[name] = process
        return process

    def __contains__(self, name: object) -> bool:
        return name in self.built or name in self._deferred

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def add(self, process: Process) -> None:
        """Hold an already built process."""
        self._add_name(process.name)
        self.built[process.name] = process

    def defer(self, name: str, build: Callable[[], Process]) -> None:
        """Hold ``name``, built by ``build()`` on its first lookup."""
        self._add_name(name)
        self._deferred[name] = build

    def _add_name(self, name: str) -> None:
        if name in self:
            raise ValueError(f"duplicate process name {name!r}")
        self._names.append(name)

    def clear(self) -> None:
        """Forget every process, built or deferred."""
        self.built.clear()
        self._deferred.clear()
        self._names.clear()


class LinkTable:
    """Links as ``(a, b, profile)`` specifications, in the order they
    were added, and by endpoint: ``ends[a][b]`` is the index of the
    link joining ``a`` and ``b``.  Holds no :class:`Link`, so one table
    can serve every clone of a snapshot; a network makes each link from
    its specification when it first needs it.
    """

    __slots__ = ("specs", "ends")

    def __init__(self, links: Iterable[tuple[str, str, Any]] = ()):
        self.specs: list[tuple[str, str, Any]] = []
        self.ends: dict[str, dict[str, int]] = {}
        for a, b, profile in links:
            self.add(a, b, profile)

    def add(self, a: str, b: str, profile: LinkProfile | None) -> int:
        """Add the link ``a``--``b``; returns its index."""
        if a == b:
            raise ValueError(f"self-link on {a!r}")
        if b in self.ends.get(a, ()):
            raise ValueError(f"link {a}<->{b} already exists")
        index = len(self.specs)
        self.specs.append((a, b, profile))
        self.ends.setdefault(a, {})[b] = index
        self.ends.setdefault(b, {})[a] = index
        return index


# The table of a closed network.
_NO_LINKS = LinkTable()


class Network:
    """A set of processes joined by links, driven by one simulator."""

    # Entries ``interned`` may hold before it is dropped whole.
    INTERN_LIMIT = 1 << 15

    def __init__(self, seed: int = 0,
                 interned: dict[Hashable, Any] | None = None,
                 links: LinkTable | None = None):
        self.sim = Simulator(seed)
        self.processes = Processes()
        # The built processes, the dict a delivery looks its target up in.
        self._built = self.processes.built
        # Every link's specification.  A table handed in is shared (a
        # snapshot hands one to each of its clones), so this network
        # adds no link to it.
        self._table = LinkTable() if links is None else links
        self._table_shared = links is not None
        # The Link made from each specification, None until a message
        # crosses it or a reader asks for it.
        self._links: list[Link | None] = [None] * len(self._table.specs)
        # src -> dst -> [link, the link's RNG stream]: one entry per
        # link made, reached from both endpoints, so a message finds its
        # link and loss/jitter stream by two dict lookups.  The stream
        # is None until the link first carries a message, so a clone
        # pays only for the links and streams it uses.
        self._wires: dict[str, dict[str, list[Any]]] = {}
        # Replaced, never changed in place (see ``_deliver``).
        self._interceptors: tuple[Callable[[str, str, Any], bool], ...] = ()
        self._started = False
        # Immutable values this network's processes hold one object of
        # per distinct value, keyed by content (a BGP router keeps a
        # decoded message under its wire bytes, an attribute set under
        # its key, and a prefix or AS path under itself), so that
        # everything pickled with the network's state holds each once.
        # A BGP router also keeps what it works out from such values
        # under tagged keys that can equal no other entry: an UPDATE's
        # bytes under ("UPDATE", ...), a filter's outcome under
        # ("FILTER", filter, default LOCAL_PREF, the values it reads),
        # the canonical set a filter's writes make under ("WITH", set,
        # writes), and the egress rewrite's under ("EGRESS", set, ...).
        # A value is a pure function of its key: what the table holds
        # decides object identity and nothing else, so networks may
        # share one table (an explorer hands one to every clone it
        # builds).  It holds no reference back to a network, so closing
        # one only lets go of it.
        self.interned: dict[Hashable, Any] = (
            {} if interned is None else interned
        )

    # -- construction --------------------------------------------------------

    def add_process(self, process: Process) -> Process:
        """Add a process; names must be unique."""
        self.processes.add(process)
        process.attach(self)
        if self._started:
            process.start()
        return process

    def defer_process(
        self, name: str, timers: Sequence[tuple[str, float, int]],
        first: int, base: int,
        build: Callable[["Network", dict[str, Event]], Process],
    ) -> None:
        """Add process ``name`` without building it.

        ``timers`` are its armed timers in arming order, each
        ``(timer, deadline, position)``: it fires at absolute time
        ``deadline`` under sequence number ``base + position``, which
        the caller took with :meth:`Simulator.reserve`.  Only
        ``timers[first]``, the one that comes up first, is scheduled
        here; building the process schedules the others, so an unbuilt
        process holds one queue entry whatever its timer count (and
        :attr:`Simulator.pending` counts one).  ``build(self, events)``
        makes the process on its first lookup in :attr:`processes` — a
        delivery to it, its first timer coming up, or any reader — and
        returns it attached to this network, holding ``events``, every
        timer's event in arming order, as its armed timers.  Nothing
        runs its ``start`` hook.
        """
        if not timers:
            self.processes.defer(name, partial(build, self, {}))
            return
        timer, deadline, position = timers[first]
        head = self.sim.schedule_reserved(
            deadline, base + position,
            partial(self._fire_deferred, name, timer),
        )
        self.processes.defer(name, partial(
            self._build_deferred, name, timers, first, base, head, build,
        ))

    def _build_deferred(
        self, name: str, timers: Sequence[tuple[str, float, int]],
        first: int, base: int, head: Event,
        build: Callable[["Network", dict[str, Event]], Process],
    ) -> Process:
        schedule = self.sim.schedule_reserved
        events = {}
        for index, (timer, deadline, position) in enumerate(timers):
            events[timer] = head if index == first else schedule(
                deadline, base + position,
                partial(self._fire_deferred, name, timer),
            )
        return build(self, events)

    def _fire_deferred(self, name: str, timer: str) -> None:
        self.processes[name]._fire_timer(timer)

    def materialized(self) -> Mapping[str, Process]:
        """A read-only view of the processes built so far, in the
        order they were built; looking into it builds nothing."""
        return MappingProxyType(self._built)

    def add_link(self, a: str, b: str, profile: LinkProfile | None = None) -> Link:
        """Connect processes ``a`` and ``b``; at most one link per pair."""
        for name in (a, b):
            if name not in self.processes:
                raise KeyError(f"unknown process {name!r}")
        if self._table_shared:
            raise ValueError("a network over a shared link table adds no link")
        index = self._table.add(a, b, profile)
        self._links.append(None)
        return self._link(index)

    def _link(self, index: int) -> Link:
        """The link of specification ``index``, made on first use."""
        link = self._links[index]
        if link is None:
            a, b, profile = self._table.specs[index]
            link = self._links[index] = Link(a, b, profile)
            wire: list[Any] = [link, None]
            self._wires.setdefault(a, {})[b] = wire
            self._wires.setdefault(b, {})[a] = wire
        return link

    def link_between(self, a: str, b: str) -> Link | None:
        """The link joining ``a`` and ``b``, if any."""
        index = self._table.ends.get(a, {}).get(b)
        return None if index is None else self._link(index)

    def links(self) -> Iterable[Link]:
        """All links, in the order they were added."""
        if None in self._links:
            for index in range(len(self._links)):
                self._link(index)
        return self._links

    def neighbors(self, name: str) -> list[str]:
        """Names of processes directly linked to ``name``, sorted."""
        return sorted(self._table.ends.get(name, ()))

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
            # The link's first crossing: make it.
            index = self._table.ends.get(src, {}).get(dst)
            if index is None:
                raise KeyError(
                    f"no link between {src!r} and {dst!r}") from None
            self._link(index)
            wire = self._wires[src][dst]
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
        self.sim.schedule(delay, _Delivery(self, src, dst, payload))

    def _deliver(self, src: str, dst: str, payload: Any) -> None:
        process = self._built.get(dst)
        if process is None:
            if dst not in self.processes:
                return
            process = self.processes[dst]
        # An interceptor may unregister itself mid-delivery (the
        # snapshot session does, on its final marker); that replaces the
        # tuple, not the one walked here.
        for interceptor in self._interceptors:
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
        self._interceptors += (callback,)

    def remove_interceptor(
        self, callback: Callable[[str, str, Any], bool]
    ) -> None:
        """Unregister a previously added interceptor."""
        interceptors = self._interceptors
        index = interceptors.index(callback)
        self._interceptors = interceptors[:index] + interceptors[index + 1:]

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
        """Messages currently scheduled for delivery, read off the
        simulator's queue, by delivery time, then source and
        destination, then the order they were sent in."""
        pending = sorted(
            (event.time, delivery.src, delivery.dst, event.seq, delivery)
            for event in self.sim.queued()
            if type(delivery := event.callback) is _Delivery
        )
        return [
            InFlightMessage(src, dst, delivery.payload, deliver_at)
            for deliver_at, src, dst, _, delivery in pending
        ]

    def quiescent(self) -> bool:
        """True when no events remain (network fully converged)."""
        return self.sim.pending == 0

    def close(self) -> None:
        """Take a finished network apart so it is freed at once.

        A network is a knot of reference cycles: every process points
        back at it, and every armed timer and scheduled delivery is an
        event whose callback holds a process or the network.
        Dropping the last outside reference therefore frees nothing
        until the cyclic collector happens to run, and an explorer that
        clones a whole system per input would hold every dead clone
        until then.  Call this once everything has been read from the
        network; afterwards it has no processes, links or pending
        events, so running it does nothing.
        """
        for process in self._built.values():
            process.detach()
        self.processes.clear()
        self._table = _NO_LINKS
        self._table_shared = True
        self._links.clear()
        self._wires.clear()
        self._interceptors = ()
        self.interned = {}
        self.sim.clear()
