"""Consistent shadow snapshots (Figure 2, step 2) and snapshot cloning.

The coordinator implements the Chandy–Lamport marker algorithm over the
live network's own FIFO channels:

* the initiator checkpoints itself and emits a marker on every outgoing
  channel;
* a node receiving its first marker checkpoints immediately, records the
  marker's channel as empty, and emits markers on its outgoing channels;
* data messages arriving on a channel after the receiver checkpointed
  but before that channel's marker are recorded as the channel's state
  (they are the in-flight messages of the cut);
* the snapshot completes when every node has received a marker on every
  incoming channel.

Markers ride through a network interceptor, so the application processes
never see them — matching DiCE's requirement of not modifying node
protocol logic for snapshot support.

A captured :class:`Snapshot` can be **cloned** into a brand-new network:
fresh simulator, the recorded channel messages re-injected with their
relative delivery offsets, and node states restored from checkpoints
into processes rebuilt by a factory.  Clones share immutable leaves
(routes, attributes, configs, message bytes) with the snapshot, the live
system and each other, and no mutable state (asserted by the aliasing
test in ``tests/core/test_checkpoint.py``), which is what lets DiCE
explore "alongside the deployed system but in isolation from it".

**Copy on touch.**  As ``fork()`` copies only the pages a child
writes, a clone restores only the routers its run reaches, and its
set-up does no work per timer or per link.  What every clone of one
snapshot starts from — the routers in sorted order, each router's
timers with their places in the eager arming order and its earliest
timer, the timer count, the link table — is worked out once, on the
snapshot's first clone (:class:`_ClonePlan`).  A clone then reserves
one sequence number per checkpoint timer, schedules one placeholder
per router that has timers — its earliest — and defers every router;
it builds no router and no link.  A router is built — factory, then
:meth:`NodeCheckpoint.restore_into` — on its first lookup: a delivery
to it (a channel message of the cut included), its placeholder coming
up, or a reader such as ``clone.processes[name]``.  Building it
schedules its other timers, each under its own reserved number, and
the router adopts them and the placeholder as its armed timers.  A
link is made when a message first crosses it or a reader asks for it.
The run is event for event the one an eager clone, which restores
every router up front, would make:

* every event of a clone is scheduled by the clone's own simulator,
  whose ``(time, seq)`` order alone decides what runs next — the heap
  orders entries by that pair, not by when they were pushed;
* eager restore arms every timer first, routers by sorted name, each
  router's timers in its checkpoint's arming order, so the timer at
  position ``p`` of that order takes sequence number ``p`` at its
  checkpoint deadline.  A clone reserves those numbers before anything
  else takes one, and schedules each timer — the placeholder now, the
  others when the router is built — at that deadline under that
  number: every timer gets exactly the ``(time, seq)`` eager restore
  gives it, and its callback fires the same timer of the same router.
  The channel messages follow, taking the numbers after the timers',
  as before;
* a router's other timers are pushed no later than its earliest timer
  runs — that timer's coming up builds the router if nothing did
  before — and each is ordered after the earliest one, so each is
  queued before anything ordered after it can run.  Reserved numbers
  are taken by no other event, so no two entries tie and no ``Event``
  is ever compared;
* building a router takes no new sequence number and draws no random
  number (its timers run under reserved numbers, and link streams are
  named, drawn from only by a transmission, whatever the order), so
  the sequence numbers every later event takes are unchanged;
* a link made on its first crossing starts as one made up front and
  never crossed does — a fresh FIFO clock, zero counters, up — and a
  reader that could change it first (``link_between``, ``links()``)
  makes it;
* a router's state changes only when an event reaches it, and the
  first such event builds it first, so it handles that event — and
  every later one — in the state the eager router is in: its
  checkpoint's.

Hence equal traces, equal final states, and equal verdicts from checks
that read a router only once something reached it.  A router nothing
reached holds its checkpoint's state; the checks therefore iterate
:meth:`~repro.net.network.Network.materialized` routers alone.  One
thing reads differently: a clone's :attr:`~repro.net.sim.Simulator.
pending` counts one placeholder per unbuilt router with timers, not
one event per timer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.core.checkpoint import NodeCheckpoint, capture
from repro.net.network import LinkTable, Network
from repro.net.node import Process
from repro.net.sim import Event

ProcessFactory = Callable[[NodeCheckpoint], Process]


@dataclass(frozen=True)
class ChannelMessage:
    """One in-flight message captured on a channel."""

    src: str
    dst: str
    payload: Any
    offset: float  # delivery delay relative to the snapshot cut


@dataclass
class Snapshot:
    """A consistent global state: node checkpoints + channel states."""

    snapshot_id: str
    initiator: str
    taken_at: float  # simulated time at initiation
    completed_at: float  # simulated time when the cut closed
    checkpoints: dict[str, NodeCheckpoint]
    channels: list[ChannelMessage]
    links: list[tuple[str, str, Any]]  # (a, b, profile)

    @property
    def node_count(self) -> int:
        """Number of checkpointed nodes."""
        return len(self.checkpoints)

    @property
    def latency(self) -> float:
        """Simulated seconds from initiation to a closed cut."""
        return self.completed_at - self.taken_at

    def __getstate__(self) -> dict[str, Any]:
        # The clone plan is derived from the fields; it never pickles,
        # so a snapshot's bytes do not depend on whether it was cloned.
        state = dict(self.__dict__)
        state.pop("_plan", None)
        return state

    def _clone_plan(self) -> "_ClonePlan":
        """This snapshot's clone plan, worked out on its first clone.

        A snapshot is not changed once cloned, so the plan holds.
        """
        plan = self.__dict__.get("_plan")
        if plan is None:
            plan = self.__dict__["_plan"] = _ClonePlan.of(self)
        return plan

    def clone(self, process_factory: ProcessFactory, seed: int = 0,
              interned: dict | None = None) -> Network:
        """Materialize an isolated copy of the captured system.

        Figure 2, steps 3-5 run one exploration input per clone.  The
        clone's clock starts at zero; recorded channel messages are
        scheduled at their captured relative offsets.  Routers are
        restored on first touch (see the module docstring).
        ``interned`` is the clone's value table
        (:attr:`~repro.net.network.Network.interned`), a new one if
        None.
        """
        return self.lazy_network(process_factory, seed, interned)

    def lazy_network(self, process_factory: ProcessFactory,
                     seed: int = 0,
                     interned: dict | None = None) -> Network:
        """The network :meth:`clone` returns, every router deferred.

        Reading one router of the snapshot builds it alone; the
        explorer does so without counting a clone.
        """
        plan = self._clone_plan()
        network = Network(seed=seed, interned=interned, links=plan.links)
        # Started before anything is added: Process.start() hooks must
        # not run in clones (they would re-originate and re-open
        # sessions); the checkpointed state already reflects all that.
        network.start_silently()
        base = network.sim.reserve(plan.timer_count)
        for name, checkpoint, timers, first in plan.routers:
            network.defer_process(
                name, timers, first, base,
                partial(_restore, checkpoint, process_factory),
            )
        for message in self.channels:
            network.inject(
                message.src, message.dst, message.payload, delay=message.offset
            )
        return network


# A router of a clone plan: its name, checkpoint, timers as
# ``(timer, deadline, position)`` in its arming order, and the index of
# its earliest timer by ``(deadline, position)`` (-1 with no timers).
_PlannedRouter = tuple[
    str, NodeCheckpoint, tuple[tuple[str, float, int], ...], int
]


@dataclass(frozen=True)
class _ClonePlan:
    """What every clone of one snapshot starts from.

    A clone's clock starts at zero, so a checkpoint timer's remaining
    delay is its deadline, and its position in the eager arming order
    (routers by sorted name, then each router's timers) is its
    sequence number past the clone's reserved base.  The plan binds no
    process factory: each clone names its own.
    """

    routers: tuple[_PlannedRouter, ...]
    timer_count: int
    links: LinkTable

    @staticmethod
    def of(snapshot: Snapshot) -> "_ClonePlan":
        routers = []
        position = 0
        for name in sorted(snapshot.checkpoints):
            checkpoint = snapshot.checkpoints[name]
            timers = tuple(
                (timer, delay, position + index)
                for index, (timer, delay) in enumerate(
                    checkpoint.timers.items())
            )
            position += len(timers)
            first = min(
                range(len(timers)), key=lambda index: timers[index][1:],
                default=-1,
            )
            routers.append((name, checkpoint, timers, first))
        for a, b, _ in snapshot.links:
            for end in (a, b):
                if end not in snapshot.checkpoints:
                    raise KeyError(f"unknown process {end!r}")
        return _ClonePlan(tuple(routers), position,
                          LinkTable(snapshot.links))


def _restore(checkpoint: NodeCheckpoint, process_factory: ProcessFactory,
             network: Network, timers: dict[str, Event]) -> Process:
    """Build ``checkpoint``'s router in ``network`` holding ``timers``."""
    process = process_factory(checkpoint)
    if process.name != checkpoint.node:
        raise ValueError(
            f"factory returned {process.name!r} for checkpoint "
            f"{checkpoint.node!r}"
        )
    process.attach(network)
    checkpoint.restore_into(process, timers)
    return process


class _Marker:
    """The marker payload; never reaches application code."""

    __slots__ = ("snapshot_id",)

    def __init__(self, snapshot_id: str):
        self.snapshot_id = snapshot_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<marker {self.snapshot_id}>"


class SnapshotCoordinator:
    """Runs marker-based snapshots over one live network.

    Determinism contract: a capture is a pure function of the live
    network's state — it drives the simulator only through its ordinary
    deterministic event loop, and checkpoint/channel contents are
    recorded in sorted order.  Only one thread may touch the network
    at a time; a campaign captures on its own thread (see
    :class:`repro.core.pipeline.SnapshotPipeline`).  The coordinator
    itself holds no hidden mutable state beyond two counters —
    ``snapshots_taken`` and the captures begun, which name snapshots —
    and one checkpoint memo per process, through which a capture hands
    back the last capture's container for each RIB that has not
    changed since (:meth:`~repro.net.node.Process.export_state`).  The
    memos live here, not on the processes, so no live object holds a
    checkpoint's container.
    """

    def __init__(self, network: Network):
        self._network = network
        self.snapshots_taken = 0
        self._captures_begun = 0
        self._memos: dict[str, dict] = {}

    def _next_id(self) -> str:
        """``snap-<n>`` for this coordinator's ``n``-th capture begun.

        Ids belong to the live system, not the process, so a report's
        id does not depend on what else the process captured.  Aborted
        captures count too, so a marker still in flight from one never
        carries the id of a later capture by this coordinator.
        """
        self._captures_begun += 1
        return f"snap-{self._captures_begun}"

    # -- atomic capture (ablation baseline) --

    def capture_atomic(self, initiator: str) -> Snapshot:
        """Pause-the-world capture: zero latency, requires global control.

        This is what a centrally-administered system could do; the
        marker protocol below is what a *federated* system must do.  It
        is the pause-the-world reference the snapshot tests compare the
        marker cut against.
        """
        now = self._network.sim.now
        checkpoints = {
            name: capture(process, now, self._memos.setdefault(name, {}))
            for name, process in self._network.processes.items()
        }
        channels = [
            ChannelMessage(
                msg.src, msg.dst, msg.payload,
                offset=max(0.0, msg.deliver_at - now),
            )
            for msg in self._network.in_flight()
        ]
        self.snapshots_taken += 1
        return Snapshot(
            snapshot_id=self._next_id(),
            initiator=initiator,
            taken_at=now,
            completed_at=now,
            checkpoints=checkpoints,
            channels=channels,
            links=self._link_spec(),
        )

    # -- Chandy–Lamport capture --

    def capture(self, initiator: str, deadline: float = 60.0) -> Snapshot:
        """Run the marker protocol; drives the simulator until the cut
        closes (or raises ``TimeoutError`` after ``deadline`` simulated
        seconds, leaving the network outside the protocol — the
        interceptor is removed on abort, so a failed capture never
        poisons later ones)."""
        if initiator not in self._network.processes:
            raise KeyError(f"unknown initiator {initiator!r}")
        session = _MarkerSession(self._network, initiator, self._next_id(),
                                 self._memos)
        session.begin()
        limit = self._network.sim.now + deadline
        while not session.complete():
            if self._network.sim.now >= limit:
                session.abort()
                raise TimeoutError(
                    f"snapshot did not complete within {deadline}s "
                    f"(pending channels: {session.pending_channels()})"
                )
            if not self._network.sim.step():
                # Queue drained with the cut still open: only possible
                # when parts of the graph are unreachable from the
                # initiator.  With no messages in flight anywhere,
                # checkpointing the stragglers directly is consistent.
                session.force_complete()
                break
        snapshot = session.finish(self._link_spec())
        self.snapshots_taken += 1
        return snapshot

    def _link_spec(self) -> list[tuple[str, str, Any]]:
        return [
            (link.a, link.b, link.profile) for link in self._network.links()
        ]


class _MarkerSession:
    """State of one in-progress marker snapshot."""

    def __init__(self, network: Network, initiator: str, snapshot_id: str,
                 memos: dict[str, dict]):
        self._network = network
        self._initiator = initiator
        self._id = snapshot_id
        self._memos = memos
        self._taken_at = network.sim.now
        self._completed_at: float | None = None
        self._checkpoints: dict[str, NodeCheckpoint] = {}
        self._channel_state: dict[tuple[str, str], list[Any]] = {}
        # Channels we still await a marker on, per recorded node, and
        # their number over every node: :meth:`complete` runs once per
        # simulator step, so it reads a count rather than every set.
        self._awaiting: dict[str, set[str]] = {}
        self._pending = 0
        self._installed = False

    # -- protocol steps --

    def begin(self) -> None:
        self._network.add_interceptor(self._intercept)
        self._installed = True
        self._record_node(self._initiator)
        # Nodes with no path to the initiator can never receive a marker.
        # No channel connects the components, so checkpointing them at
        # initiation is trivially consistent with the cut.
        for name in sorted(self._unreachable_nodes()):
            self._record_node(name)
        self._maybe_finish()

    def _unreachable_nodes(self) -> set[str]:
        reachable = {self._initiator}
        frontier = [self._initiator]
        while frontier:
            node = frontier.pop()
            for neighbor in self._network.neighbors(node):
                if neighbor not in reachable:
                    reachable.add(neighbor)
                    frontier.append(neighbor)
        return set(self._network.processes) - reachable

    def abort(self) -> None:
        if self._installed:
            self._network.remove_interceptor(self._intercept)
            self._installed = False

    def _checkpoint(self, name: str) -> None:
        self._checkpoints[name] = capture(
            self._network.processes[name], self._network.sim.now,
            self._memos.setdefault(name, {}),
        )

    def _record_node(self, name: str) -> None:
        self._checkpoint(name)
        neighbors = self._network.neighbors(name)
        awaiting = self._awaiting[name] = set(neighbors)
        self._pending += len(awaiting)
        for neighbor in neighbors:
            self._network.transmit(name, neighbor, _Marker(self._id),
                                   reliable=True)

    def _intercept(self, src: str, dst: str, payload: Any) -> bool:
        if isinstance(payload, _Marker):
            if payload.snapshot_id != self._id:
                return True  # stale marker from an aborted session
            if dst not in self._checkpoints:
                self._record_node(dst)
            awaiting = self._awaiting[dst]
            if src in awaiting:
                awaiting.remove(src)
                self._pending -= 1
            self._maybe_finish()
            return True
        # Data message: part of the channel state if dst already
        # checkpointed but src's marker on this channel is still due.
        if dst in self._checkpoints and src in self._awaiting.get(dst, ()):
            self._channel_state.setdefault((src, dst), []).append(payload)
        return False

    def _maybe_finish(self) -> None:
        if self.complete() and self._completed_at is None:
            self._completed_at = self._network.sim.now
            self.abort()

    # -- completion --

    def force_complete(self) -> None:
        """Checkpoint any unreached nodes and close all pending channels.

        Only sound when the event queue is fully drained (no in-flight
        messages exist anywhere), which the coordinator guarantees.
        """
        for name in self._network.processes:
            if name not in self._checkpoints:
                self._checkpoint(name)
                self._awaiting[name] = set()
        for pending in self._awaiting.values():
            pending.clear()
        self._pending = 0
        self._maybe_finish()

    def complete(self) -> bool:
        """All nodes recorded and no channel still awaits its marker."""
        return (
            self._pending == 0
            and len(self._checkpoints) >= len(self._network.processes)
        )

    def pending_channels(self) -> list[tuple[str, str]]:
        """Channels still awaiting markers (diagnostics)."""
        return [
            (src, dst)
            for dst, sources in self._awaiting.items()
            for src in sources
        ]

    def finish(self, links: list[tuple[str, str, Any]]) -> Snapshot:
        self._maybe_finish()
        self.abort()
        completed = (
            self._completed_at
            if self._completed_at is not None
            else self._network.sim.now
        )
        channels = [
            ChannelMessage(src, dst, payload, offset=0.0)
            for (src, dst), payloads in sorted(self._channel_state.items())
            for payload in payloads
        ]
        return Snapshot(
            snapshot_id=self._id,
            initiator=self._initiator,
            taken_at=self._taken_at,
            completed_at=completed,
            checkpoints=dict(self._checkpoints),
            channels=channels,
            links=links,
        )
