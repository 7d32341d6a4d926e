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
fresh simulator, fresh processes rebuilt by a factory, node states
restored from checkpoints, and the recorded channel messages re-injected
with their relative delivery offsets.  Clones share immutable leaves
(routes, attributes, configs, message bytes) with the snapshot, the live
system and each other, and no mutable state (asserted by the aliasing
test in ``tests/core/test_checkpoint.py``), which is what lets DiCE
explore "alongside the deployed system but in isolation from it".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.checkpoint import NodeCheckpoint, capture
from repro.net.network import Network
from repro.net.node import Process

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
    wall_time_s: float = 0.0

    @property
    def node_count(self) -> int:
        """Number of checkpointed nodes."""
        return len(self.checkpoints)

    @property
    def latency(self) -> float:
        """Simulated seconds from initiation to a closed cut."""
        return self.completed_at - self.taken_at

    def clone(self, process_factory: ProcessFactory, seed: int = 0) -> Network:
        """Materialize an isolated copy of the captured system.

        Figure 2, steps 3-5 run one exploration input per clone.  The
        clone's clock starts at zero; recorded channel messages are
        scheduled at their captured relative offsets.
        """
        clone = Network(seed=seed)
        for name in sorted(self.checkpoints):
            checkpoint = self.checkpoints[name]
            process = process_factory(checkpoint)
            if process.name != name:
                raise ValueError(
                    f"factory returned {process.name!r} for checkpoint {name!r}"
                )
            clone.add_process(process)
        for a, b, profile in self.links:
            clone.add_link(a, b, profile)
        # Mark started *before* restoring state: Process.start() hooks
        # must not run in clones (they would re-originate and re-open
        # sessions); the checkpointed state already reflects all that.
        clone.start_silently()
        for name in sorted(self.checkpoints):
            self.checkpoints[name].restore_into(clone.processes[name])
        for message in self.channels:
            clone.inject(
                message.src, message.dst, message.payload, delay=message.offset
            )
        return clone


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
    itself holds no hidden mutable state beyond two counters:
    ``snapshots_taken`` and the captures begun, which name snapshots.
    """

    def __init__(self, network: Network):
        self._network = network
        self.snapshots_taken = 0
        self._captures_begun = 0

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
        marker protocol below is what a *federated* system must do.  The
        FIG2/overhead benches compare the two.
        """
        started = time.perf_counter()
        now = self._network.sim.now
        checkpoints = {
            name: capture(process, now)
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
            wall_time_s=time.perf_counter() - started,
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
        started = time.perf_counter()
        session = _MarkerSession(self._network, initiator, self._next_id())
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
        snapshot.wall_time_s = time.perf_counter() - started
        self.snapshots_taken += 1
        return snapshot

    def _link_spec(self) -> list[tuple[str, str, Any]]:
        return [
            (link.a, link.b, link.profile) for link in self._network.links()
        ]


class _MarkerSession:
    """State of one in-progress marker snapshot."""

    def __init__(self, network: Network, initiator: str, snapshot_id: str):
        self._network = network
        self._initiator = initiator
        self._id = snapshot_id
        self._taken_at = network.sim.now
        self._completed_at: float | None = None
        self._checkpoints: dict[str, NodeCheckpoint] = {}
        self._channel_state: dict[tuple[str, str], list[Any]] = {}
        # Channels we still await a marker on, per recorded node.
        self._awaiting: dict[str, set[str]] = {}
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

    def _record_node(self, name: str) -> None:
        process = self._network.processes[name]
        self._checkpoints[name] = capture(process, self._network.sim.now)
        neighbors = self._network.neighbors(name)
        self._awaiting[name] = set(neighbors)
        for neighbor in neighbors:
            self._network.transmit(name, neighbor, _Marker(self._id),
                                   reliable=True)

    def _intercept(self, src: str, dst: str, payload: Any) -> bool:
        if isinstance(payload, _Marker):
            if payload.snapshot_id != self._id:
                return True  # stale marker from an aborted session
            if dst not in self._checkpoints:
                self._record_node(dst)
            self._awaiting[dst].discard(src)
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
                process = self._network.processes[name]
                self._checkpoints[name] = capture(
                    process, self._network.sim.now
                )
                self._awaiting[name] = set()
        for pending in self._awaiting.values():
            pending.clear()
        self._maybe_finish()

    def complete(self) -> bool:
        """All nodes recorded and no channel still awaits its marker."""
        if len(self._checkpoints) < len(self._network.processes):
            return False
        return all(not pending for pending in self._awaiting.values())

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
