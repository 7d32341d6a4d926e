"""The campaign task engine: exploration sessions as tasks on worker slots.

The paper's loop — snapshot, clone, inject one exploration input per
clone, check properties — is embarrassingly parallel across explorer
nodes: every node-exploration session runs over its *own* snapshot in
fully isolated clones and touches nothing of the live system.  This
module runs those sessions as tasks on worker slots — one inline slot
in the campaign's own process at ``workers=1``, worker processes or
remote daemons above that:

* an :class:`ExplorationTask` is the picklable unit of work — the
  session's :class:`~repro.core.explorer.ExplorationConfig` (node,
  strategy, budget, per-session derived seed, stop mode), the
  snapshot (or its payload, :mod:`repro.core.payload`), the property
  suite and origination claims — nothing an earlier session learned —
  plus the :class:`~repro.concolic.frontier.FrontierShard` it runs: a
  slice of the session's frontier and an execution budget.  A whole
  session is the one round-0 shard that holds the full budget;
* :func:`run_task` is the worker entry point (a module-level function,
  so it survives both fork and spawn start methods).  It is a **pure
  function of the task**, so any task can run — or rerun after a
  worker death — on *any* slot.  A worker keeps one thing between
  tasks: the RIB block it decoded last
  (:func:`~repro.core.payload.decode_snapshot`), a memo keyed by the
  block's bytes, which every task still carries.  A hit returns the
  objects a fresh decode would equal, as nothing writes a decoded
  block and ``import_state`` builds its own containers from it;
* :class:`ParallelCampaignEngine` routes each task to the live slot
  with the least outstanding work and hands back a handle the
  orchestrator resolves **in task order**, regardless of worker
  completion order, so its merge — and therefore fault reports, seeds,
  and counters — is identical at any worker count.  *Where* the slots
  live is a pluggable :class:`WorkerTransport`: inline
  (:class:`InlineTransport`), local process pools
  (:class:`LocalPoolTransport`), or the remote loopback and TCP-socket
  transports in :mod:`repro.core.remote`.

Determinism is by construction: each task's config carries a seed
derived via :func:`repro.util.rng.derive_seed` from the campaign seed
and the session's (cycle, node) identity, snapshots are captured
serially in the main process (the live system is single-threaded
state), and only the exploration — clone, inject, propagate, check —
fans out.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Protocol, Sequence

from repro.concolic.frontier import Frontier, FrontierShard
from repro.core.explorer import (
    ExplorationConfig,
    Explorer,
    NodeExplorationReport,
)
from repro.core.payload import decode_snapshot
from repro.core.properties import PropertySuite
from repro.core.sharing import ClaimTable
from repro.core.snapshot import Snapshot

class WorkerTransport(Protocol):
    """Where exploration tasks run: the engine's dispatch backend.

    A transport owns ``slots`` ordered worker slots and runs
    :func:`run_task` on whichever one the engine names; a slot keeps
    nothing between tasks but its block memo (see the module
    docstring), so nothing depends on which one that is.
    Implementations: inline and process-pool slots live here
    (:class:`InlineTransport`, :class:`LocalPoolTransport`); framed
    loopback and TCP-socket transports live in
    :mod:`repro.core.remote`.

    :func:`make_transport` is the one place a transport name becomes
    one of these.

    Two further methods are optional (looked up with ``getattr``):
    ``discard_slot(slot)`` releases the resources of a slot the engine
    declared dead — the engine alone records dead slots and never
    submits to one again — and ``slot_label(slot)`` names a slot for
    failure reports ("host:port" for sockets).  A transport signals a
    *slot* death — as opposed to a task failure — by resolving futures
    with an exception for which :func:`is_transport_fatal` is true.
    """

    slots: int

    def submit(self, slot: int, task: "ExplorationTask") -> "Future[TaskOutcome]":
        """Schedule one task on ``slot``; the future yields its outcome."""
        ...

    def close(self) -> None:
        """Release worker resources; pending undelivered work is cancelled."""
        ...


# -- benchmark compatibility -------------------------------------------------
#
# benchmarks/e2e/spans.py wraps these three methods by name when it
# traces a campaign.  Nothing in this package creates or calls the
# class; delete it once the benchmark's tracer no longer names it.


class SolverCacheCoordinator:
    """An empty stand-in kept for the benchmark tracer (see above)."""

    def absorb(self, *args) -> None:
        """Never called."""

    def absorb_shard(self, *args) -> None:
        """Never called."""

    def end_cycle(self) -> None:
        """Never called."""


# -- tasks and outcomes ------------------------------------------------------


@dataclass(frozen=True)
class ExplorationTask:
    """One shard of one node-exploration session, ready to ship.

    Everything here must pickle: the session config, the snapshot
    (checkpoints + channel state) or its payload, the property suite
    (stateless check objects), the claims and the shard.
    """

    config: ExplorationConfig
    snapshot: Snapshot | None
    suite: PropertySuite
    claims: ClaimTable
    shard: FrontierShard
    # The snapshot's payload (repro.core.payload), encoded once per
    # capture and shared by every task of the session, so task
    # pickling is a near-memcpy (bytes re-pickle cheaply); used when
    # ``snapshot`` is None.
    snapshot_blob: bytes | None = field(default=None, repr=False)

    def resolve_snapshot(self) -> Snapshot:
        """The snapshot to explore, decoding the payload if needed (its
        RIB block once per process while the block repeats)."""
        if self.snapshot is not None:
            return self.snapshot
        if self.snapshot_blob is None:
            raise ValueError(
                "task carries neither a snapshot nor a snapshot_blob"
            )
        return decode_snapshot(self.snapshot_blob)


@dataclass
class TaskOutcome:
    """What one shard task produced: its report (which names the
    node and the snapshot) and its leftover frontier (un-popped entries
    plus everything it learned).

    The orchestrator absorbs outcomes in (round, shard) order, never
    completion order, and merges the frontiers at the round boundary,
    so the merged session report and the frontier handed to the next
    round are identical at any worker count.
    """

    report: NodeExplorationReport = field(repr=False)
    frontier: Frontier = field(repr=False)


def run_task(task: ExplorationTask) -> TaskOutcome:
    """Worker entry point: run one task start to finish.

    The single function every transport submits (module-level, so it
    survives fork and spawn), and a pure function of the task: it reads
    nothing the task does not carry and writes to nothing the task
    carries, so dispatching the same task again — on any slot — yields
    the same outcome.  The block memo :meth:`ExplorationTask.
    resolve_snapshot` reads through is keyed by bytes the task carries.
    """
    explorer = Explorer(task.resolve_snapshot(), task.suite, task.claims)
    return TaskOutcome(*explorer.explore_shard(task.config, task.shard))


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count knob: None = one per usable CPU, floor 1."""
    if workers is None:
        return available_cpus()
    return max(1, workers)


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the host's CPUs even inside
    cgroup/affinity-limited containers (CI runners routinely pin 2 of
    64), which would oversubscribe the pool; the scheduler affinity
    mask is the truth wherever the platform exposes it.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


# -- worker failover ----------------------------------------------------------


class WorkerLostError(RuntimeError):
    """Marker base for *transport-fatal* failures: the worker slot —
    not the task — died (connection drop, daemon crash, broken pool
    process).  The engine's failover treats exactly these as
    recoverable by requeueing the slot's tasks elsewhere; any other
    exception is a deterministic task failure that would fail on every
    slot and therefore propagates.  :class:`repro.core.remote.
    WorkerDiedError` mixes this in on the socket/loopback side.
    """


def is_transport_fatal(error: BaseException) -> bool:
    """Whether an exception means the worker slot is gone.

    ``BrokenProcessPool`` is the local-pool equivalent of a dead
    daemon: the slot's single pool process died.
    """
    return isinstance(error, (WorkerLostError, BrokenProcessPool))


@dataclass(frozen=True)
class WorkerFailure:
    """One dead worker slot, for reports and error messages."""

    slot: int
    worker: str  # human label: "127.0.0.1:7411", "local pool slot 2"
    error: str  # one-line cause summary

    def __str__(self) -> str:
        return f"{self.worker}: {self.error}"


class WorkerFailoverError(RuntimeError):
    """The campaign lost more worker slots than it may tolerate.

    Carries the full failure list so operators see every dead worker,
    not just the final straw; ``dead_workers`` is the label list the
    CLI and reports surface.
    """

    def __init__(self, failures: Sequence[WorkerFailure], limit: int,
                 reason: str | None = None):
        self.failures = list(failures)
        self.dead_workers = [failure.worker for failure in self.failures]
        detail = "; ".join(str(failure) for failure in self.failures)
        super().__init__(
            reason
            or f"campaign lost {len(self.failures)} worker slot(s), "
               f"exceeding max_worker_failures={limit}: {detail}"
        )


class InlineTransport:
    """Runs every task synchronously in the calling process.

    The one-slot ``local`` backend: no fork, no pickling — the serial
    reference every other transport must equal.  ``inline`` is the one
    fact campaigns read off a transport (with ``getattr``; absent means
    "ships bytes"):
    :meth:`submit` resolves before returning and nothing leaves the
    process, so there is nothing to pre-pickle and every outcome can
    merge the moment its task was submitted.
    Control-flow exceptions (``KeyboardInterrupt``, ``SystemExit``)
    propagate to the caller instead of being stuffed into the future:
    an operator's Ctrl-C must abort the campaign, not masquerade as one
    failed task.
    """

    slots = 1
    inline = True

    def submit(self, slot: int, task: ExplorationTask) -> "Future[TaskOutcome]":
        future: Future[TaskOutcome] = Future()
        try:
            future.set_result(run_task(task))
        except Exception as error:
            future.set_exception(error)
        return future

    def close(self) -> None:
        """Nothing to release."""


class LocalPoolTransport:
    """One single-process :class:`ProcessPoolExecutor` per slot.

    Pools are created lazily on first use and reaped by :meth:`close`;
    pending tasks are cancelled on close (the
    ``stop_after_first_fault`` abort path), leaving already-merged
    results untouched.  The pool of a slot whose process died
    (``BrokenProcessPool``) is shut down by :meth:`discard_slot`; the
    engine requeues its tasks elsewhere rather than respawning it.
    """

    def __init__(self, slots: int):
        self.slots = max(1, slots)
        self._pools: list[ProcessPoolExecutor | None] = [None] * self.slots

    def submit(self, slot: int, task: ExplorationTask) -> "Future[TaskOutcome]":
        pool = self._pools[slot]
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=1)
            self._pools[slot] = pool
        return pool.submit(run_task, task)

    def slot_label(self, slot: int) -> str:
        return f"local pool slot {slot}"

    def discard_slot(self, slot: int) -> None:
        """Shut down the pool of a slot whose process died."""
        pool = self._pools[slot]
        if pool is not None:
            pool.shutdown(cancel_futures=True)
            self._pools[slot] = None

    def close(self) -> None:
        for index, pool in enumerate(self._pools):
            if pool is not None:
                pool.shutdown(cancel_futures=True)
                self._pools[index] = None


TRANSPORTS = ("local", "loopback", "socket")


def make_transport(workers: int | None, transport: str = "local",
                   remote_workers: Sequence[str] | None = None
                   ) -> WorkerTransport:
    """The one place a transport name becomes a :class:`WorkerTransport`.

    ``"local"`` is the inline transport at one slot and per-slot
    process pools above that, ``"loopback"`` the remote wire protocol
    run in-process on ``workers`` slots, and ``"socket"`` one slot per
    ``remote_workers`` address (``workers`` is not read).  ``workers``
    is normalized by :func:`resolve_workers`.
    """
    if transport == "local":
        count = resolve_workers(workers)
        return InlineTransport() if count <= 1 else LocalPoolTransport(count)
    # Imported here: repro.core.remote builds on this module.
    from repro.core.remote import LoopbackTransport, SocketTransport

    if transport == "loopback":
        return LoopbackTransport(slots=resolve_workers(workers))
    if transport == "socket":
        if not remote_workers:
            raise ValueError(
                "transport='socket' requires remote_workers "
                "(host:port addresses, one worker slot each)"
            )
        return SocketTransport(remote_workers)
    raise ValueError(
        f"unknown transport {transport!r}; choose from "
        + ", ".join(TRANSPORTS)
    )


@dataclass
class DispatchStats:
    """Which transport ran a campaign's tasks and what dispatch cost:
    its framed wire traffic (0 for in-process transports) and the
    failover ledger — worker slots lost mid-campaign, with their
    labels, and tasks requeued onto survivors.  All zero on a
    failure-free run; results are bit-identical either way.  The JSON
    report's ``dispatch_transport`` block, key for key; the engine
    builds it (:meth:`ParallelCampaignEngine.dispatch_stats`).
    """

    transport: str = "local"
    wire_bytes_sent: int = 0
    wire_bytes_received: int = 0
    worker_failures: int = 0
    max_worker_failures: int = 0
    dead_workers: list[str] = field(default_factory=list)
    tasks_requeued: int = 0


class TaskHandle:
    """A requeue-aware future for one submitted task.

    Wraps the transport future together with the task and its slot, so
    :meth:`result` can fail over: when the slot died, the engine
    dispatches the same task to a surviving slot and the handle
    transparently tracks the retry.  Resolve handles strictly
    in submission order — the merge-order contract is the handle
    caller's job, exactly as it was with bare futures.
    """

    def __init__(self, engine: "ParallelCampaignEngine",
                 task: ExplorationTask, slot: int,
                 future: "Future[TaskOutcome]"):
        self._engine = engine
        self.task = task
        self.slot = slot
        self.future = future

    def done(self) -> bool:
        return self.future.done()

    def result(self) -> TaskOutcome:
        """The task's outcome, retrying across worker deaths."""
        return self._engine._resolve(self)


class ParallelCampaignEngine:
    """Spreads exploration tasks across one transport's worker slots.

    The engine owns *routing, ordering and failover*; where tasks
    actually run is the :class:`WorkerTransport`'s business — the one
    it is handed, usually built by :func:`make_transport` — so the
    orchestrator is transport-agnostic.

    Use as a context manager (or call :meth:`close`) so worker
    resources are released.

    Determinism contract: the engine never reorders results — callers
    of :meth:`submit` resolve handles in submission order — so the
    orchestrator's merge sees one fixed outcome order at any worker
    count.  Every task routes to the live slot with the least
    outstanding work (:meth:`next_slot`); :func:`run_task` is a pure
    function of the task, so placement cannot affect an outcome.

    Failover rests on the same fact: when a slot dies (transport-fatal
    error, see :func:`is_transport_fatal`), the engine marks it dead
    and dispatches the failed task again, unchanged, on a surviving
    slot — all inside :meth:`TaskHandle.result`, on the resolving
    thread, so merge order never changes and results stay bit-identical
    to a failure-free run.  More than ``max_worker_failures`` dead
    slots (default: all but one) raises :class:`WorkerFailoverError`
    naming every dead worker.
    """

    def __init__(self, transport: WorkerTransport,
                 max_worker_failures: int | None = None):
        self._transport = transport
        self.workers = transport.slots
        if max_worker_failures is not None and max_worker_failures < 0:
            # Clamping would turn a "-1 = unlimited" guess into strict
            # fail-fast mode — the opposite intent, silently.
            raise ValueError(
                f"max_worker_failures must be >= 0 (or None for all "
                f"but one slot), got {max_worker_failures}"
            )
        self.max_worker_failures = (
            self.workers - 1 if max_worker_failures is None
            else max_worker_failures
        )
        # Tasks in flight per slot, which routing reads.  Updated only
        # on the single submitting/resolving thread, so it is
        # deterministic.
        self._outstanding: dict[int, int] = {}
        self._dead_slots: set[int] = set()
        self.failures: list[WorkerFailure] = []
        self.tasks_requeued = 0

    @property
    def inline(self) -> bool:
        """Whether tasks run synchronously in this process (see
        :class:`InlineTransport`)."""
        return getattr(self._transport, "inline", False)

    def __enter__(self) -> "ParallelCampaignEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the transport's workers.

        Tasks already submitted but not yet started are cancelled —
        relevant when a pooled campaign aborts on
        ``stop_after_first_fault``; results merged before the abort are
        unaffected.
        """
        self._transport.close()

    def dispatch_stats(self, transport: str) -> DispatchStats:
        """This engine's dispatch record, under the transport name the
        campaign was configured with."""
        return DispatchStats(
            transport=transport,
            wire_bytes_sent=getattr(self._transport, "bytes_sent", 0),
            wire_bytes_received=getattr(self._transport, "bytes_received", 0),
            worker_failures=len(self.failures),
            max_worker_failures=self.max_worker_failures,
            dead_workers=[failure.worker for failure in self.failures],
            tasks_requeued=self.tasks_requeued,
        )

    def _no_survivors_error(self) -> WorkerFailoverError:
        return WorkerFailoverError(
            self.failures, self.max_worker_failures,
            reason="no surviving worker slots: "
                   + "; ".join(str(f) for f in self.failures),
        )

    def next_slot(self) -> int:
        """The worker slot the next dispatched task goes to.

        Least outstanding work wins, lowest slot index breaks ties.
        Deterministic because the in-flight counters are maintained
        solely by the single submitting/resolving thread — routing is a
        pure function of the submit/resolve sequence, never of worker
        completion times.
        """
        live = [
            candidate for candidate in range(self.workers)
            if candidate not in self._dead_slots
        ]
        if not live:
            raise self._no_survivors_error()
        return min(
            live,
            key=lambda slot: (self._outstanding.get(slot, 0), slot),
        )

    def submit(self, task: ExplorationTask) -> TaskHandle:
        """Schedule one task; returns a handle resolving to its outcome.

        The campaign loop submits each task as soon as its snapshot
        arrives from the capture source and resolves the handles
        strictly in task order.  On the inline transport the task runs
        before this returns.
        """
        slot = self.next_slot()
        return TaskHandle(self, task, slot, self._dispatch(slot, task))

    def _dispatch(self, slot: int, task: ExplorationTask) -> "Future[TaskOutcome]":
        """Submit to the transport; dispatch-time errors become the
        future's exception so failover handles them at resolve time.
        Control-flow exceptions (Ctrl-C on the inline path) propagate.
        """
        self._outstanding[slot] = self._outstanding.get(slot, 0) + 1
        try:
            return self._transport.submit(slot, task)
        except Exception as error:
            future: Future[TaskOutcome] = Future()
            future.set_exception(error)
            return future

    def _slot_label(self, slot: int) -> str:
        label = getattr(self._transport, "slot_label", None)
        return label(slot) if label is not None else f"worker slot {slot}"

    def _fail_slot(self, slot: int, error: BaseException) -> None:
        """Mark a slot dead and enforce the failure budget."""
        if slot not in self._dead_slots:
            self._dead_slots.add(slot)
            self.failures.append(
                WorkerFailure(
                    slot=slot,
                    worker=self._slot_label(slot),
                    error=f"{type(error).__name__}: {error}".splitlines()[0],
                )
            )
            discard = getattr(self._transport, "discard_slot", None)
            if discard is not None:
                discard(slot)
        if len(self._dead_slots) >= self.workers:
            raise self._no_survivors_error() from error
        if len(self._dead_slots) > self.max_worker_failures:
            raise WorkerFailoverError(
                self.failures, self.max_worker_failures
            ) from error

    def _release_slot(self, slot: int) -> None:
        count = self._outstanding.get(slot, 0)
        if count > 0:
            self._outstanding[slot] = count - 1

    def _resolve(self, handle: TaskHandle) -> TaskOutcome:
        """Resolve one handle, failing over across worker deaths.

        A task whose slot died is dispatched again, unchanged, wherever
        :meth:`next_slot` points.  Each loop iteration either returns,
        retires a previously-live slot, or raises; slots are finite, so
        resolution terminates.
        """
        while True:
            try:
                outcome = handle.future.result()
            except Exception as error:
                self._release_slot(handle.slot)
                if not is_transport_fatal(error):
                    raise
                self._fail_slot(handle.slot, error)
                self.tasks_requeued += 1
                handle.slot = self.next_slot()
                handle.future = self._dispatch(handle.slot, handle.task)
            else:
                self._release_slot(handle.slot)
                return outcome
