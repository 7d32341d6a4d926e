"""The campaign task engine: exploration sessions as tasks on worker slots.

The paper's loop — snapshot, clone, inject one exploration input per
clone, check properties — is embarrassingly parallel across explorer
nodes: every node-exploration session runs over its *own* snapshot in
fully isolated clones and touches nothing of the live system.  This
module runs those sessions as tasks on worker slots — one inline slot
in the campaign's own process at ``workers=1``, worker processes or
remote daemons above that:

* an :class:`ExplorationTask` is the picklable unit of work — snapshot
  (or a pre-pickled snapshot payload), node, strategy, per-task derived
  seed, input batch, property suite, origination claims and a solver
  :class:`CacheSync`;
* a :class:`FrontierShardTask` is the finer-grained, intra-session unit:
  one partition of one session's concolic frontier plus an execution
  budget, hermetic (fresh explorer, fresh private solver cache) so it
  can run — or rerun after a worker death — on *any* slot;
* :func:`run_task` is the worker entry point (a module-level function,
  so it survives both fork and spawn start methods), dispatching to
  :func:`run_exploration_task` or :func:`run_frontier_shard`;
* :class:`ParallelCampaignEngine` dispatches tasks with **sticky
  per-node routing** (every task for one node runs on the same worker
  slot) and returns :class:`TaskOutcome` objects **in task order**,
  regardless of worker completion order, so the orchestrator's merge —
  and therefore fault reports, seeds, and counters — is identical at
  any worker count.  *Where* the slots live is a pluggable
  :class:`WorkerTransport`: inline (:class:`InlineTransport`), local
  process pools (:class:`LocalPoolTransport`), or the remote loopback
  and TCP-socket transports in :mod:`repro.core.remote`.

Solver-cache transport is delta-shipped: instead of pickling each
node's whole warm :class:`~repro.concolic.solver.SolverCache` to and
from every worker every cycle (O(MB) both ways once warm), the worker
slot keeps a per-node replica, tasks carry only the cross-node merge
events since the last sync, and outcomes carry only the entries the
session added (:class:`~repro.concolic.solver.CacheDelta`).  The
orchestrator-side :class:`SolverCacheCoordinator` reassembles every
node's cache from base + ordered deltas, folds all nodes' new entries
into all caches between cycles in a fixed order, and counts bytes
shipped vs. the full-cache equivalent.

Determinism is by construction: each task carries a seed derived via
:func:`repro.util.rng.derive_seed` from the campaign seed and the task's
(cycle, node) identity, snapshots are captured serially in the main
process (the live system is single-threaded state), cache replicas are
a pure function of the (deterministic) event log, and only the
exploration — clone, inject, propagate, check — fans out.
"""

from __future__ import annotations

import itertools
import os
import pickle
import uuid
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Protocol, Sequence

from repro.bgp.ip import Prefix
from repro.concolic.frontier import Frontier, FrontierDiscipline
from repro.concolic.solver import (
    CacheDelta,
    CacheEvent,
    SolverCache,
    model_events,
    pack_events,
    unpack_events,
)
from repro.core.explorer import (
    ExplorationConfig,
    Explorer,
    NodeExplorationReport,
    STRATEGY_CONCOLIC,
)
from repro.core.live import bgp_process_factory
from repro.core.properties import PropertySuite
from repro.core.sharing import SharingRegistry
from repro.core.snapshot import ProcessFactory, Snapshot

ClaimSpec = tuple[tuple[str, int], ...]


def claims_to_spec(claims: SharingRegistry) -> ClaimSpec:
    """Flatten a registry's origination claims into picklable pairs.

    Endpoints hold per-clone closures and never cross process
    boundaries; workers rebuild them clone-locally (exactly as the
    serial explorer does).  Only the claim *data* travels.
    """
    return tuple(
        (str(prefix), asn)
        for prefix in claims.all_claimed_prefixes()
        for asn in sorted(claims.claimed_origins(prefix))
    )


def claims_from_spec(spec: ClaimSpec) -> SharingRegistry:
    """Rebuild a claims-only registry inside a worker."""
    registry = SharingRegistry()
    for prefix, asn in spec:
        registry.claim_origin(asn, Prefix(prefix))
    return registry


# -- solver-cache sync protocol ----------------------------------------------


@dataclass(frozen=True)
class CacheSync:
    """Everything a worker needs to bring its node's replica current.

    ``token`` scopes the worker-side replica store to one campaign (a
    reused pool or an inline engine must not resume another campaign's
    caches).  ``base_generation`` is the generation the replica must be
    at *before* applying the pending cross-node merge — a mismatch
    means tasks for this node ran on different slots, which the
    engine's sticky routing is required to prevent.

    The merge blob is identical for every node of a cycle, so it ships
    **once per worker slot per cycle**: the first sync landing on a
    slot carries ``merge_blob`` (zlib-packed events), later syncs carry
    only ``merge_id`` and the worker re-reads the blob from its
    process-local store.  ``merge_id`` 0 means no merge is pending.

    ``rebuild`` is the failover path: when a worker slot dies, the
    node's replica is lost with it, so the first task re-routed to a
    surviving slot carries the node's full ordered event history —
    ``("d", packed_delta_events)`` entries for the node's own
    journalled stores and ``("g", packed_merge_events)`` entries for
    each sealed cross-node merge epoch, in exactly the order the
    orchestrator's mirror applied them.  Replaying it onto a fresh
    cache reproduces the lost replica bit-exactly (``base_generation``
    then names the post-replay generation, and ``merge_id`` epochs are
    already folded in).  ``None`` means no rebuild — the normal case.
    """

    node: str
    token: str
    max_entries: int
    base_generation: int
    merge_id: int = 0
    merge_blob: bytes | None = field(default=None, repr=False)
    rebuild: tuple[tuple[str, bytes], ...] | None = field(
        default=None, repr=False
    )


class ReplicaStore:
    """One worker's per-node solver-cache replicas plus merge staging.

    A pool worker process, the in-process inline path, and a remote
    worker daemon each hold exactly one store: replicas stay warm
    across the tasks (and, for long-lived daemons, the cycles) that
    land on that worker, scoped to one campaign by the sync token.

    The cross-node merge blob reaches a store by either route:

    * **piggybacked** — a :class:`CacheSync` carries ``merge_blob`` the
      first time a slot sees an epoch (local pools, which have no
      side channel);
    * **pushed** — transports with a push channel stream the epoch's
      events as :meth:`stage_chunk` calls while the cycle is still
      merging, then seal them with :meth:`commit_epoch`; the blob is
      already resident when the next cycle's first task arrives.

    Either way the events are *applied* to a node's replica only when a
    task's sync references the epoch — the deterministic point the
    orchestrator's mirror applies them too — so push cadence can never
    change cache state, only when the bytes travel.
    """

    def __init__(self):
        self.token: str | None = None
        self.caches: dict[str, SolverCache] = {}
        self.epochs: dict[str, int] = {}
        self.blob_id = 0
        self.blob_events: tuple[CacheEvent, ...] = ()
        # epoch -> {seq -> packed events}: push-channel chunks waiting
        # for their commit.  Keyed idempotently so a daemon serving two
        # orchestrator connections stages each chunk once.
        self.staged: dict[int, dict[int, bytes]] = {}

    def _rescope(self, token: str) -> None:
        """Reset everything when a new campaign starts using the store."""
        if self.token != token:
            self.token = token
            self.caches = {}
            self.epochs = {}
            self.blob_id = 0
            self.blob_events = ()
            self.staged = {}

    def stage_chunk(self, token: str, epoch: int, seq: int,
                    packed: bytes) -> None:
        """Buffer one pushed slice of a future merge epoch's events."""
        self._rescope(token)
        self.staged.setdefault(epoch, {}).setdefault(seq, packed)

    def commit_epoch(self, token: str, epoch: int, chunks: int) -> None:
        """Seal a pushed epoch: assemble its chunks into the merge blob."""
        self._rescope(token)
        if epoch == self.blob_id:
            return  # duplicate commit (second connection to one daemon)
        staged = self.staged.pop(epoch, {})
        if sorted(staged) != list(range(chunks)):
            raise RuntimeError(
                f"merge epoch {epoch} committed with chunks "
                f"{sorted(staged)}, expected 0..{chunks - 1}"
            )
        events: list[CacheEvent] = []
        for seq in range(chunks):
            events.extend(unpack_events(staged[seq]))
        self.blob_id = epoch
        self.blob_events = tuple(events)

    def replica_for(self, sync: CacheSync) -> SolverCache:
        """The replica for one node, synced to the task."""
        self._rescope(sync.token)
        if sync.merge_blob is not None and sync.merge_id != self.blob_id:
            self.blob_id = sync.merge_id
            self.blob_events = unpack_events(sync.merge_blob)
        if sync.rebuild is not None:
            self._rebuild_replica(sync)
        cache = self.caches.get(sync.node)
        if cache is None:
            cache = SolverCache(max_entries=sync.max_entries)
            self.caches[sync.node] = cache
        if cache.generation != sync.base_generation:
            raise RuntimeError(
                f"solver-cache replica for {sync.node!r} is at generation "
                f"{cache.generation} but the task expects "
                f"{sync.base_generation}; tasks for one node must stay on "
                "one worker slot"
            )
        if sync.merge_id:
            applied = self.epochs.get(sync.node, 0)
            if applied != sync.merge_id:
                if applied != sync.merge_id - 1 or self.blob_id != sync.merge_id:
                    raise RuntimeError(
                        f"solver-cache replica for {sync.node!r} missed "
                        f"merge epoch {sync.merge_id} (applied {applied}, "
                        f"blob {self.blob_id})"
                    )
                cache.merge_delta(self.blob_events)
                self.epochs[sync.node] = sync.merge_id
        return cache

    def _rebuild_replica(self, sync: CacheSync) -> None:
        """Reconstruct a node's lost replica from its event history.

        The history interleaves the node's own journalled stores
        (``"d"`` entries, replayed exactly as the orchestrator's mirror
        replayed the shipped deltas) with the sealed cross-node merge
        epochs (``"g"`` entries, folded first-writer-wins), in mirror
        application order — so the rebuilt cache is bit-identical to
        the replica the dead slot held, including FIFO eviction order
        and merged-entry provenance.  Any cache this store previously
        held for the node is discarded: a replica that survived a
        partial failure cannot be trusted to be in sync (a mid-task
        death may have advanced it past the orchestrator's knowledge).
        """
        cache = SolverCache(max_entries=sync.max_entries)
        for kind, packed in sync.rebuild:
            events = unpack_events(packed)
            if kind == "d":
                cache.replay_events(events)
            else:
                cache.merge_delta(events)
        self.caches[sync.node] = cache
        # The history already folds every sealed epoch, so the normal
        # per-task merge application below must treat them as applied.
        self.epochs[sync.node] = sync.merge_id


# The calling process's store: pool worker processes (fork or spawn —
# the process persists either way) and the inline workers<=1 path both
# use it; remote worker daemons hold their own instance.
_WORKER_REPLICAS = ReplicaStore()


def _replica_for(sync: CacheSync) -> SolverCache:
    """The process-global replica for one node, synced to the task."""
    # repro: allow[HRM002] warm-replica cache keyed by sync token; a miss
    # rebuilds deterministically from the task's event log, so the store
    # only changes latency, never results
    return _WORKER_REPLICAS.replica_for(sync)


_SYNC_TOKENS = itertools.count(1)


class PushChannel(Protocol):
    """Out-of-band path from the orchestrator to every worker slot.

    Both methods broadcast to all slots and return the wire bytes that
    cost (0 for in-process transports that only hand references around).
    """

    def push_chunk(self, token: str, epoch: int, seq: int,
                   packed: bytes) -> int:
        """Deliver one slice of merge epoch ``epoch``'s events."""
        ...

    def push_commit(self, token: str, epoch: int, chunks: int) -> int:
        """Seal epoch ``epoch`` after its ``chunks`` slices all shipped."""
        ...


class WorkerTransport(Protocol):
    """Where exploration tasks run: the engine's dispatch backend.

    A transport owns ``slots`` ordered worker slots.  The engine's
    sticky per-node routing guarantees every task for one node lands on
    one slot, which is what lets a slot hold that node's solver-cache
    replica across tasks (and, for long-lived remote workers, across
    cycles).  Implementations: inline and process-pool slots live here
    (:class:`InlineTransport`, :class:`LocalPoolTransport`); framed
    loopback and TCP-socket transports live in
    :mod:`repro.core.remote`.

    ``supports_push`` advertises the optional :class:`PushChannel`
    methods; the orchestrator attaches push-capable transports to the
    :class:`SolverCacheCoordinator` so merge events stream to workers
    at a finer-than-cycle cadence.

    Two further methods are optional (looked up with ``getattr``):
    ``discard_slot(slot)`` retires a slot the engine declared dead
    (failover never resubmits to it; broadcasts skip it), and
    ``slot_label(slot)`` names a slot for failure reports ("host:port"
    for sockets).  A transport signals a *slot* death — as opposed to
    a task failure — by resolving futures with an exception for which
    :func:`is_transport_fatal` is true.
    """

    slots: int
    supports_push: bool

    def submit(self, slot: int, task: "CampaignTask") -> "Future[CampaignOutcome]":
        """Schedule one task on ``slot``; the future yields its outcome."""
        ...

    def close(self) -> None:
        """Release worker resources; pending undelivered work is cancelled."""
        ...


def _dedup_events(events: list[CacheEvent]) -> tuple[CacheEvent, ...]:
    """Drop repeated entries, first occurrence wins.

    Several nodes solving the same system in one cycle each journal it;
    broadcasting one copy is enough because :meth:`SolverCache.
    merge_delta` is first-writer-wins anyway — dedup just moves that
    decision before the bytes ship.
    """
    seen: set = set()
    deduped: list[CacheEvent] = []
    for event in events:
        identity = (event[0], event[1])
        if identity in seen:
            continue
        seen.add(identity)
        deduped.append(event)
    return tuple(deduped)


class SolverCacheCoordinator:
    """Authoritative per-node solver caches plus the sync bookkeeping.

    One instance drives one campaign, on every transport: worker slots
    (the calling process itself, for :class:`InlineTransport`) mutate
    replicas; :meth:`sync_for` builds the outbound :class:`CacheSync`
    and :meth:`absorb` replays each outcome's
    :class:`~repro.concolic.solver.CacheDelta` into the
    orchestrator-side mirror, so mirror and replica step through
    identical states.

    :meth:`end_cycle` folds every node's new entries into every node's
    cache in fixed (task-order deltas, campaign node order) sequence —
    the cross-node sharing step.  Because both sides apply the same
    events in the same order, per-node cache state stays a pure
    function of (seed, cycle, node): independent of worker count,
    pipelining, and scheduling.

    Transport accounting (``syncs``, ``bytes_shipped_*`` vs
    ``bytes_full_*``) measures the delta protocol against what
    full-cache pickling would have shipped for the same dispatches —
    the numbers the cache-sharing benchmark gates on.  Every figure is
    the ``len()`` of a pickle taken only to be measured, so a campaign
    whose transport ships nothing (``metered=False``: the inline
    transport hands object references around) skips the pickling and
    reports zeros.
    """

    def __init__(self, nodes: Sequence[str], max_entries: int = 4096,
                 share: bool = True, metered: bool = True):
        # pid:counter alone could repeat after OS PID recycling, and a
        # long-lived remote worker daemon rescopes its warm replicas by
        # token inequality — so make tokens globally unique.
        # The token is an identity, never an input: it scopes warm
        # replicas and appears in no task outcome, and uniqueness
        # across PID recycling requires real entropy.
        self.token = (
            f"{os.getpid()}:{next(_SYNC_TOKENS)}:{uuid.uuid4().hex[:12]}"  # repro: allow[HRM002,DET003] identity only, see above
        )
        self._nodes = list(nodes)
        self._max_entries = max_entries
        self._share = share
        self._metered = metered
        self._caches = {
            node: SolverCache(max_entries=max_entries) for node in nodes
        }
        self._shipped_generation = {node: 0 for node in nodes}
        # Per-node ordered event history for failover: every absorbed
        # delta ("d", packed events) and every sealed merge epoch
        # ("g", packed events), in mirror application order.  Replaying
        # it onto a fresh cache reconstructs the node's replica on a
        # surviving slot after a worker death (see CacheSync.rebuild).
        # Entries hold the already-packed bytes the transport shipped,
        # so the log costs O(campaign events) compressed bytes, not
        # re-serialization work — and it is recorded only when a
        # failover-capable engine switches it on
        # (:meth:`enable_recovery_history`): a single-slot campaign has
        # no surviving slot to fail over to, so for it the log would
        # accumulate without a possible consumer.
        self._record_history = False
        self._history: dict[str, list[tuple[str, bytes]]] = {
            node: [] for node in nodes
        }
        # The current cross-node merge blob: its epoch id, the packed
        # form tasks ship, and the slots that already received it.
        self._merge_epoch = 0
        self._pending_blob: bytes | None = None
        self._blob_slots: set[int] = set()
        self._cycle_deltas: list[CacheDelta] = []
        # Push channel (remote transports): merge events stream to the
        # long-lived workers as outcomes merge, instead of riding the
        # next cycle's first sync per slot.
        self._push_channel: PushChannel | None = None
        self._push_seq = 0
        self._push_seen: set = set()
        self.bytes_shipped_out = 0
        self.bytes_shipped_in = 0
        self.bytes_pushed = 0
        self.bytes_full_out = 0
        self.bytes_full_in = 0
        self.entries_merged = 0
        self.syncs = 0
        self.rebuilds = 0

    @property
    def share(self) -> bool:
        """Whether cross-node merging is enabled."""
        return self._share

    def enable_recovery_history(self) -> None:
        """Start recording the per-node event history failover replays.

        Called by :meth:`ParallelCampaignEngine.attach_coordinator` —
        i.e. exactly when worker slots exist that could die.  Must be
        on from the campaign's first absorb: a history that misses
        early events would rebuild a wrong replica, so
        :meth:`recovery_sync_for` refuses to run without it.
        """
        self._record_history = True

    def attach_push_channel(self, channel: "PushChannel") -> None:
        """Stream merge events to long-lived workers as they appear.

        With a channel attached, each absorbed outcome's fresh model
        events are pushed immediately (finer-than-cycle cadence) and
        :meth:`end_cycle` seals the epoch with a commit instead of
        attaching the blob to the next cycle's first per-slot sync.
        Workers *apply* the events only when a task's sync references
        the committed epoch — the same deterministic point as every
        other mode — so the cadence moves bytes, never results.
        """
        self._push_channel = channel

    def _push_fresh(self, delta: CacheDelta) -> None:
        """Push one outcome's not-yet-seen model events down the channel.

        The incremental dedup (first occurrence in task order wins)
        makes the concatenation of all pushed chunks equal the blob
        :meth:`end_cycle` computes, so pushed replicas and the mirror
        fold identical event sequences.
        """
        fresh = tuple(
            event
            for event in model_events(delta.events)
            if (event[0], event[1]) not in self._push_seen
        )
        for event in fresh:
            self._push_seen.add((event[0], event[1]))
        if not fresh:
            return
        self.bytes_pushed += self._push_channel.push_chunk(
            self.token, self._merge_epoch + 1, self._push_seq,
            pack_events(fresh),
        )
        self._push_seq += 1

    def cache_for(self, node: str) -> SolverCache:
        """The authoritative mirror of one node's cache."""
        return self._caches[node]

    def sync_for(self, node: str, slot: int = 0) -> CacheSync:
        """Build one task's outbound sync; counts bytes shipped.

        ``slot`` is the engine's sticky worker slot for the node: the
        merge blob travels with the first sync each slot sees per
        epoch, and as a bare epoch reference afterwards.
        """
        blob = None
        if self._merge_epoch and slot not in self._blob_slots:
            blob = self._pending_blob
            self._blob_slots.add(slot)
        sync = CacheSync(
            node=node,
            token=self.token,
            max_entries=self._max_entries,
            base_generation=self._shipped_generation[node],
            merge_id=self._merge_epoch,
            merge_blob=blob,
        )
        return self._count_sync(node, sync)

    def recovery_sync_for(self, node: str, slot: int = 0) -> CacheSync:
        """A failover sync: rebuild the node's replica from scratch.

        Built when the slot holding the node's replica died and the
        node's next (or requeued) task runs on a surviving slot.  The
        sync carries the node's full event history; replaying it onto
        a fresh cache lands exactly on the mirror's current state, so
        ``base_generation`` is the mirror's generation (post any
        sealed merges, all of which the history already folds —
        ``merge_id`` marks them applied).  ``slot`` is only the
        routing destination; no blob-per-slot bookkeeping applies
        because the rebuild is self-contained.
        """
        if not self._record_history:
            raise RuntimeError(
                "recovery history was never enabled; a rebuild from a "
                "partial log would reproduce the wrong replica state"
            )
        self.rebuilds += 1
        sync = CacheSync(
            node=node,
            token=self.token,
            max_entries=self._max_entries,
            base_generation=self._caches[node].generation,
            merge_id=self._merge_epoch,
            rebuild=tuple(self._history[node]),
        )
        return self._count_sync(node, sync)

    def _count_sync(self, node: str, sync: CacheSync) -> CacheSync:
        if self._metered:
            self.syncs += 1
            self.bytes_shipped_out += len(pickle.dumps(sync))
            self.bytes_full_out += self._caches[node].full_pickle_size()
        return sync

    def absorb(self, delta: CacheDelta | None) -> None:
        """Fold one whole-session outcome's delta into the node's mirror.

        The session ran on the node's warm replica, so the delta is
        **replayed** (a ``"d"`` history record): mirror and replica
        step through identical states, evictions included.
        """
        if delta is not None:
            self._absorb(delta, "d")

    def absorb_shard(self, delta: CacheDelta | None) -> None:
        """Fold one frontier shard's delta into the node's mirror.

        Shards run hermetic *fresh* solver caches (their placement must
        not matter), so their deltas all start from generation 0 and
        cannot be replayed onto the warm mirror like whole-session
        deltas; they are **merged** first-writer-wins in shard order
        instead — the same discipline as the cross-node merge, applied
        intra-session.  The history entry is a ``"g"`` record for the
        same reason: a failover rebuild folds it with
        :meth:`~repro.concolic.solver.SolverCache.merge_delta`, exactly
        as the mirror did.
        """
        if delta is not None and delta.count:
            self._absorb(delta, "g")

    def _absorb(self, delta: CacheDelta, kind: str) -> None:
        cache = self._caches[delta.node]
        if kind == "d":
            cache.replay_delta(delta)
        else:
            cache.merge_delta(delta.events)
        if delta.count and self._record_history:
            self._history[delta.node].append((kind, delta.packed_events))
        if self._metered:
            self.bytes_shipped_in += len(pickle.dumps(delta))
            self.bytes_full_in += cache.full_pickle_size()
        self._shipped_generation[delta.node] = cache.generation
        if self._share:
            self._cycle_deltas.append(delta)
            if self._push_channel is not None:
                self._push_fresh(delta)

    def end_cycle(self) -> None:
        """Cross-node merge: broadcast the cycle's new entries.

        Applies the deduped event blob to every node's authoritative
        cache in campaign node order; the same blob ships inside the
        next cycle's :class:`CacheSync` so worker replicas perform the
        identical fold before exploring.

        Only model events are broadcast: failure entries are keyed by
        the originating node's concrete hint, which other nodes will
        essentially never query, so shipping them would double the
        blob for no hits.  (Inbound deltas still carry failures — each
        node's own mirror needs full fidelity.)
        """
        deltas = self._cycle_deltas
        self._cycle_deltas = []
        pushed_chunks = self._push_seq
        self._push_seq = 0
        self._push_seen = set()
        if not self._share:
            return
        events = _dedup_events(
            [
                event
                for delta in deltas
                for event in model_events(delta.events)
            ]
        )
        if not events:
            return
        packed = pack_events(events)
        for node in self._nodes:
            self.entries_merged += self._caches[node].merge_delta(events)
            if self._record_history:
                self._history[node].append(("g", packed))
        self._merge_epoch += 1
        if self._push_channel is not None:
            # The chunks already pushed are exactly these events; the
            # commit seals them worker-side, so no blob rides the syncs.
            self.bytes_pushed += self._push_channel.push_commit(
                self.token, self._merge_epoch, pushed_chunks
            )
            self._pending_blob = None
        else:
            self._pending_blob = packed
        self._blob_slots.clear()

    def state_fingerprints(self) -> dict[str, int]:
        """Per-node process-stable digests of final cache state."""
        return {
            node: cache.state_fingerprint()
            for node, cache in self._caches.items()
        }


# -- tasks and outcomes ------------------------------------------------------


class _SnapshotPayload:
    """What both task kinds share: a snapshot, live or pre-pickled."""

    snapshot: Snapshot | None
    snapshot_blob: bytes | None

    def resolve_snapshot(self) -> Snapshot:
        """The snapshot to explore, unpickling the payload if needed."""
        if self.snapshot is not None:
            return self.snapshot
        if self.snapshot_blob is None:
            raise ValueError(
                "task carries neither a snapshot nor a snapshot_blob"
            )
        return pickle.loads(self.snapshot_blob)


@dataclass(frozen=True)
class ExplorationTask(_SnapshotPayload):
    """One node-exploration session, ready to ship to a worker.

    Everything here must pickle: the snapshot (checkpoints + channel
    state) or its pre-pickled payload, the property suite (stateless
    check objects), the flattened claims, a module-level process
    factory, and the solver-cache sync.
    """

    # Sticky tasks route to their node's pinned worker slot (that slot
    # holds the node's warm solver-cache replica); non-sticky tasks are
    # free to run anywhere.  Class attribute, not a field.
    sticky = True

    index: int  # position in the campaign's deterministic task order
    cycle: int
    node: str
    snapshot: Snapshot | None
    suite: PropertySuite
    claims: ClaimSpec
    seed: int  # already derived per (cycle, node)
    inputs: int = 30
    strategy: str = STRATEGY_CONCOLIC
    horizon: float = 5.0
    grammar_seeds: int = 3
    max_branches_per_run: int = 20_000
    # Branch-frontier discipline the session's concolic engine uses
    # (enum member or legacy string; resolved by ExplorationConfig).
    frontier: FrontierDiscipline | str = FrontierDiscipline.BFS
    detected_at: float = 0.0  # live simulated time at capture
    process_factory: ProcessFactory = bgp_process_factory
    # Solver-cache sync for the worker-slot replica (see CacheSync).
    # None means the session runs with a private fresh cache.
    cache_sync: CacheSync | None = None
    # Pre-pickled snapshot payload, produced on the capture thread so
    # executor-side task pickling is a near-memcpy (bytes re-pickle
    # cheaply); used when ``snapshot`` is None.
    snapshot_blob: bytes | None = field(default=None, repr=False)

    def exploration_config(self) -> ExplorationConfig:
        """The per-session config the explorer consumes."""
        return ExplorationConfig(
            node=self.node,
            inputs=self.inputs,
            strategy=self.strategy,
            horizon=self.horizon,
            grammar_seeds=self.grammar_seeds,
            seed=self.seed,
            max_branches_per_run=self.max_branches_per_run,
            frontier=self.frontier,
        )


@dataclass
class TaskOutcome:
    """What one task produced, tagged for deterministic merging."""

    index: int
    cycle: int
    node: str
    snapshot_id: str
    detected_at: float
    report: NodeExplorationReport = field(repr=False)
    # Only the entries this session added — O(KB) — instead of the
    # whole updated cache; None when the task ran without a sync.
    cache_delta: CacheDelta | None = field(default=None, repr=False)


def run_exploration_task(
    task: ExplorationTask, replicas: ReplicaStore | None = None
) -> TaskOutcome:
    """Worker entry point: run one exploration session start to finish.

    ``replicas`` selects the solver-cache replica store — remote worker
    daemons pass their own long-lived store; pool workers and the
    inline path default to the process-global one.
    """
    snapshot = task.resolve_snapshot()
    store = _WORKER_REPLICAS if replicas is None else replicas
    cache = (
        store.replica_for(task.cache_sync)
        if task.cache_sync is not None
        else None
    )
    explorer = Explorer(
        snapshot,
        task.suite,
        claims_from_spec(task.claims),
        process_factory=task.process_factory,
        solver_cache=cache,
    )
    report = explorer.explore(task.exploration_config())
    delta = (
        explorer.solver_cache.take_delta(task.node)
        if task.cache_sync is not None
        else None
    )
    return TaskOutcome(
        index=task.index,
        cycle=task.cycle,
        node=task.node,
        snapshot_id=snapshot.snapshot_id,
        detected_at=task.detected_at,
        report=report,
        cache_delta=delta,
    )


@dataclass(frozen=True)
class FrontierShardTask(_SnapshotPayload):
    """One shard of one session's concolic frontier, ready to ship.

    The intra-session unit of work: where :class:`ExplorationTask`
    ships a *whole* node-exploration session, a shard task ships one
    partition of that session's unexplored-branch frontier plus an
    execution budget.  Shards are **hermetic**: the worker builds a
    fresh explorer and a fresh private solver cache, so the outcome is
    a pure function of the task's content — placement cannot affect
    it, and a shard killed mid-flight reruns bit-identically on any
    surviving slot.  That is why ``sticky = False``: shard tasks have
    no per-slot replica to stay close to and route to whichever live
    slot has the least outstanding work.

    ``frontier is None`` marks a round-0 task: the worker regenerates
    the session's grammar seeds deterministically from ``seed`` and
    takes partition ``shard`` of ``shard_count`` by seed lineage.
    Later rounds carry their (picklable) :class:`Frontier` shard
    explicitly — produced by the orchestrator's deterministic merge
    and re-split at the previous round boundary.
    """

    sticky = False

    index: int  # position in the campaign's deterministic task order
    cycle: int
    node: str
    round: int  # epoch within the session (0 = from grammar seeds)
    shard: int
    shard_count: int
    budget: int  # executions this shard may spend
    snapshot: Snapshot | None
    suite: PropertySuite
    claims: ClaimSpec
    seed: int  # already derived per (cycle, node) — shared by all shards
    inputs: int = 30  # the whole session's budget (for config echo)
    horizon: float = 5.0
    grammar_seeds: int = 3
    max_branches_per_run: int = 20_000
    detected_at: float = 0.0
    process_factory: ProcessFactory = bgp_process_factory
    frontier: Frontier | None = field(default=None, repr=False)
    include_null_probe: bool = False
    cache_max_entries: int = 4096
    # Coordinator token, echoed so transports that authenticate frames
    # (remote daemons) accept shard tasks exactly like synced tasks.
    token: str | None = None
    snapshot_blob: bytes | None = field(default=None, repr=False)

    def exploration_config(self) -> ExplorationConfig:
        """The per-session config the explorer consumes."""
        return ExplorationConfig(
            node=self.node,
            inputs=self.inputs,
            strategy=STRATEGY_CONCOLIC,
            horizon=self.horizon,
            grammar_seeds=self.grammar_seeds,
            seed=self.seed,
            max_branches_per_run=self.max_branches_per_run,
            frontier=FrontierDiscipline.SHARDED,
        )


@dataclass
class ShardOutcome:
    """What one frontier shard produced, tagged for ordered absorption.

    The orchestrator absorbs shard outcomes in (round, shard) order —
    never completion order — so the merged session report, the merged
    frontier handed to the next round, and the solver-cache state are
    identical at any worker count.
    """

    index: int
    cycle: int
    node: str
    round: int
    shard: int
    snapshot_id: str
    detected_at: float
    report: NodeExplorationReport = field(repr=False)
    # The shard's leftover frontier (un-popped entries + everything it
    # learned), merged by the orchestrator at the round boundary.
    frontier: Frontier = field(repr=False)
    # The shard's private fresh-cache delta (base generation 0); folded
    # into the node's mirror with merge_delta, never replayed.
    cache_delta: CacheDelta | None = field(default=None, repr=False)


def run_frontier_shard(task: FrontierShardTask) -> ShardOutcome:
    """Worker entry point: run one frontier shard start to finish.

    No replica store is consulted: the shard runs against a fresh
    private :class:`SolverCache` whose delta ships back whole (its
    base generation is 0 by construction).  Cold caches are the price
    of hermeticity — the shard's speedup comes from parallelising the
    *executions*, which dominate solver time on hot sessions.
    """
    snapshot = task.resolve_snapshot()
    cache = SolverCache(max_entries=task.cache_max_entries)
    explorer = Explorer(
        snapshot,
        task.suite,
        claims_from_spec(task.claims),
        process_factory=task.process_factory,
        solver_cache=cache,
    )
    report, frontier = explorer.explore_shard(
        task.exploration_config(),
        shard=task.shard,
        shard_count=task.shard_count,
        budget=task.budget,
        round_index=task.round,
        frontier=task.frontier,
        include_null_probe=task.include_null_probe,
    )
    return ShardOutcome(
        index=task.index,
        cycle=task.cycle,
        node=task.node,
        round=task.round,
        shard=task.shard,
        snapshot_id=snapshot.snapshot_id,
        detected_at=task.detected_at,
        report=report,
        frontier=frontier,
        cache_delta=cache.take_delta(task.node),
    )


CampaignTask = ExplorationTask | FrontierShardTask
CampaignOutcome = TaskOutcome | ShardOutcome


def run_task(
    task: CampaignTask, replicas: ReplicaStore | None = None
) -> CampaignOutcome:
    """Worker entry point dispatching on task kind.

    The single function every transport submits (module-level, so it
    survives fork and spawn): whole-session tasks go through the
    replica-store path, frontier shards run hermetically.
    """
    if isinstance(task, FrontierShardTask):
        return run_frontier_shard(task)
    return run_exploration_task(task, replicas=replicas)


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
    daemon: the slot's single pool process died, taking its replica
    store with it.
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

    The ``workers <= 1`` backend: no fork, no pickling, and the
    process-global replica store — the serial reference every other
    transport must equal.  ``inline`` is the one fact campaigns read
    off a transport (with ``getattr``; absent means "ships bytes"):
    :meth:`submit` resolves before returning and nothing leaves the
    process, so there is nothing to pre-pickle, nothing to meter, and
    every outcome can merge the moment its task was submitted.
    Control-flow exceptions (``KeyboardInterrupt``, ``SystemExit``)
    propagate to the caller instead of being stuffed into the future:
    an operator's Ctrl-C must abort the campaign, not masquerade as one
    failed task.
    """

    slots = 1
    supports_push = False
    inline = True

    def submit(self, slot: int, task: CampaignTask) -> "Future[CampaignOutcome]":
        future: Future[CampaignOutcome] = Future()
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
    results untouched.  A slot whose pool process died
    (``BrokenProcessPool``) can be retired with :meth:`discard_slot`;
    its replica store died with the process, so the engine requeues
    its nodes elsewhere rather than respawning the pool.
    """

    supports_push = False

    def __init__(self, slots: int):
        self.slots = max(1, slots)
        self._pools: list[ProcessPoolExecutor | None] = [None] * self.slots
        self._dead: set[int] = set()

    def submit(self, slot: int, task: CampaignTask) -> "Future[CampaignOutcome]":
        if slot in self._dead:
            future: Future[CampaignOutcome] = Future()
            future.set_exception(
                WorkerLostError(f"local pool slot {slot} is dead")
            )
            return future
        pool = self._pools[slot]
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=1)
            self._pools[slot] = pool
        return pool.submit(run_task, task)

    def slot_label(self, slot: int) -> str:
        return f"local pool slot {slot}"

    def discard_slot(self, slot: int) -> None:
        """Retire a slot whose pool process died; never respawned."""
        self._dead.add(slot)
        pool = self._pools[slot]
        if pool is not None:
            pool.shutdown(cancel_futures=True)
            self._pools[slot] = None

    def close(self) -> None:
        for index, pool in enumerate(self._pools):
            if pool is not None:
                pool.shutdown(cancel_futures=True)
                self._pools[index] = None


class TaskHandle:
    """A requeue-aware future for one submitted task.

    Wraps the transport future together with the task and its slot, so
    :meth:`result` can fail over: when the slot died, the engine
    re-routes the task to a surviving slot (rebuilding the node's
    solver-cache replica from the coordinator's event history) and the
    handle transparently tracks the retry.  Resolve handles strictly
    in submission order — the merge-order contract is the handle
    caller's job, exactly as it was with bare futures.
    """

    def __init__(self, engine: "ParallelCampaignEngine",
                 task: CampaignTask, slot: int,
                 future: "Future[CampaignOutcome]"):
        self._engine = engine
        self.task = task
        self.slot = slot
        self.future = future

    def done(self) -> bool:
        return self.future.done()

    def result(self) -> CampaignOutcome:
        """The task's outcome, retrying across worker deaths."""
        return self._engine._resolve(self)


class ParallelCampaignEngine:
    """Shards exploration tasks across one transport's worker slots.

    The engine owns *routing, ordering and failover*; where tasks
    actually run is the :class:`WorkerTransport`'s business.  By
    default the transport is picked from ``workers``: inline
    in-process for ``workers <= 1`` (no fork, no pickling — the serial
    baseline), per-slot local process pools otherwise.  Remote
    transports (:mod:`repro.core.remote`) plug into the same
    interface, so the orchestrator is transport-agnostic.

    Use as a context manager (or call :meth:`close`) so worker
    resources are released.

    Determinism contract: the engine never reorders results — batch
    :meth:`run` returns outcomes sorted by task index, and callers of
    :meth:`submit` resolve handles in submission order — so the
    orchestrator's merge sees one fixed outcome order at any worker
    count.  Routing is **sticky per node** (first-seen round-robin over
    slots, which is deterministic because submission order is): the
    slot that explored a node holds that node's solver-cache replica,
    so the next cycle's task needs only a delta, not the warm cache.
    Frontier shard tasks opt out (``sticky = False``) and route to the
    least-loaded surviving slot instead — hermetic work has no replica
    to stay close to, and idle slots should soak it up.

    Failover preserves that contract: when a slot dies (transport-fatal
    error, see :func:`is_transport_fatal`), the engine marks it dead,
    re-routes its nodes over the surviving slots, rebuilds each
    displaced node's replica from the attached coordinator's event
    history (:meth:`SolverCacheCoordinator.recovery_sync_for`), and
    requeues the failed task — all inside :meth:`TaskHandle.result`,
    on the resolving thread, so merge order never changes and results
    stay bit-identical to a failure-free run.  More than
    ``max_worker_failures`` dead slots (default: all but one) raises
    :class:`WorkerFailoverError` naming every dead worker.
    """

    def __init__(self, workers: int | None = None,
                 transport: WorkerTransport | None = None,
                 max_worker_failures: int | None = None):
        if transport is None:
            count = resolve_workers(workers)
            transport = (
                InlineTransport() if count <= 1
                else LocalPoolTransport(count)
            )
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
        self._slot_of: dict[str, int] = {}
        self._assigned = 0  # nodes routed so far (round-robin cursor)
        # Tasks in flight per slot; feeds the least-loaded routing of
        # non-sticky (frontier shard) tasks.  Updated only on the
        # single submitting/resolving thread, so it is deterministic.
        self._outstanding: dict[int, int] = {}
        self._dead_slots: set[int] = set()
        # Nodes whose replica died with a slot and whose *next* task
        # must carry a recovery sync (requeued tasks rebuild directly).
        self._needs_rebuild: set[str] = set()
        self._coordinator: SolverCacheCoordinator | None = None
        self.failures: list[WorkerFailure] = []
        self.tasks_requeued = 0

    @property
    def transport(self) -> WorkerTransport:
        """The dispatch backend tasks run on."""
        return self._transport

    @property
    def inline(self) -> bool:
        """Whether tasks run synchronously in this process (see
        :class:`InlineTransport`)."""
        return getattr(self._transport, "inline", False)

    @property
    def push_channel(self) -> PushChannel | None:
        """The transport's push channel, when it has one."""
        if getattr(self._transport, "supports_push", False):
            return self._transport  # type: ignore[return-value]
        return None

    def __enter__(self) -> "ParallelCampaignEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the transport's workers.

        Tasks already submitted but not yet started are cancelled —
        relevant when a pipelined campaign aborts on
        ``stop_after_first_fault``; results merged before the abort are
        unaffected.
        """
        self._transport.close()

    def attach_coordinator(self, coordinator: SolverCacheCoordinator) -> None:
        """Give failover access to the authoritative cache history.

        Without a coordinator, tasks carrying a ``cache_sync`` cannot
        be requeued (their replica state cannot be reconstructed), so
        a slot death fails the campaign as it did pre-failover.

        History recording only starts when failover could actually
        consume it — more than one slot and a non-zero failure budget;
        otherwise the first death fails the campaign before any
        rebuild, and the log would only accumulate memory.
        """
        self._coordinator = coordinator
        if self.workers > 1 and self.max_worker_failures > 0:
            coordinator.enable_recovery_history()

    def sync_for(self, node: str) -> CacheSync:
        """Build the node's outbound cache sync, failover-aware.

        The normal path delegates to the attached coordinator with the
        node's sticky slot; a node displaced by a slot death gets a
        recovery sync that rebuilds its replica on the new slot.
        """
        if self._coordinator is None:
            raise RuntimeError("no cache coordinator attached")
        slot = self.slot_for(node)
        if node in self._needs_rebuild:
            self._needs_rebuild.discard(node)
            return self._coordinator.recovery_sync_for(node, slot=slot)
        return self._coordinator.sync_for(node, slot=slot)

    def slot_for(self, node: str) -> int:
        """The (sticky, deterministic) worker slot for one node.

        Dead slots are skipped: a node first seen (or displaced) after
        a failure round-robins over the surviving slots only.
        """
        slot = self._slot_of.get(node)
        if slot is None:
            live = [
                candidate for candidate in range(self.workers)
                if candidate not in self._dead_slots
            ]
            if not live:
                raise self._no_survivors_error()
            slot = live[self._assigned % len(live)]
            self._assigned += 1
            self._slot_of[node] = slot
        return slot

    def _no_survivors_error(self) -> WorkerFailoverError:
        return WorkerFailoverError(
            self.failures, self.max_worker_failures,
            reason="no surviving worker slots: "
                   + "; ".join(str(f) for f in self.failures),
        )

    def shard_slot(self) -> int:
        """The worker slot for one non-sticky (frontier shard) task.

        Least outstanding work wins, lowest slot index breaks ties.
        Deterministic because the in-flight counters are maintained
        solely by the single submitting/resolving thread — routing is a
        pure function of the submit/resolve sequence, never of worker
        completion times.  Idle sticky slots naturally soak up shards,
        which is exactly the skew case sharding exists for.
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

    def submit(self, task: CampaignTask) -> TaskHandle:
        """Schedule one task; returns a handle resolving to its outcome.

        The incremental interface the campaign loop uses: it submits
        each task as soon as its snapshot arrives from the capture
        source and resolves the handles strictly in task order, so the
        merge is identical to :meth:`run`'s sorted batch.  On the
        inline transport the task runs before this returns.

        Sticky tasks (whole sessions) go to their node's pinned slot;
        non-sticky frontier shards go wherever :meth:`shard_slot`
        points.
        """
        if getattr(task, "sticky", True):
            slot = self.slot_for(task.node)
        else:
            slot = self.shard_slot()
        self._outstanding[slot] = self._outstanding.get(slot, 0) + 1
        return TaskHandle(self, task, slot, self._dispatch(slot, task))

    def _dispatch(self, slot: int, task: CampaignTask) -> "Future[CampaignOutcome]":
        """Submit to the transport; dispatch-time errors become the
        future's exception so failover handles them at resolve time.
        Control-flow exceptions (Ctrl-C on the inline path) propagate.
        """
        try:
            return self._transport.submit(slot, task)
        except Exception as error:
            future: Future[CampaignOutcome] = Future()
            future.set_exception(error)
            return future

    def _slot_label(self, slot: int) -> str:
        label = getattr(self._transport, "slot_label", None)
        return label(slot) if label is not None else f"worker slot {slot}"

    def _fail_slot(self, slot: int, error: BaseException) -> None:
        """Mark a slot dead, displace its nodes, enforce the budget."""
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
            for node, owner in list(self._slot_of.items()):
                if owner == slot:
                    del self._slot_of[node]
                    self._needs_rebuild.add(node)
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

    def _resolve(self, handle: TaskHandle) -> CampaignOutcome:
        """Resolve one handle, failing over across worker deaths.

        Runs on the caller's (merge) thread: recovery syncs are built
        from the coordinator at requeue time, when every earlier task's
        outcome has already been absorbed — so the rebuilt replica is
        exactly the state the dead slot would have held.  Frontier
        shards need none of that: hermetic by construction, they simply
        re-dispatch to the least-loaded surviving slot.  Each loop
        iteration either returns, retires a previously-live slot, or
        raises; slots are finite, so resolution terminates.
        """
        while True:
            try:
                outcome = handle.future.result()
            except Exception as error:
                self._release_slot(handle.slot)
                if not is_transport_fatal(error):
                    raise
                self._fail_slot(handle.slot, error)
                task = handle.task
                if getattr(task, "sticky", True):
                    slot = self.slot_for(task.node)
                    if task.cache_sync is not None:
                        if self._coordinator is None:
                            raise WorkerFailoverError(
                                self.failures, self.max_worker_failures,
                                reason=f"cannot requeue {task.node!r}: no "
                                       "cache coordinator attached for "
                                       "replica recovery",
                            ) from error
                        self._needs_rebuild.discard(task.node)
                        task = replace(
                            task,
                            cache_sync=self._coordinator.recovery_sync_for(
                                task.node, slot=slot
                            ),
                        )
                else:
                    slot = self.shard_slot()
                self.tasks_requeued += 1
                self._outstanding[slot] = self._outstanding.get(slot, 0) + 1
                handle.task = task
                handle.slot = slot
                handle.future = self._dispatch(slot, task)
            else:
                self._release_slot(handle.slot)
                return outcome

    def run(self, tasks: Sequence[CampaignTask]) -> list[CampaignOutcome]:
        """Execute a batch; outcomes come back sorted by task index."""
        ordered = sorted(tasks, key=lambda task: task.index)
        handles = [self.submit(task) for task in ordered]
        return [handle.result() for handle in handles]
