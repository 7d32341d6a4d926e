"""The explicit, picklable exploration frontier.

Historically the generational-search state lived as five local
variables inside ``ConcolicEngine.explore`` (``queue``, ``seen_paths``,
``seen_flips``, ``seen_constraints``, ``seen_shapes``).  That shape
made one session's unexplored branches invisible to the campaign
layer: the whole node session was the unit of parallelism, and one hot
node bounded every cycle.

:class:`Frontier` extracts that state into a value the campaign layer
can ship, split and merge:

* every identity it stores (path signatures, flip digests, constraint
  fingerprints, shapes) is a process-stable 64-bit integer, never a
  salted ``hash()`` — shards run in other processes;
* :meth:`partition` splits a root frontier by *seed lineage* (which
  grammar seed an entry descends from), the initial shard assignment;
* :meth:`split` deals leftover entries round-robin — the work-stealing
  repartition at a round barrier;
* :meth:`merge` is the deterministic intra-session merge: shards are
  absorbed in shard order, and an entry is dropped when any
  earlier-absorbed shard already saw its flip digest
  (first-writer-wins).

All of it is pure data manipulation — no wall-clock, no RNG — so the
merged frontier is a function of the shard outcomes alone, independent
of worker count, placement or transport.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.concolic.expr import _fp_mix, _fp_name
from repro.concolic.symbolic import SymBytes

_ROOT_TAG = _fp_name("frontier:root")


class FrontierDiscipline(enum.Enum):
    """How the engine orders unexplored branches.

    ``BFS`` is the SAGE-style generational default, ``DFS`` rewards
    depth, and ``COVERAGE`` serves novel flips first (with an explicit
    FIFO fallback once novelty is exhausted).  The pop order of a whole
    session's frontier and of every shard of a sharded one alike: how
    many shards a session fans out into is a count the campaign
    configures, not a discipline.
    """

    BFS = "bfs"
    DFS = "dfs"
    COVERAGE = "coverage"

    def __str__(self) -> str:  # argparse/report friendliness
        return self.value


def resolve_discipline(value: "FrontierDiscipline | str") -> FrontierDiscipline:
    """Accept enum members or the legacy strings; reject anything else."""
    if isinstance(value, FrontierDiscipline):
        return value
    try:
        return FrontierDiscipline(value)
    except ValueError:
        raise ValueError(f"unknown frontier discipline {value!r}") from None


def seed_key(lineage: int) -> int:
    """The flip-digest stand-in for a root seed (it was never flipped)."""
    return _fp_mix(_ROOT_TAG, lineage)


@dataclass(frozen=True)
class FrontierEntry:
    """One unexplored input: run it, then negate branches past ``bound``.

    ``key`` is the entry's flip digest (the identity of the solve that
    produced it; a :func:`seed_key` for root seeds) and ``novelty_key``
    the fingerprint of the negated constraint, so ``novel`` can be
    refreshed against a merged ``seen_constraints`` set.
    """

    input: SymBytes
    bound: int
    novel: bool
    lineage: int
    key: int
    novelty_key: int | None = None


@dataclass
class Frontier:
    """Queue + dedup state of one generational search, as plain data."""

    discipline: FrontierDiscipline = FrontierDiscipline.BFS
    entries: list[FrontierEntry] = field(default_factory=list)
    seen_paths: set[int] = field(default_factory=set)
    seen_flips: set[int] = field(default_factory=set)
    seen_constraints: set[int] = field(default_factory=set)
    seen_shapes: set[int] = field(default_factory=set)

    @classmethod
    def from_seeds(
        cls,
        seeds: list[SymBytes],
        discipline: "FrontierDiscipline | str" = FrontierDiscipline.BFS,
    ) -> "Frontier":
        """Seed a fresh frontier; lineage ``i`` = the ``i``-th seed."""
        frontier = cls(discipline=resolve_discipline(discipline))
        for lineage, seed in enumerate(seeds):
            entry = FrontierEntry(
                input=seed, bound=0, novel=True, lineage=lineage,
                key=seed_key(lineage),
            )
            frontier.entries.append(entry)
            frontier.seen_flips.add(entry.key)
        return frontier

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def push(self, entry: FrontierEntry) -> None:
        """Queue a solved child (its key must already be in seen_flips)."""
        self.entries.append(entry)

    def pop(self) -> FrontierEntry:
        """Remove and return the next entry per the discipline.

        A well-defined pop order at every state is part of the sharding
        contract (steal points cut the queue at exact positions), so
        the coverage discipline's degradation is explicit here rather
        than an accident of a ``next(..., 0)`` default.
        """
        entries = self.entries
        if self.discipline is FrontierDiscipline.DFS:
            return entries.pop()
        if self.discipline is FrontierDiscipline.COVERAGE:
            for index, entry in enumerate(entries):
                if entry.novel:
                    return entries.pop(index)
            # Dead novelty: no queued flip promises an unseen
            # constraint.  Degrade to FIFO *explicitly* — oldest entry
            # first — so the order stays deterministic and documented.
            return entries.pop(0)
        return entries.pop(0)  # BFS

    # -- sharding ----------------------------------------------------------

    def partition(self, count: int) -> list["Frontier"]:
        """Split by seed lineage into ``count`` shards (round 0).

        Entry with lineage ``l`` goes to shard ``l % count``; every
        shard receives a private copy of the dedup sets.
        """
        shards = [self._empty_clone() for _ in range(count)]
        for entry in self.entries:
            shards[entry.lineage % count].entries.append(entry)
        return shards

    def split(self, count: int) -> list["Frontier"]:
        """Deal entries round-robin into ``count`` shards (stealing).

        Positional, not lineage-based: after round 0 the leftovers may
        all descend from one hot lineage, and the whole point of the
        round barrier is to spread exactly that work.
        """
        shards = [self._empty_clone() for _ in range(count)]
        for position, entry in enumerate(self.entries):
            shards[position % count].entries.append(entry)
        return shards

    def copy(self) -> "Frontier":
        """An independent frontier with the same queue and dedup state."""
        clone = self._empty_clone()
        clone.entries = list(self.entries)
        return clone

    def _empty_clone(self) -> "Frontier":
        return Frontier(
            discipline=self.discipline,
            seen_paths=set(self.seen_paths),
            seen_flips=set(self.seen_flips),
            seen_constraints=set(self.seen_constraints),
            seen_shapes=set(self.seen_shapes),
        )

    @classmethod
    def merge(cls, shards: list["Frontier"]) -> "Frontier":
        """Absorb one round's shards (at least one) in order with
        first-writer-wins dedup; the merged frontier keeps their
        discipline.

        Dedup is against the keys *accepted by this merge*, not against
        the shards' ``seen_flips``: every shard inherits the parent's
        full flip set at split time (their own queued entries' keys
        included), so the flip sets cannot distinguish "an earlier
        shard executed this" from "this shard inherited it un-run".
        Inherited leftovers are disjoint across shards (splits deal
        each entry to exactly one shard) and therefore all survive;
        only same-round duplicate *pushes* — two shards independently
        solving the same flip — collapse, keeping the earlier shard's
        copy.  ``novel`` flags are refreshed against the merged
        constraint set so the coverage discipline never chases stale
        novelty.
        """
        merged = cls(discipline=shards[0].discipline)
        accepted: set[int] = set()
        for shard in shards:
            for entry in shard.entries:
                if entry.key in accepted:
                    continue
                accepted.add(entry.key)
                merged.entries.append(entry)
            merged.seen_paths |= shard.seen_paths
            merged.seen_flips |= shard.seen_flips
            merged.seen_constraints |= shard.seen_constraints
            merged.seen_shapes |= shard.seen_shapes
        merged.entries = [
            replace(
                entry,
                novel=(entry.novelty_key is None
                       or entry.novelty_key not in merged.seen_constraints),
            )
            for entry in merged.entries
        ]
        return merged


@dataclass(frozen=True)
class FrontierShard:
    """One slice of a sharded session: which, how much, over what.

    ``frontier is None`` marks a round-0 shard: the worker regenerates
    the session's grammar seeds deterministically from the config's
    seed and takes partition ``index`` of ``count`` by seed lineage.
    Later rounds carry their (picklable) :class:`Frontier` slice
    explicitly — produced by the orchestrator's deterministic merge
    and re-split at the previous round boundary.
    """

    round: int  # epoch within the session (0 = from grammar seeds)
    index: int
    count: int
    budget: int  # executions this shard may spend
    frontier: Frontier | None = field(default=None, repr=False)


@dataclass(frozen=True)
class ShardPlan:
    """How one round fans out: ``count`` shards with per-shard budgets."""

    count: int
    budgets: tuple[int, ...]


def plan_round(entry_count: int, budget: int, max_shards: int) -> ShardPlan | None:
    """Plan one exploration round, or ``None`` when the session is done.

    Never plans more shards than entries or budget units, so every
    planned shard starts with at least one entry and one execution —
    each round makes progress and the budget strictly decreases, which
    is the termination argument for the steal loop.
    """
    if entry_count <= 0 or budget <= 0:
        return None
    count = max(1, min(max_shards, entry_count, budget))
    base, extra = divmod(budget, count)
    budgets = tuple(
        base + (1 if shard < extra else 0) for shard in range(count)
    )
    return ShardPlan(count=count, budgets=budgets)
