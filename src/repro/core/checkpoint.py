"""Lightweight node checkpoints.

A :class:`NodeCheckpoint` holds what one node's ``export_state``
returned; nothing copies it again.  "Lightweight" is made concrete three
ways:

* **structural sharing** — ``export_state`` builds fresh containers
  around immutable leaves (routes, attributes, AS paths, prefixes,
  configs, filters) and ``import_state`` builds the clone's own, so the
  live router, the checkpoint and every clone share the leaves and no
  container.  Checkpointing a RIB of 10k routes builds dict/list
  spines, not 10k route objects.  The leaves are shared *across* the
  routers of a network too — one attribute set, AS path, prefix and
  address object per distinct value (``Network.interned``) — so a
  pickled snapshot writes each once;
* **restore is a bulk build, not a replay** — a checkpoint holds each
  RIB as a list of routes and ``import_state`` turns each list into the
  RIB's dict in one pass: no mutator is called, nothing is journalled
  (a restored Loc-RIB has ``changes_total == 0``), and the Loc-RIB's
  prefix order is sorted the first time something iterates it;
* **measurability** — :func:`checkpoint_size` estimates the checkpoint's
  retained size so EXP-OVERHEAD can chart cost against RIB size.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any

from repro.net.node import Process
from repro.net.sim import Event


@dataclass(frozen=True)
class NodeCheckpoint:
    """An immutable snapshot of one node's state."""

    node: str
    taken_at: float  # simulated time
    state: dict[str, Any] = field(repr=False)
    wall_time_s: float = 0.0

    @property
    def timers(self) -> dict[str, float]:
        """The node's armed timers: name -> remaining delay, in the
        order they were armed."""
        return self.state.get("timers", {})

    def restore_into(self, process: Process,
                     timers: dict[str, Event] | None = None) -> None:
        """Load this checkpoint into a (cloned) process.

        ``import_state`` keeps no container it is handed, so clones
        restored from one checkpoint share only immutable leaves with it
        and each other — the isolation the exploration layer depends on.
        ``timers`` are the process's timer events, already scheduled at
        :attr:`timers`' deadlines (a clone schedules them before it
        builds the process); the process adopts them instead of arming
        its own.
        """
        if timers is None:
            process.import_state(self.state)
            return
        process.import_state({**self.state, "timers": {}})
        process.adopt_timers(timers)


def capture(process: Process, now: float) -> NodeCheckpoint:
    """Checkpoint one process."""
    started = time.perf_counter()
    state = process.export_state()
    wall = time.perf_counter() - started
    return NodeCheckpoint(
        node=process.name, taken_at=now, state=state, wall_time_s=wall
    )


def checkpoint_size(checkpoint: NodeCheckpoint) -> int:
    """Approximate retained bytes of a checkpoint (shared objects counted
    once, as the runtime actually retains them)."""
    seen: set[int] = set()

    def sizeof(obj: Any) -> int:
        # repro: allow[DET004] intra-process cycle detection for a size
        # estimate; the ids are never serialized or compared cross-run
        if id(obj) in seen:
            return 0
        seen.add(id(obj))  # repro: allow[DET004] same cycle-detection set
        total = sys.getsizeof(obj)
        if isinstance(obj, dict):
            for key, value in obj.items():
                total += sizeof(key) + sizeof(value)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for item in obj:
                total += sizeof(item)
        elif hasattr(obj, "__dict__"):
            total += sizeof(vars(obj))
        elif hasattr(obj, "__slots__"):
            for slot in obj.__slots__:
                if hasattr(obj, slot):
                    total += sizeof(getattr(obj, slot))
        return total

    return sizeof(checkpoint.state)
