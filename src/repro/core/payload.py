"""Snapshot payloads: the bytes a task ships in place of its snapshot.

A pooled or remote campaign ships each capture to its worker slots as
one pickle.  Most captures repeat the last one's RIBs exactly — on
demo27 three captures in four hold the same route objects, router for
router, as the capture before — so pickling every RIB again is wasted
work on both ends, the way copying every page would waste a ``fork()``
(incremental checkpointing, as in libckpt, writes only what changed).
A payload is therefore a pickle of two parts:

* the **RIB block** — every router's ``config``, ``adj_rib_in``,
  ``adj_rib_out`` and ``loc_rib``, as one pickle across all routers,
  so one object per value stays one object in the block (each router's
  entries keep their checkpoint state's type, and with it its rows);
* the **rest** — the snapshot with those entries left ``None``: timers,
  sessions, pending exports, damping, channels and ids.

Every payload carries its block's bytes; only the work is saved.

Coordinator side, a :class:`SnapshotEncoder` lives for one campaign and
pickles a block only when something in it changed: it holds the last
capture's RIB containers and compares the new ones with ``is``.  A
capture hands back the last capture's container for a RIB whose
version has not moved (the coordinator's checkpoint memo), so the same
container is an unchanged RIB; a RIB rebuilt with the entries it had
costs one block pickled again, never a result.  A checkpoint's
containers are written by nobody, and its leaves — routes, attribute sets, prefixes, configs —
are immutable, so the same objects in the same order pickle to a block
that decodes equal to the last one.

Worker side, :func:`decode_snapshot` decodes a block once per process
through a one-entry memo keyed by the block's bytes, which pool
processes, loopback slots and daemons share.  A hit returns the very
objects the last decode built, and they equal what a fresh decode
would build: the value is a pure function of the key, nothing writes a
decoded block (a checkpoint's state is read, and ``import_state``
builds its own containers from it), and each task joins the block into
a snapshot whose other containers are its own.
"""

from __future__ import annotations

import dataclasses
import pickle
from operator import is_
from typing import Any

from repro.core.snapshot import Snapshot

# The checkpoint state entries a RIB block holds, in this order.
RIB_FIELDS = ("config", "adj_rib_in", "adj_rib_out", "loc_rib")
_HOLES = dict.fromkeys(RIB_FIELDS)


@dataclasses.dataclass(frozen=True)
class _SplitSnapshot:
    """A payload's two parts (see the module docstring)."""

    block: bytes
    rest: Snapshot


class SnapshotEncoder:
    """``pickle.dumps`` for a campaign's captures, RIBs once per change.

    Call it on each capture in turn; it returns the payload bytes.
    ``blocks_pickled`` counts the blocks it pickled, one per capture
    whose RIBs or configs differ from the capture before.
    """

    def __init__(self) -> None:
        self.blocks_pickled = 0
        self._ribs: dict[str, Any] | None = None  # the last block's entries
        self._block = b""

    def __call__(self, snapshot: Snapshot) -> bytes:
        ribs: dict[str, Any] = {}
        rest = {}
        for name, checkpoint in snapshot.checkpoints.items():
            state = checkpoint.state
            ribs[name] = type(state)((key, state[key]) for key in RIB_FIELDS)
            # A plain dict, in the state's key order, with holes where
            # the block's entries go.
            rest[name] = dataclasses.replace(
                checkpoint, state={**state, **_HOLES}
            )
        if self._ribs is None or not _same_ribs(ribs, self._ribs):
            self._block = pickle.dumps(ribs)
            self.blocks_pickled += 1
        self._ribs = ribs
        return pickle.dumps(_SplitSnapshot(
            self._block, dataclasses.replace(snapshot, checkpoints=rest)
        ))


def _same_ribs(new: dict[str, Any], old: dict[str, Any]) -> bool:
    """Whether ``new`` holds ``old``'s objects, router for router (in
    any order: routers are checkpointed in the order markers reach
    them): the same config and the same container for each RIB."""
    return new.keys() == old.keys() and all(
        state["config"] is held["config"]
        and state["loc_rib"] is held["loc_rib"]
        and _same_per_peer(state["adj_rib_in"], held["adj_rib_in"])
        and _same_per_peer(state["adj_rib_out"], held["adj_rib_out"])
        for state, held in ((new[name], old[name]) for name in new)
    )


def _same_per_peer(new: dict[str, Any], old: dict[str, Any]) -> bool:
    """The same peers in order, each holding the same container."""
    return list(new) == list(old) and all(
        map(is_, new.values(), old.values())
    )


# The block this process decoded last: (its bytes, the decoded entries).
_LAST_BLOCK: list[tuple[bytes, dict[str, Any]]] = [(b"", {})]


def _decoded_block(block: bytes) -> dict[str, Any]:
    """``pickle.loads(block)``, decoded once while the block repeats."""
    held, ribs = _LAST_BLOCK[0]
    if held != block:
        ribs = pickle.loads(block)
        # repro: allow[HRM002] content-addressed memo: the stored value
        # is a pure function of the key and nothing writes it
        _LAST_BLOCK[0] = (block, ribs)
    return ribs


def decode_snapshot(payload: bytes) -> Snapshot:
    """The snapshot a :class:`SnapshotEncoder` payload holds."""
    loaded: _SplitSnapshot = pickle.loads(payload)
    snapshot = loaded.rest
    checkpoints = snapshot.checkpoints
    for name, ribs in _decoded_block(loaded.block).items():
        checkpoint = checkpoints[name]
        state = type(ribs)(checkpoint.state)
        state.update(ribs)
        checkpoints[name] = dataclasses.replace(checkpoint, state=state)
    return snapshot
