"""Routing information bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.

The three-RIB architecture follows RFC 4271 section 3.2:

* one :class:`AdjRibIn` per peer holds the routes that peer advertised,
  post-import-policy;
* the :class:`LocRib` holds the selected best route per prefix;
* one :class:`AdjRibOut` per peer holds what we advertised to that peer,
  so the router only re-announces on actual change (update suppression —
  without it, policy-conflict oscillations would flood the network with
  duplicate messages and the oscillation checker would see noise).

The Loc-RIB journals every change; the journal is the raw material for
the oscillation and convergence checks.

All three are dicts keyed by prefix, and each constructor takes what the
RIB starts out holding: restoring a checkpoint is one dict build that
calls no mutator and journals nothing — it is not a route change.
Each keeps a ``version`` that every change to its content or key order
bumps, so a checkpoint can hand back the container it built last time
while the version reads the same (``BGPRouter.export_state``).  The
two route RIBs hold :class:`Route` objects, provenance and all.  An
Adj-RIB-Out holds only the :class:`PathAttributes` that went on the
wire: the router exports a change once per update group, so every peer
of a group holds the same object, and no reader of an Adj-RIB-Out looks
at where a route came from.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator

from repro.bgp.attributes import PathAttributes
from repro.bgp.ip import Prefix
from repro.bgp.route import Route


@dataclass(slots=True, unsafe_hash=True)
class RibChange:
    """One Loc-RIB transition for a prefix.

    Slotted, and like :class:`Route` never written after ``__init__``:
    pending MRAI exports hold changes, and checkpoints share them.
    Equality and hash cover every field.
    """

    time: float
    prefix: Prefix
    old: Route | None
    new: Route | None

    @property
    def kind(self) -> str:
        """"advertise", "withdraw" or "replace"."""
        if self.old is None:
            return "advertise"
        if self.new is None:
            return "withdraw"
        return "replace"

    def __reduce__(self):
        return (RibChange, _change_fields(self))


_change_fields = attrgetter(*RibChange.__slots__)


class AdjRibIn:
    """Routes learned from one peer, keyed by prefix."""

    def __init__(self, peer: str, routes: Iterable[Route] = ()):
        self.peer = peer
        self._routes: dict[Prefix, Route] = {r.prefix: r for r in routes}
        self.version = 0

    def update(self, route: Route) -> Route | None:
        """Install ``route``; returns the route it replaced, if any."""
        previous = self._routes.get(route.prefix)
        self._routes[route.prefix] = route
        self.version += 1
        return previous

    def withdraw(self, prefix: Prefix) -> Route | None:
        """Remove the route for ``prefix``; returns it if present."""
        previous = self._routes.pop(prefix, None)
        if previous is not None:
            self.version += 1
        return previous

    def get(self, prefix: Prefix) -> Route | None:
        """The route this peer advertised for ``prefix``, if any."""
        return self._routes.get(prefix)

    def routes(self) -> Iterator[Route]:
        """All routes from this peer."""
        return iter(self._routes.values())

    def prefixes(self) -> Iterator[Prefix]:
        """All prefixes this peer advertised."""
        return iter(self._routes)

    def clear(self) -> list[Prefix]:
        """Drop everything (session reset); returns affected prefixes."""
        prefixes = list(self._routes.keys())
        if prefixes:
            self._routes.clear()
            self.version += 1
        return prefixes

    def __len__(self) -> int:
        return len(self._routes)


# Loc-RIB journal entries kept: recent enough history for the
# oscillation check, bounded however long the system runs.
JOURNAL_CAPACITY = 100_000


class LocRib:
    """Selected best routes, by exact prefix, and a change journal.

    The routes live in a dict, so ``get`` and ``set`` cost one hash.
    ``routes()`` and ``prefixes()`` run in prefix order — sorted by
    ``(network, length)`` — from a sorted key list that is kept until
    the key *set* changes.  ``routes`` is what the RIB starts out
    holding; the journal starts empty either way.

    The journal is a ring buffer: the most recent
    :data:`JOURNAL_CAPACITY` changes are always available, however long the system has run —
    the oscillation checker depends on *recent* history, not ancient
    history, so eviction drops the oldest entries.
    """

    def __init__(self, routes: Iterable[Route] = ()):
        self._routes: dict[Prefix, Route] = {r.prefix: r for r in routes}
        self._order: list[Prefix] | None = None
        self._journal: "deque[RibChange]" = deque(maxlen=JOURNAL_CAPACITY)
        self.changes_total = 0
        self.version = 0

    def get(self, prefix: Prefix) -> Route | None:
        """Best route for exactly ``prefix``."""
        return self._routes.get(prefix)

    def set(self, time: float, prefix: Prefix, route: Route | None) -> RibChange | None:
        """Install (or with ``None``, remove) the best route for ``prefix``.

        Returns the journal entry, or None when nothing changed.
        """
        old = self._routes.get(prefix)
        if old is route or (old == route and old is not None):
            return None
        if route is None:
            del self._routes[prefix]
        else:
            self._routes[prefix] = route
        if old is None or route is None:
            self._order = None
        self.version += 1
        change = RibChange(time, prefix, old, route)
        self.changes_total += 1
        self._journal.append(change)
        return change

    def routes(self) -> Iterator[Route]:
        """All best routes in prefix order."""
        return map(self._routes.__getitem__, self.prefixes())

    def prefixes(self) -> Iterator[Prefix]:
        """All prefixes with a selected route, in prefix order."""
        if self._order is None:
            key = attrgetter("network", "length")  # Prefix.__lt__, in C
            self._order = sorted(self._routes, key=key)
        return iter(self._order)

    def journal(self) -> list[RibChange]:
        """The retained change journal (oldest first)."""
        return list(self._journal)

    def changes_for(self, prefix: Prefix) -> list[RibChange]:
        """Journal entries affecting ``prefix``."""
        return [change for change in self._journal if change.prefix == prefix]

    def __len__(self) -> int:
        return len(self._routes)


class AdjRibOut:
    """What we last sent one peer, for update suppression: a map from
    prefix to the :class:`PathAttributes` of the announcement.

    An entry holds what went on the wire and nothing else — no
    provenance — so every peer of one update group holds
    the same attribute object (a symbolic set, which is exported once
    per peer, is that peer's own).  Each entry is keyed by the prefix
    object last announced, the Loc-RIB route's own: an announcement
    re-inserts its key, so a checkpoint of this map writes no prefix
    the Loc-RIB does not already hold.  ``sent`` is what the RIB starts
    out holding; it is copied, never kept.
    """

    def __init__(self, peer: str,
                 sent: dict[Prefix, PathAttributes] | None = None):
        self.peer = peer
        self._sent: dict[Prefix, PathAttributes] = (
            {} if sent is None else sent.copy()
        )
        self.version = 0

    def advertised(self, prefix: Prefix) -> PathAttributes | None:
        """The attribute set we last announced for ``prefix``, if any."""
        return self._sent.get(prefix)

    def record_announce(self, prefix: Prefix,
                        attributes: PathAttributes) -> bool:
        """Record an announcement; False if it duplicates the last one."""
        sent = self._sent
        previous = sent.pop(prefix, None)
        # Even a duplicate moves its key to the end, under ``prefix``.
        self.version += 1
        if previous is not None and previous == attributes:
            sent[prefix] = previous  # re-keyed, as it was sent
            return False
        sent[prefix] = attributes
        return True

    def record_withdraw(self, prefix: Prefix) -> bool:
        """Record a withdrawal; False if nothing was advertised."""
        if self._sent.pop(prefix, None) is None:
            return False
        self.version += 1
        return True

    def prefixes(self) -> Iterator[Prefix]:
        """All prefixes currently advertised to this peer."""
        return iter(self._sent)

    def sent(self) -> dict[Prefix, PathAttributes]:
        """A copy of the map, for a checkpoint."""
        return self._sent.copy()

    def clear(self) -> None:
        """Forget advertisements (session reset)."""
        if self._sent:
            self._sent.clear()
            self.version += 1

    def __len__(self) -> int:
        return len(self._sent)
