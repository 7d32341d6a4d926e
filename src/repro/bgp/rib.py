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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator

from repro.bgp.ip import IPv4Address, Prefix, PrefixTrie
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

    def update(self, route: Route) -> Route | None:
        """Install ``route``; returns the route it replaced, if any."""
        previous = self._routes.get(route.prefix)
        self._routes[route.prefix] = route
        return previous

    def withdraw(self, prefix: Prefix) -> Route | None:
        """Remove the route for ``prefix``; returns it if present."""
        return self._routes.pop(prefix, None)

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
        self._routes.clear()
        return prefixes

    def __len__(self) -> int:
        return len(self._routes)


# Loc-RIB journal entries kept: recent enough history for the
# oscillation check, bounded however long the system runs.
JOURNAL_CAPACITY = 100_000


class LocRib:
    """Selected best routes, with longest-prefix match and a change journal.

    The routes live in a dict, so ``get`` and ``set`` cost one hash.
    ``routes()`` and ``prefixes()`` run in prefix order — sorted by
    ``(network, length)``, which is the pre-order of a binary trie —
    from a sorted key list that is kept until the key *set* changes.
    The trie itself is only an index for :meth:`lookup`: built on the
    first lookup, dropped by the next ``set``.  ``routes`` is what the
    RIB starts out holding; the journal starts empty either way.

    The journal is a ring buffer: the most recent
    :data:`JOURNAL_CAPACITY` changes are always available, however long the system has run —
    the oscillation checker depends on *recent* history, not ancient
    history, so eviction drops the oldest entries.
    """

    def __init__(self, routes: Iterable[Route] = ()):
        self._routes: dict[Prefix, Route] = {r.prefix: r for r in routes}
        self._order: list[Prefix] | None = None
        self._lpm: PrefixTrie[Route] | None = None
        self._journal: "deque[RibChange]" = deque(maxlen=JOURNAL_CAPACITY)
        self.changes_total = 0

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
        self._lpm = None
        change = RibChange(time, prefix, old, route)
        self.changes_total += 1
        self._journal.append(change)
        return change

    def lookup(self, address: IPv4Address | int) -> Route | None:
        """Longest-prefix-match forwarding lookup."""
        if self._lpm is None:
            self._lpm = PrefixTrie()
            for prefix, route in self._routes.items():
                self._lpm.insert(prefix, route)
        hit = self._lpm.longest_match(address)
        return None if hit is None else hit[1]

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

    def recent_changes(self, count: int) -> list[RibChange]:
        """The most recent ``count`` journal entries (oldest first)."""
        if count <= 0:
            return []
        retained = list(self._journal)
        return retained[-count:]

    def changes_for(self, prefix: Prefix) -> list[RibChange]:
        """Journal entries affecting ``prefix``."""
        return [change for change in self._journal if change.prefix == prefix]

    def __len__(self) -> int:
        return len(self._routes)


class AdjRibOut:
    """What we last advertised to one peer (for update suppression)."""

    def __init__(self, peer: str, routes: Iterable[Route] = ()):
        self.peer = peer
        self._routes: dict[Prefix, Route] = {r.prefix: r for r in routes}

    def advertised(self, prefix: Prefix) -> Route | None:
        """The route we last announced for ``prefix``, if any."""
        return self._routes.get(prefix)

    def record_announce(self, route: Route) -> bool:
        """Record an announcement; False if it duplicates the last one."""
        previous = self._routes.get(route.prefix)
        if previous is not None and previous.attributes == route.attributes:
            return False
        self._routes[route.prefix] = route
        return True

    def record_withdraw(self, prefix: Prefix) -> bool:
        """Record a withdrawal; False if nothing was advertised."""
        return self._routes.pop(prefix, None) is not None

    def prefixes(self) -> Iterator[Prefix]:
        """All prefixes currently advertised to this peer."""
        return iter(self._routes)

    def routes(self) -> Iterator[Route]:
        """The last announcement for every advertised prefix."""
        return iter(self._routes.values())

    def clear(self) -> None:
        """Forget advertisements (session reset)."""
        self._routes.clear()

    def __len__(self) -> int:
        return len(self._routes)
