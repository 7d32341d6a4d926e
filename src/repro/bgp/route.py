"""Route objects: a prefix bound to path attributes plus provenance.

Provenance (which peer, which kind of session, which peer router-id) is
what the decision process's lower tie-breaks consume, and what the
federated checkers are *not* allowed to see across domain boundaries —
hence it lives here rather than in :class:`PathAttributes`, which is the
on-the-wire part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Mapping

from repro.bgp.attributes import PathAttributes
from repro.bgp.ip import IPv4Address, Prefix

SOURCE_EBGP = "ebgp"
SOURCE_IBGP = "ibgp"
SOURCE_STATIC = "static"


class _ReadOnlyDict(dict):
    """A dict that rejects writes once built (the type of ``Route.sym``).

    Routes are shared, not copied, between the live router, its
    checkpoints and every clone, so a write through one holder would
    reach all of them.  Unlike ``MappingProxyType`` this pickles.
    """

    __slots__ = ()

    def _read_only(self, *args: Any, **kwargs: Any):
        raise TypeError(
            "Route.sym is read-only; build a new Route with Route.replace"
        )

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return (_ReadOnlyDict, (dict(self),))


# Routes without shadows (all of them, outside exploration clones) share
# one empty mapping: nothing to allocate per route, and a pickled
# snapshot holds it once.
_NO_SYM = _ReadOnlyDict()


@dataclass(slots=True, init=False, unsafe_hash=True)
class Route:
    """One candidate path to ``prefix``.

    A slotted record: the live router, its checkpoints and every clone
    share one object, so nothing assigns a slot after ``__init__``
    (``tests/core/test_state_properties.py`` checks it).  Equality and
    hash cover every field but ``sym``.  ``__init__`` is written out: it
    checks ``source`` without the extra call a ``__post_init__`` costs.
    """

    _FIELDS = ("prefix", "attributes", "source", "peer", "peer_as",
               "peer_bgp_id", "received_at")
    prefix: Prefix
    attributes: PathAttributes
    source: str
    peer: str | None
    peer_as: int | None
    peer_bgp_id: IPv4Address | None
    received_at: float
    sym: Mapping[str, Any] = field(compare=False)

    def __init__(
        self,
        prefix: Prefix,
        attributes: PathAttributes,
        source: str = SOURCE_STATIC,
        peer: str | None = None,
        peer_as: int | None = None,
        peer_bgp_id: IPv4Address | None = None,
        received_at: float = 0.0,
        sym: Mapping[str, Any] = _NO_SYM,
    ):
        if source not in (SOURCE_EBGP, SOURCE_IBGP, SOURCE_STATIC):
            raise ValueError(f"bad route source {source!r}")
        self.prefix = prefix
        self.attributes = attributes
        self.source = source
        self.peer = peer
        self.peer_as = peer_as
        self.peer_bgp_id = peer_bgp_id
        self.received_at = received_at
        # Symbolic shadows attached by the explorer: maps field names (e.g.
        # "local_pref", "med", "preferred") to symbolic expressions, so
        # policy filters and the decision process can branch symbolically
        # even after the concrete values were fixed.  Read-only: planting
        # a shadow means building a new Route.
        if type(sym) is not _ReadOnlyDict:
            sym = _ReadOnlyDict(sym) if sym else _NO_SYM
        self.sym = sym

    def replace(self, **changes: Any) -> "Route":
        """A copy with the given fields (``sym`` among them) replaced."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return Route(**fields)

    def __reduce_ex__(self, protocol: int):
        # Positional: a pickle holds the values, not a name -> value
        # dict, and a route without shadows (every route outside an
        # exploration clone) the seven fields alone.
        fields = _fields(self)
        return (Route, fields + (self.sym,) if self.sym else fields)

    def with_attributes(self, attributes: PathAttributes) -> "Route":
        """Copy with replaced attributes (policy actions use this)."""
        return Route(self.prefix, attributes, self.source, self.peer,
                     self.peer_as, self.peer_bgp_id, self.received_at,
                     self.sym)

    def effective_local_pref(self, default: int = 100) -> Any:
        """LOCAL_PREF to use in the decision process.

        The symbolic shadow takes priority so that exploration of the
        "locally most preferred" condition (paper section 3) sees a
        symbolic value; otherwise the attribute, otherwise the default.
        """
        shadow = self.sym.get("local_pref")
        if shadow is not None:
            return shadow
        if self.attributes.local_pref is not None:
            return self.attributes.local_pref
        return default

    def effective_med(self) -> Any:
        """MED to use in the decision process (absent treated as 0)."""
        shadow = self.sym.get("med")
        if shadow is not None:
            return shadow
        if self.attributes.med is not None:
            return self.attributes.med
        return 0

    @property
    def origin_as(self) -> int | None:
        """The AS that originated this route, if the path is non-empty."""
        return self.attributes.as_path.origin_as()

    def describe(self) -> str:
        """One-line rendering for reports and the dashboard."""
        via = self.peer if self.peer is not None else "local"
        return (
            f"{self.prefix} via {via} ({self.source}) "
            f"path [{self.attributes.as_path}] "
            f"lp={self.attributes.local_pref} med={self.attributes.med}"
        )


_fields = attrgetter(*Route._FIELDS)
