"""Route objects: a prefix bound to path attributes plus provenance.

Provenance (which peer, which kind of session, which peer router-id) is
what the decision process's lower tie-breaks consume, and what the
federated checkers are *not* allowed to see across domain boundaries —
hence it lives here rather than in :class:`PathAttributes`, which is the
on-the-wire part.

A route holds no symbolic state of its own.  A symbolic value, whether
a decoded concolic input or the LOCAL_PREF that route-selection
exploration plants, lives in the attribute set, where every memo's
:meth:`PathAttributes.is_concrete` gate sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any

from repro.bgp.attributes import PathAttributes
from repro.bgp.ip import IPv4Address, Prefix

SOURCE_EBGP = "ebgp"
SOURCE_IBGP = "ibgp"
SOURCE_STATIC = "static"


@dataclass(slots=True, init=False, unsafe_hash=True)
class Route:
    """One candidate path to ``prefix``.

    A slotted record: the live router, its checkpoints and every clone
    share one object, so nothing assigns a slot after ``__init__``
    (``tests/core/test_state_properties.py`` checks it).  ``__init__``
    is written out: it checks ``source`` without the extra call a
    ``__post_init__`` costs.
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

    def __init__(
        self,
        prefix: Prefix,
        attributes: PathAttributes,
        source: str = SOURCE_STATIC,
        peer: str | None = None,
        peer_as: int | None = None,
        peer_bgp_id: IPv4Address | None = None,
        received_at: float = 0.0,
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

    def replace(self, **changes: Any) -> "Route":
        """A copy with the given fields replaced."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return Route(**fields)

    def __reduce_ex__(self, protocol: int):
        # Positional: a pickle holds the seven values, not a name ->
        # value dict.
        return (Route, _fields(self))

    def with_attributes(self, attributes: PathAttributes) -> "Route":
        """Copy with replaced attributes (policy actions use this)."""
        return Route(self.prefix, attributes, self.source, self.peer,
                     self.peer_as, self.peer_bgp_id, self.received_at)

    def effective_local_pref(self, default: int = 100) -> Any:
        """LOCAL_PREF to use in the decision process: the attribute,
        symbolic or not, else the default."""
        if self.attributes.local_pref is not None:
            return self.attributes.local_pref
        return default

    def effective_med(self) -> Any:
        """MED to use in the decision process (absent treated as 0)."""
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
