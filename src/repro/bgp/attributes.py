"""BGP path attributes: model, wire codec, and flag validation.

Implements the RFC 4271 attribute set in use in 2011-era deployments:
ORIGIN, AS_PATH, NEXT_HOP, MULTI_EXIT_DISC, LOCAL_PREF, ATOMIC_AGGREGATE,
AGGREGATOR and COMMUNITY (RFC 1997).  AS numbers are the classic 16-bit
kind (the paper predates wide 4-byte-ASN deployment).

The decoder is written against :mod:`repro.bgp.wire` so the concolic
engine can substitute symbolic byte buffers: every validation below is a
branch the engine can negate — exactly the "type, length, and value fields
... treated as symbolic" of the paper's section 3.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.bgp.errors import UpdateMessageError
from repro.bgp.ip import IPv4Address
from repro.bgp.wire import read_u8, read_u16, read_u32, write_u16, write_u32

# Attribute type codes.
ORIGIN = 1
AS_PATH = 2
NEXT_HOP = 3
MULTI_EXIT_DISC = 4
LOCAL_PREF = 5
ATOMIC_AGGREGATE = 6
AGGREGATOR = 7
COMMUNITY = 8

# Attribute flag bits.
FLAG_OPTIONAL = 0x80
FLAG_TRANSITIVE = 0x40
FLAG_PARTIAL = 0x20
FLAG_EXTENDED_LENGTH = 0x10
_FLAG_UNUSED_MASK = 0x0F

# AS_PATH segment types.
SEGMENT_AS_SET = 1
SEGMENT_AS_SEQUENCE = 2

# Well-known community values (RFC 1997).
COMMUNITY_NO_EXPORT = 0xFFFFFF01
COMMUNITY_NO_ADVERTISE = 0xFFFFFF02
COMMUNITY_NO_EXPORT_SUBCONFED = 0xFFFFFF03


class Origin:
    """ORIGIN attribute values."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2

    _NAMES = {IGP: "IGP", EGP: "EGP", INCOMPLETE: "INCOMPLETE"}

    @classmethod
    def name(cls, value: int) -> str:
        """Human-readable name for an origin value."""
        return cls._NAMES.get(int(value), f"?{int(value)}")

    @classmethod
    def is_valid(cls, value: Any) -> bool:
        """True for the three defined origin codes.

        Written as explicit comparisons (not a set lookup) so a symbolic
        origin records per-value constraints.
        """
        return bool(value == cls.IGP) or bool(value == cls.EGP) or bool(
            value == cls.INCOMPLETE
        )


class AsPath:
    """An AS_PATH: an immutable sequence of (segment type, ASN tuple).

    The common case is a single AS_SEQUENCE segment; AS_SET segments
    appear after aggregation and count as one hop in path length
    (RFC 4271, 9.1.2.2 a).
    """

    __slots__ = ("segments",)

    def __init__(self, segments: "tuple[tuple[int, tuple[int, ...]], ...]" = ()):
        for seg_type, asns in segments:
            if seg_type not in (SEGMENT_AS_SET, SEGMENT_AS_SEQUENCE):
                raise ValueError(f"bad AS_PATH segment type {seg_type}")
            if not asns:
                raise ValueError("empty AS_PATH segment")
        self.segments = tuple(
            (seg_type, tuple(asns)) for seg_type, asns in segments
        )

    @staticmethod
    def from_sequence(*asns: int) -> "AsPath":
        """Build a path that is one AS_SEQUENCE of ``asns`` (empty ok)."""
        if not asns:
            return AsPath()
        return AsPath(((SEGMENT_AS_SEQUENCE, tuple(asns)),))

    def prepend(self, asn: int) -> "AsPath":
        """Return a new path with ``asn`` prepended (RFC 4271, 5.1.2)."""
        if self.segments and self.segments[0][0] == SEGMENT_AS_SEQUENCE:
            head_type, head_asns = self.segments[0]
            if len(head_asns) < 255:
                new_head = (head_type, (asn,) + head_asns)
                return AsPath((new_head,) + self.segments[1:])
        new_head = (SEGMENT_AS_SEQUENCE, (asn,))
        return AsPath((new_head,) + self.segments)

    def length(self) -> int:
        """Path length for the decision process: sets count as one hop."""
        total = 0
        for seg_type, asns in self.segments:
            total += 1 if seg_type == SEGMENT_AS_SET else len(asns)
        return total

    def contains(self, asn: int) -> bool:
        """True if ``asn`` appears anywhere (loop detection)."""
        return any(asn in asns for _, asns in self.segments)

    def asns(self) -> Iterator[int]:
        """All AS numbers in order of appearance."""
        for _, seg_asns in self.segments:
            yield from seg_asns

    def first_as(self) -> int | None:
        """The neighboring AS (leftmost), or None for an empty path."""
        for _, seg_asns in self.segments:
            return seg_asns[0]
        return None

    def origin_as(self) -> int | None:
        """The originating AS (rightmost), or None for an empty path."""
        result = None
        for _, seg_asns in self.segments:
            result = seg_asns[-1]
        return result

    def encode(self) -> bytes:
        """Wire form: sequence of (type, count, ASN*count) segments."""
        out = bytearray()
        for seg_type, asns in self.segments:
            out.append(seg_type)
            out.append(len(asns))
            for asn in asns:
                write_u16(out, asn)
        return bytes(out)

    @staticmethod
    def decode(data: Any) -> "AsPath":
        """Parse wire form; raises :class:`UpdateMessageError` code 11."""
        segments = []
        offset = 0
        size = len(data)
        while offset < size:
            if offset + 2 > size:
                raise UpdateMessageError(
                    UpdateMessageError.MALFORMED_AS_PATH,
                    "truncated AS_PATH segment header",
                )
            seg_type = read_u8(data, offset)
            count = read_u8(data, offset + 1)
            is_set = seg_type == SEGMENT_AS_SET
            is_seq = seg_type == SEGMENT_AS_SEQUENCE
            if not is_set and not is_seq:
                raise UpdateMessageError(
                    UpdateMessageError.MALFORMED_AS_PATH,
                    f"bad segment type {int(seg_type)}",
                )
            if count == 0:
                raise UpdateMessageError(
                    UpdateMessageError.MALFORMED_AS_PATH, "empty segment"
                )
            offset += 2
            count = int(count)
            if offset + 2 * count > size:
                raise UpdateMessageError(
                    UpdateMessageError.MALFORMED_AS_PATH,
                    "truncated AS_PATH segment body",
                )
            asns = tuple(
                int(read_u16(data, offset + 2 * index)) for index in range(count)
            )
            offset += 2 * count
            segments.append((int(seg_type), asns))
        return AsPath(tuple(segments))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AsPath) and self.segments == other.segments

    def __hash__(self) -> int:
        return hash(("AsPath", self.segments))

    def __str__(self) -> str:
        parts = []
        for seg_type, asns in self.segments:
            text = " ".join(str(asn) for asn in asns)
            parts.append("{" + text + "}" if seg_type == SEGMENT_AS_SET else text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"AsPath({str(self)!r})"

    def __deepcopy__(self, memo) -> "AsPath":
        return self  # immutable

    def __reduce__(self):
        return (AsPath, (self.segments,))


# Per-type flag templates: (required optional bit, required transitive bit).
_FLAG_RULES: dict[int, tuple[bool, bool]] = {
    ORIGIN: (False, True),
    AS_PATH: (False, True),
    NEXT_HOP: (False, True),
    MULTI_EXIT_DISC: (True, False),
    LOCAL_PREF: (False, True),
    ATOMIC_AGGREGATE: (False, True),
    AGGREGATOR: (True, True),
    COMMUNITY: (True, True),
}

_FIXED_LENGTHS: dict[int, int] = {
    ORIGIN: 1,
    NEXT_HOP: 4,
    MULTI_EXIT_DISC: 4,
    LOCAL_PREF: 4,
    ATOMIC_AGGREGATE: 0,
    AGGREGATOR: 6,
}


class PathAttributes:
    """The decoded attribute set attached to a route.

    ``med`` and ``local_pref`` may be ``None`` (absent) — the decision
    process treats absent MED per the missing-as-best convention and
    absent LOCAL_PREF via the configured default.  ``unknown`` carries
    unrecognized optional-transitive attributes through, per RFC 4271 9.
    """

    _FIELDS = (
        "origin",
        "as_path",
        "next_hop",
        "med",
        "local_pref",
        "atomic_aggregate",
        "aggregator",
        "communities",
        "unknown",
    )
    # ``_key`` is derived from the fields, once, in ``__init__``: the
    # set is immutable, and equality, hashing, NLRI packing and the
    # attribute cache all probe by it.
    __slots__ = _FIELDS + ("_key",)

    def __init__(
        self,
        origin: int = Origin.IGP,
        as_path: AsPath | None = None,
        next_hop: IPv4Address | None = None,
        med: Any = None,
        local_pref: Any = None,
        atomic_aggregate: bool = False,
        aggregator: tuple[int, IPv4Address] | None = None,
        communities: tuple[int, ...] = (),
        unknown: tuple[tuple[int, int, bytes], ...] = (),
    ):
        self.origin = origin
        self.as_path = as_path if as_path is not None else AsPath()
        self.next_hop = next_hop
        self.med = med
        self.local_pref = local_pref
        self.atomic_aggregate = atomic_aggregate
        self.aggregator = aggregator
        self.communities = tuple(communities)
        self.unknown = tuple(unknown)
        self._key = (
            int(origin),
            self.as_path.segments,
            None if next_hop is None else int(next_hop),
            None if med is None else int(med),
            None if local_pref is None else int(local_pref),
            bool(atomic_aggregate),
            None if aggregator is None
            else (int(aggregator[0]), int(aggregator[1])),
            tuple(map(int, self.communities)),
            self.unknown,
        )

    def replace(self, **changes: Any) -> "PathAttributes":
        """Return a copy with the given fields replaced."""
        fields = {name: getattr(self, name) for name in self._FIELDS}
        fields.update(changes)
        return PathAttributes(**fields)

    def __reduce__(self):
        # Positional, so a pickle holds the nine values and not a
        # name -> value dict per set; ``_key`` is rebuilt on load.
        return (
            PathAttributes,
            tuple(getattr(self, name) for name in self._FIELDS),
        )

    def is_concrete(self) -> bool:
        """False when a field holds a symbolic value.  Only ORIGIN, MED,
        LOCAL_PREF and communities can: the decoder concretizes the rest."""
        return (
            type(self.origin) is int
            and (self.med is None or type(self.med) is int)
            and (self.local_pref is None or type(self.local_pref) is int)
            and all(type(c) is int for c in self.communities)
        )

    def has_community(self, value: int) -> bool:
        """Membership test written as explicit equality for symbolic flow."""
        for community in self.communities:
            if community == value:
                return True
        return False

    def key(self) -> tuple:
        """A hashable identity tuple (concretized) for change detection."""
        return self._key

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, PathAttributes) and self._key == other._key
        )

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        parts = [f"origin={Origin.name(self.origin)}", f"as_path=[{self.as_path}]"]
        if self.next_hop is not None:
            parts.append(f"next_hop={self.next_hop}")
        if self.med is not None:
            parts.append(f"med={self.med}")
        if self.local_pref is not None:
            parts.append(f"local_pref={self.local_pref}")
        if self.communities:
            parts.append(f"communities={list(self.communities)}")
        return "PathAttributes(" + ", ".join(parts) + ")"

    # -- wire codec -----------------------------------------------------------

    def encode(self) -> bytes:
        """Encode all present attributes in type order."""
        out = bytearray()
        _append_attr(out, 0x40, ORIGIN, bytes([int(self.origin)]))
        _append_attr(out, 0x40, AS_PATH, self.as_path.encode())
        if self.next_hop is not None:
            _append_attr(out, 0x40, NEXT_HOP, self.next_hop.packed())
        if self.med is not None:
            body = bytearray()
            write_u32(body, int(self.med))
            _append_attr(out, 0x80, MULTI_EXIT_DISC, bytes(body))
        if self.local_pref is not None:
            body = bytearray()
            write_u32(body, int(self.local_pref))
            _append_attr(out, 0x40, LOCAL_PREF, bytes(body))
        if self.atomic_aggregate:
            _append_attr(out, 0x40, ATOMIC_AGGREGATE, b"")
        if self.aggregator is not None:
            asn, address = self.aggregator
            body = bytearray()
            write_u16(body, int(asn))
            body.extend(IPv4Address(address).packed())
            _append_attr(out, 0xC0, AGGREGATOR, bytes(body))
        if self.communities:
            body = bytearray()
            for community in self.communities:
                write_u32(body, int(community))
            _append_attr(out, 0xC0, COMMUNITY, bytes(body))
        for flags, type_code, value in self.unknown:
            _append_attr(out, flags | FLAG_PARTIAL, type_code, value)
        return bytes(out)

    @staticmethod
    def decode(data: Any, require_mandatory: bool = True) -> "PathAttributes":
        """Parse a path-attribute block.

        Every check below raises :class:`UpdateMessageError` with the RFC
        subcode a conforming speaker would send — and is a branch point
        for the concolic engine.
        """
        offset = 0
        size = len(data)
        seen: set[int] = set()
        fields: dict[str, Any] = {}
        unknown: list[tuple[int, int, bytes]] = []
        while offset < size:
            if offset + 2 > size:
                raise UpdateMessageError(
                    UpdateMessageError.MALFORMED_ATTRIBUTE_LIST,
                    "truncated attribute header",
                )
            flags = read_u8(data, offset)
            type_code = read_u8(data, offset + 1)
            offset += 2
            if flags & _FLAG_UNUSED_MASK:
                raise UpdateMessageError(
                    UpdateMessageError.ATTRIBUTE_FLAGS_ERROR,
                    f"reserved flag bits set on attribute {int(type_code)}",
                )
            if flags & FLAG_EXTENDED_LENGTH:
                if offset + 2 > size:
                    raise UpdateMessageError(
                        UpdateMessageError.MALFORMED_ATTRIBUTE_LIST,
                        "truncated extended length",
                    )
                length = int(read_u16(data, offset))
                offset += 2
            else:
                if offset + 1 > size:
                    raise UpdateMessageError(
                        UpdateMessageError.MALFORMED_ATTRIBUTE_LIST,
                        "truncated length",
                    )
                length = int(read_u8(data, offset))
                offset += 1
            if offset + length > size:
                raise UpdateMessageError(
                    UpdateMessageError.ATTRIBUTE_LENGTH_ERROR,
                    f"attribute {int(type_code)} overruns block",
                )
            value = data[offset : offset + length]
            offset += length
            type_code = int(type_code)
            if type_code in seen:
                raise UpdateMessageError(
                    UpdateMessageError.MALFORMED_ATTRIBUTE_LIST,
                    f"duplicate attribute {type_code}",
                )
            seen.add(type_code)
            _check_flags(flags, type_code)
            _check_length(type_code, length)
            _decode_one(type_code, flags, value, fields, unknown)
        if require_mandatory:
            for name, type_code in (
                ("origin", ORIGIN),
                ("as_path", AS_PATH),
                ("next_hop", NEXT_HOP),
            ):
                if name not in fields:
                    raise UpdateMessageError(
                        UpdateMessageError.MISSING_WELLKNOWN_ATTRIBUTE,
                        f"missing mandatory attribute {type_code}",
                        data=bytes([type_code]),
                    )
        fields.setdefault("as_path", AsPath())
        return PathAttributes(unknown=tuple(unknown), **fields)


def _append_attr(out: bytearray, flags: int, type_code: int, value: bytes) -> None:
    if len(value) > 0xFF:
        out.append(flags | FLAG_EXTENDED_LENGTH)
        out.append(type_code)
        write_u16(out, len(value))
    else:
        out.append(flags)
        out.append(type_code)
        out.append(len(value))
    out.extend(value)


def _check_flags(flags: Any, type_code: int) -> None:
    rule = _FLAG_RULES.get(type_code)
    if rule is None:
        # Unrecognized: optional attributes pass through; a well-known
        # attribute we do not recognize is a fatal error (RFC 4271, 6.3).
        if not flags & FLAG_OPTIONAL:
            raise UpdateMessageError(
                UpdateMessageError.UNRECOGNIZED_WELLKNOWN_ATTRIBUTE,
                f"unrecognized well-known attribute {type_code}",
            )
        return
    want_optional, want_transitive = rule
    is_optional = bool(flags & FLAG_OPTIONAL)
    is_transitive = bool(flags & FLAG_TRANSITIVE)
    if is_optional != want_optional or is_transitive != want_transitive:
        raise UpdateMessageError(
            UpdateMessageError.ATTRIBUTE_FLAGS_ERROR,
            f"bad flags {int(flags):#04x} for attribute {type_code}",
        )


def _check_length(type_code: int, length: int) -> None:
    fixed = _FIXED_LENGTHS.get(type_code)
    if fixed is not None and length != fixed:
        raise UpdateMessageError(
            UpdateMessageError.ATTRIBUTE_LENGTH_ERROR,
            f"attribute {type_code} length {length} != {fixed}",
        )
    if type_code == COMMUNITY and length % 4 != 0:
        raise UpdateMessageError(
            UpdateMessageError.OPTIONAL_ATTRIBUTE_ERROR,
            f"COMMUNITY length {length} not a multiple of 4",
        )


def _decode_one(
    type_code: int,
    flags: Any,
    value: Any,
    fields: dict[str, Any],
    unknown: list[tuple[int, int, bytes]],
) -> None:
    if type_code == ORIGIN:
        origin = read_u8(value, 0)
        if not Origin.is_valid(origin):
            raise UpdateMessageError(
                UpdateMessageError.INVALID_ORIGIN,
                f"origin value {int(origin)}",
            )
        fields["origin"] = origin
    elif type_code == AS_PATH:
        fields["as_path"] = AsPath.decode(value)
    elif type_code == NEXT_HOP:
        next_hop = read_u32(value, 0)
        # 0.0.0.0 and class-D/E addresses are not valid next hops.  The
        # comparisons run before concretization so they record constraints.
        if next_hop == 0 or next_hop >= 0xE0000000:
            raise UpdateMessageError(
                UpdateMessageError.INVALID_NEXT_HOP,
                f"next hop {IPv4Address(int(next_hop))}",
            )
        fields["next_hop"] = IPv4Address(int(next_hop))
    elif type_code == MULTI_EXIT_DISC:
        fields["med"] = read_u32(value, 0)
    elif type_code == LOCAL_PREF:
        fields["local_pref"] = read_u32(value, 0)
    elif type_code == ATOMIC_AGGREGATE:
        fields["atomic_aggregate"] = True
    elif type_code == AGGREGATOR:
        asn = read_u16(value, 0)
        address = int(read_u32(value, 2))
        fields["aggregator"] = (int(asn), IPv4Address(address))
    elif type_code == COMMUNITY:
        count = len(value) // 4
        fields["communities"] = tuple(
            read_u32(value, 4 * index) for index in range(count)
        )
    else:
        raw = bytes(int(value[index]) & 0xFF for index in range(len(value)))
        unknown.append((int(flags) & ~FLAG_EXTENDED_LENGTH, type_code, raw))
