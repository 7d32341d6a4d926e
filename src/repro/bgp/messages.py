"""BGP message wire codec (RFC 4271 section 4).

Four message types: OPEN, UPDATE, NOTIFICATION, KEEPALIVE.  The decoder
accepts either concrete ``bytes`` or a symbolic buffer from
:mod:`repro.concolic.symbolic`; in the latter case every validation branch
records a path constraint.

The 16-byte marker is required to be all ones (no authentication is in
use), the length field must match the actual buffer, and per-type body
validation mirrors what BIRD enforces — so byte-level fuzzing of this
decoder exercises realistic error paths.
"""

from __future__ import annotations

from typing import Any

from repro.bgp.attributes import PathAttributes
from repro.bgp.errors import (
    BGPError,
    MessageHeaderError,
    OpenMessageError,
    UpdateMessageError,
)
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.wire import read_u8, read_u16, read_u32, write_u16

HEADER_SIZE = 19
MAX_MESSAGE_SIZE = 4096
MARKER = b"\xff" * 16

TYPE_OPEN = 1
TYPE_UPDATE = 2
TYPE_NOTIFICATION = 3
TYPE_KEEPALIVE = 4

_TYPE_NAMES = {
    TYPE_OPEN: "OPEN",
    TYPE_UPDATE: "UPDATE",
    TYPE_NOTIFICATION: "NOTIFICATION",
    TYPE_KEEPALIVE: "KEEPALIVE",
}


class BGPMessage:
    """Base class: encoding frame shared by all message types.

    A message is read-only once built: every receiver of the same wire
    bytes is handed the same decoded object (``BGPRouter._decode``).
    """

    __slots__ = ()
    type_code = 0

    def body(self) -> bytes:
        """The per-type payload; subclasses override."""
        return b""

    def encode(self) -> bytes:
        """Full wire form: marker + length + type + body."""
        payload = self.body()
        length = HEADER_SIZE + len(payload)
        if length > MAX_MESSAGE_SIZE:
            raise ValueError(f"message too large: {length} bytes")
        out = bytearray(MARKER)
        write_u16(out, length)
        out.append(self.type_code)
        out.extend(payload)
        return bytes(out)

    @property
    def type_name(self) -> str:
        """Human-readable message type."""
        return _TYPE_NAMES.get(self.type_code, f"?{self.type_code}")


class OpenMessage(BGPMessage):
    """OPEN: version, my-AS, hold time, BGP identifier."""

    __slots__ = ("version", "my_as", "hold_time", "bgp_id")
    type_code = TYPE_OPEN

    def __init__(self, my_as: int, hold_time: int, bgp_id: IPv4Address,
                 version: int = 4):
        self.version = version
        self.my_as = my_as
        self.hold_time = hold_time
        self.bgp_id = IPv4Address(bgp_id)

    def body(self) -> bytes:
        out = bytearray()
        out.append(int(self.version))
        write_u16(out, int(self.my_as))
        write_u16(out, int(self.hold_time))
        out.extend(self.bgp_id.packed())
        out.append(0)  # no optional parameters
        return bytes(out)

    def __repr__(self) -> str:
        return (
            f"OpenMessage(as={self.my_as}, hold={self.hold_time}, "
            f"id={self.bgp_id})"
        )


class UpdateMessage(BGPMessage):
    """UPDATE: withdrawn routes, path attributes, announced NLRI."""

    __slots__ = ("withdrawn", "attributes", "nlri")
    type_code = TYPE_UPDATE

    def __init__(
        self,
        withdrawn: tuple[Prefix, ...] = (),
        attributes: PathAttributes | None = None,
        nlri: tuple[Prefix, ...] = (),
    ):
        if nlri and attributes is None:
            raise ValueError("NLRI requires path attributes")
        self.withdrawn = tuple(withdrawn)
        self.attributes = attributes
        self.nlri = tuple(nlri)

    def body(self) -> bytes:
        withdrawn_bytes = b"".join(p.wire_bytes() for p in self.withdrawn)
        attr_bytes = self.attributes.encode() if self.attributes else b""
        nlri_bytes = b"".join(p.wire_bytes() for p in self.nlri)
        out = bytearray()
        write_u16(out, len(withdrawn_bytes))
        out.extend(withdrawn_bytes)
        write_u16(out, len(attr_bytes))
        out.extend(attr_bytes)
        out.extend(nlri_bytes)
        return bytes(out)

    def __repr__(self) -> str:
        parts = []
        if self.withdrawn:
            parts.append(f"withdraw={[str(p) for p in self.withdrawn]}")
        if self.nlri:
            parts.append(f"announce={[str(p) for p in self.nlri]}")
        if self.attributes is not None:
            parts.append(f"attrs={self.attributes!r}")
        return "UpdateMessage(" + ", ".join(parts) + ")"


class NotificationMessage(BGPMessage):
    """NOTIFICATION: error code/subcode; closes the session."""

    __slots__ = ("code", "subcode", "data")
    type_code = TYPE_NOTIFICATION

    def __init__(self, code: int, subcode: int = 0, data: bytes = b""):
        self.code = code
        self.subcode = subcode
        self.data = data

    @staticmethod
    def from_error(error: BGPError) -> "NotificationMessage":
        """Build the NOTIFICATION a speaker sends for ``error``."""
        return NotificationMessage(error.code, error.subcode, error.data)

    def body(self) -> bytes:
        return bytes([int(self.code), int(self.subcode)]) + self.data

    def __repr__(self) -> str:
        return f"NotificationMessage(code={self.code}, subcode={self.subcode})"


class KeepaliveMessage(BGPMessage):
    """KEEPALIVE: header only."""

    __slots__ = ()
    type_code = TYPE_KEEPALIVE

    def __repr__(self) -> str:
        return "KeepaliveMessage()"


def _decode_nlri_block(data: Any, start: int, end: int,
                       field_name: str) -> tuple[Prefix, ...]:
    """Decode a run of (length, prefix-bytes) NLRI entries."""
    prefixes = []
    offset = start
    while offset < end:
        length = read_u8(data, offset)
        offset += 1
        if length > 32:
            raise UpdateMessageError(
                UpdateMessageError.INVALID_NETWORK_FIELD,
                f"{field_name}: prefix length {int(length)} > 32",
            )
        length = int(length)
        needed = (length + 7) // 8
        if offset + needed > end:
            raise UpdateMessageError(
                UpdateMessageError.INVALID_NETWORK_FIELD,
                f"{field_name}: truncated prefix bytes",
            )
        network = 0
        for index in range(needed):
            network = (network << 8) | data[offset + index]
        network <<= 8 * (4 - needed)
        # Host bits beyond the mask must be zero for a canonical prefix;
        # BIRD accepts and masks them, so we mask rather than reject, but
        # only after branching on whether any were set (symbolic-visible).
        if length == 0:
            mask = 0
        else:
            mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        stray = network & ~mask & 0xFFFFFFFF
        if stray != 0:
            network = network & mask
        prefixes.append(Prefix(int(network) & mask, length))
        offset += needed
    return tuple(prefixes)


def decode_update_body(data: Any) -> UpdateMessage:
    """Decode an UPDATE body (without the 19-byte header)."""
    size = len(data)
    if size < 4:
        raise UpdateMessageError(
            UpdateMessageError.MALFORMED_ATTRIBUTE_LIST, "body too short"
        )
    withdrawn_len = int(read_u16(data, 0))
    if 2 + withdrawn_len + 2 > size:
        raise UpdateMessageError(
            UpdateMessageError.MALFORMED_ATTRIBUTE_LIST,
            "withdrawn length overruns message",
        )
    withdrawn = _decode_nlri_block(data, 2, 2 + withdrawn_len, "withdrawn")
    attr_offset = 2 + withdrawn_len
    attr_len = int(read_u16(data, attr_offset))
    nlri_offset = attr_offset + 2 + attr_len
    if nlri_offset > size:
        raise UpdateMessageError(
            UpdateMessageError.MALFORMED_ATTRIBUTE_LIST,
            "attribute length overruns message",
        )
    nlri = _decode_nlri_block(data, nlri_offset, size, "nlri")
    attributes = None
    attr_block = data[attr_offset + 2 : nlri_offset]
    if attr_len > 0 or nlri:
        attributes = PathAttributes.decode(
            attr_block, require_mandatory=bool(nlri)
        )
    return UpdateMessage(withdrawn=withdrawn, attributes=attributes, nlri=nlri)


def decode_open_body(data: Any) -> OpenMessage:
    """Decode an OPEN body."""
    if len(data) < 10:
        raise MessageHeaderError(
            MessageHeaderError.BAD_MESSAGE_LENGTH, "OPEN body too short"
        )
    version = read_u8(data, 0)
    if version != 4:
        raise OpenMessageError(
            OpenMessageError.UNSUPPORTED_VERSION,
            f"version {int(version)}",
        )
    my_as = read_u16(data, 1)
    if my_as == 0:
        raise OpenMessageError(OpenMessageError.BAD_PEER_AS, "AS 0")
    hold_time = read_u16(data, 3)
    # Hold time of 1 or 2 is unacceptable (RFC 4271, 4.2).
    if hold_time != 0 and hold_time < 3:
        raise OpenMessageError(
            OpenMessageError.UNACCEPTABLE_HOLD_TIME,
            f"hold time {int(hold_time)}",
        )
    bgp_id = read_u32(data, 5)
    if bgp_id == 0:
        raise OpenMessageError(
            OpenMessageError.BAD_BGP_IDENTIFIER, "identifier 0.0.0.0"
        )
    opt_len = int(read_u8(data, 9))
    if 10 + opt_len != len(data):
        raise MessageHeaderError(
            MessageHeaderError.BAD_MESSAGE_LENGTH,
            "optional parameter length mismatch",
        )
    return OpenMessage(
        my_as=int(my_as),
        hold_time=int(hold_time),
        bgp_id=IPv4Address(int(bgp_id)),
        version=int(version),
    )


def decode_message(data: Any) -> BGPMessage:
    """Decode a full wire message (header + body).

    Raises :class:`MessageHeaderError` for frame problems and the
    per-type error classes for body problems.
    """
    size = len(data)
    if size < HEADER_SIZE:
        raise MessageHeaderError(
            MessageHeaderError.BAD_MESSAGE_LENGTH, f"{size} bytes < header"
        )
    for index in range(16):
        if data[index] != 0xFF:
            raise MessageHeaderError(
                MessageHeaderError.CONNECTION_NOT_SYNCHRONIZED,
                f"marker byte {index} not 0xff",
            )
    length = read_u16(data, 16)
    if length != size:
        raise MessageHeaderError(
            MessageHeaderError.BAD_MESSAGE_LENGTH,
            f"length field {int(length)} != buffer {size}",
        )
    if length > MAX_MESSAGE_SIZE:
        raise MessageHeaderError(
            MessageHeaderError.BAD_MESSAGE_LENGTH,
            f"length {int(length)} > {MAX_MESSAGE_SIZE}",
        )
    msg_type = read_u8(data, 18)
    body = data[HEADER_SIZE:]
    if msg_type == TYPE_OPEN:
        return decode_open_body(body)
    if msg_type == TYPE_UPDATE:
        return decode_update_body(body)
    if msg_type == TYPE_NOTIFICATION:
        if len(body) < 2:
            raise MessageHeaderError(
                MessageHeaderError.BAD_MESSAGE_LENGTH,
                "NOTIFICATION body too short",
            )
        raw = bytes(int(body[index]) & 0xFF for index in range(2, len(body)))
        return NotificationMessage(
            int(read_u8(body, 0)), int(read_u8(body, 1)), raw
        )
    if msg_type == TYPE_KEEPALIVE:
        if size != HEADER_SIZE:
            raise MessageHeaderError(
                MessageHeaderError.BAD_MESSAGE_LENGTH,
                "KEEPALIVE with a body",
            )
        return KeepaliveMessage()
    raise MessageHeaderError(
        MessageHeaderError.BAD_MESSAGE_TYPE, f"type {int(msg_type)}"
    )
