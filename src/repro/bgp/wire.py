"""Low-level wire helpers shared by the BGP codecs.

All multi-byte reads are expressed as shift/or combinations of single
byte reads, never ``int.from_bytes``.  The concolic engine substitutes a
symbolic byte buffer whose indexing returns symbolic integers; written
this way, the very same decoder code runs concretely in production and
symbolically under exploration.
"""

from __future__ import annotations

from typing import Any


def read_u8(data: Any, offset: int) -> Any:
    """Read an unsigned 8-bit integer."""
    return data[offset]


def read_u16(data: Any, offset: int) -> Any:
    """Read a big-endian unsigned 16-bit integer."""
    return (data[offset] << 8) | data[offset + 1]


def read_u32(data: Any, offset: int) -> Any:
    """Read a big-endian unsigned 32-bit integer."""
    return (
        (data[offset] << 24)
        | (data[offset + 1] << 16)
        | (data[offset + 2] << 8)
        | data[offset + 3]
    )


def write_u8(out: bytearray, value: int) -> None:
    """Append an unsigned 8-bit integer."""
    if not 0 <= value <= 0xFF:
        raise ValueError(f"u8 out of range: {value}")
    out.append(value)


def write_u16(out: bytearray, value: int) -> None:
    """Append a big-endian unsigned 16-bit integer."""
    if not 0 <= value <= 0xFFFF:
        raise ValueError(f"u16 out of range: {value}")
    out.append((value >> 8) & 0xFF)
    out.append(value & 0xFF)


def write_u32(out: bytearray, value: int) -> None:
    """Append a big-endian unsigned 32-bit integer."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"u32 out of range: {value}")
    out.append((value >> 24) & 0xFF)
    out.append((value >> 16) & 0xFF)
    out.append((value >> 8) & 0xFF)
    out.append(value & 0xFF)
