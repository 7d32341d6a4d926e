"""Tests for the low-level wire helpers."""

import pytest

from repro.bgp.wire import (
    read_u8,
    read_u16,
    read_u32,
    write_u16,
    write_u32,
)


class TestReadWrite:
    def test_u8_roundtrip(self):
        out = bytearray()
        out.append(0xAB)  # an encoder appends a single octet directly
        assert read_u8(bytes(out), 0) == 0xAB

    def test_u16_roundtrip(self):
        out = bytearray()
        write_u16(out, 0xBEEF)
        assert read_u16(bytes(out), 0) == 0xBEEF

    def test_u32_roundtrip(self):
        out = bytearray()
        write_u32(out, 0xDEADBEEF)
        assert read_u32(bytes(out), 0) == 0xDEADBEEF

    def test_big_endian_layout(self):
        out = bytearray()
        write_u32(out, 0x01020304)
        assert bytes(out) == b"\x01\x02\x03\x04"

    def test_offsets(self):
        data = b"\x00\x01\x02\x03\x04\x05"
        assert read_u16(data, 2) == 0x0203
        assert read_u32(data, 1) == 0x01020304

    @pytest.mark.parametrize("writer,limit", [
        (write_u16, 0xFFFF), (write_u32, 0xFFFFFFFF),
    ])
    def test_range_enforced(self, writer, limit):
        out = bytearray()
        writer(out, limit)
        with pytest.raises(ValueError):
            writer(out, limit + 1)
        with pytest.raises(ValueError):
            writer(out, -1)

    def test_symbolic_friendly_reads(self):
        """Reads must work on index-returning buffer objects."""
        from repro.concolic.symbolic import SymBytes

        data = SymBytes.mark_all(b"\x12\x34\x56\x78")
        value = read_u32(data, 0)
        assert int(value) == 0x12345678
