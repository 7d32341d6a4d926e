"""Tests for IPv4 addresses and prefixes."""

import copy
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.messages import _decode_nlri_block


def decode_nlri(wire: bytes) -> Prefix:
    """The one prefix in ``wire``, decoded as an UPDATE's NLRI is."""
    (prefix,) = _decode_nlri_block(wire, 0, len(wire), "nlri")
    return prefix


class TestIPv4Address:
    def test_parse_dotted(self):
        assert IPv4Address("10.1.2.3").value == 0x0A010203

    def test_str_roundtrip(self):
        assert str(IPv4Address("192.168.0.1")) == "192.168.0.1"

    def test_from_int(self):
        assert str(IPv4Address(0xC0A80001)) == "192.168.0.1"

    def test_packed_roundtrip(self):
        address = IPv4Address("172.16.5.9")
        assert IPv4Address.from_bytes(address.packed()) == address

    def test_bad_octet_rejected(self):
        with pytest.raises(ValueError):
            IPv4Address("10.0.0.256")

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            IPv4Address("10.0.0")

    def test_out_of_range_int_rejected(self):
        with pytest.raises(ValueError):
            IPv4Address(2**32)

    def test_ordering(self):
        assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")

    def test_hashable(self):
        assert len({IPv4Address("1.2.3.4"), IPv4Address("1.2.3.4")}) == 1

    def test_deepcopy_identity(self):
        address = IPv4Address("1.2.3.4")
        assert copy.deepcopy(address) is address

    def test_hash_is_the_same_in_every_process(self):
        """Hashes of leaves decide dict and set layout inside a task, so
        they must not depend on the interpreter's string-hash salt."""
        program = (
            "from repro.bgp.ip import IPv4Address, Prefix\n"
            "print(hash(IPv4Address('10.0.1.1')), hash(Prefix('10.1.0.0/16')))"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        outputs = {
            subprocess.run(
                [sys.executable, "-c", program], check=True,
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": salt},
            ).stdout
            for salt in ("1", "2")
        }
        assert len(outputs) == 1

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_str_parse_roundtrip(self, value):
        assert IPv4Address(str(IPv4Address(value))).value == value


class TestPrefix:
    def test_parse_cidr(self):
        prefix = Prefix("10.0.0.0/8")
        assert prefix.network == 0x0A000000
        assert prefix.length == 8

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Prefix("10.0.0.1/8")

    def test_length_bounds(self):
        with pytest.raises(ValueError):
            Prefix("10.0.0.0/33")
        assert Prefix("0.0.0.0/0").length == 0
        assert Prefix("10.0.0.1/32").length == 32

    def test_contains_address(self):
        prefix = Prefix("10.0.0.0/8")
        assert prefix.contains(IPv4Address("10.200.3.4"))
        assert not prefix.contains(IPv4Address("11.0.0.0"))

    def test_contains_more_specific(self):
        assert Prefix("10.0.0.0/8").contains(Prefix("10.1.0.0/16"))
        assert not Prefix("10.1.0.0/16").contains(Prefix("10.0.0.0/8"))

    def test_zero_length_contains_everything(self):
        default = Prefix("0.0.0.0/0")
        assert default.contains(Prefix("203.0.113.0/24"))

    def test_wire_roundtrip(self):
        prefix = Prefix("192.168.128.0/17")
        wire = prefix.wire_bytes()
        assert wire[0] == 17
        assert decode_nlri(wire) == prefix

    def test_wire_minimal_octets(self):
        assert len(Prefix("10.0.0.0/8").wire_bytes()) == 2
        assert len(Prefix("10.0.0.0/16").wire_bytes()) == 3
        assert len(Prefix("0.0.0.0/0").wire_bytes()) == 1

    def test_from_wire_masks_stray_bits(self):
        # 0x0B under a /7 mask leaves one host bit set; BIRD masks it.
        assert decode_nlri(bytes([7, 0x0B])) == Prefix("10.0.0.0/7")

    @pytest.mark.parametrize("leaf", [Prefix("10.1.0.0/16"),
                                      IPv4Address("10.0.1.1")])
    def test_hashing_pickles_nothing_new(self, leaf):
        """The hash kept in a slot is rebuilt by the constructor that
        ``__reduce__`` reruns, never written into a pickle."""
        before = pickle.dumps(leaf)
        hash(leaf)
        assert pickle.dumps(leaf) == before
        assert hash(pickle.loads(before)) == hash(leaf)

    def test_sortable(self):
        prefixes = [Prefix("10.1.0.0/16"), Prefix("10.0.0.0/8")]
        assert sorted(prefixes)[0] == Prefix("10.0.0.0/8")

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=32),
    )
    def test_wire_roundtrip_any(self, network, length):
        mask = 0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        prefix = Prefix(network & mask, length)
        wire = prefix.wire_bytes()
        assert decode_nlri(wire) == prefix


