"""Tests for IPv4 addresses, prefixes, and the radix trie."""

import copy
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.ip import IPv4Address, Prefix, PrefixTrie


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

    def test_supernet(self):
        assert Prefix("10.1.0.0/16").supernet() == Prefix("10.0.0.0/15")
        with pytest.raises(ValueError):
            Prefix("0.0.0.0/0").supernet()

    def test_subnets(self):
        low, high = Prefix("10.0.0.0/8").subnets()
        assert low == Prefix("10.0.0.0/9")
        assert high == Prefix("10.128.0.0/9")
        with pytest.raises(ValueError):
            Prefix("10.0.0.1/32").subnets()

    def test_wire_roundtrip(self):
        prefix = Prefix("192.168.128.0/17")
        wire = prefix.wire_bytes()
        assert wire[0] == 17
        decoded = Prefix.from_wire(wire[0], wire[1:])
        assert decoded == prefix

    def test_wire_minimal_octets(self):
        assert len(Prefix("10.0.0.0/8").wire_bytes()) == 2
        assert len(Prefix("10.0.0.0/16").wire_bytes()) == 3
        assert len(Prefix("0.0.0.0/0").wire_bytes()) == 1

    def test_from_wire_masks_stray_bits(self):
        decoded = Prefix.from_wire(8, bytes([0x0A]))
        assert decoded == Prefix("10.0.0.0/8")

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
        assert Prefix.from_wire(wire[0], wire[1:]) == prefix


def naive_longest_match(entries, address):
    """Oracle for PrefixTrie.longest_match."""
    best = None
    for prefix, value in entries.items():
        if prefix.contains(address):
            if best is None or prefix.length > best[0].length:
                best = (prefix, value)
    return best


class TestPrefixTrie:
    def test_insert_get(self):
        trie = PrefixTrie()
        trie.insert(Prefix("10.0.0.0/8"), "a")
        assert trie.get(Prefix("10.0.0.0/8")) == "a"
        assert trie.get(Prefix("10.0.0.0/9")) is None

    def test_replace_keeps_size(self):
        trie = PrefixTrie()
        trie.insert(Prefix("10.0.0.0/8"), "a")
        trie.insert(Prefix("10.0.0.0/8"), "b")
        assert len(trie) == 1
        assert trie.get(Prefix("10.0.0.0/8")) == "b"

    def test_contains(self):
        trie = PrefixTrie()
        trie.insert(Prefix("10.0.0.0/8"), None)
        assert Prefix("10.0.0.0/8") in trie
        assert Prefix("11.0.0.0/8") not in trie

    def test_remove(self):
        trie = PrefixTrie()
        trie.insert(Prefix("10.0.0.0/8"), "a")
        assert trie.remove(Prefix("10.0.0.0/8"))
        assert not trie.remove(Prefix("10.0.0.0/8"))
        assert len(trie) == 0

    def test_remove_keeps_descendants(self):
        trie = PrefixTrie()
        trie.insert(Prefix("10.0.0.0/8"), "short")
        trie.insert(Prefix("10.1.0.0/16"), "long")
        trie.remove(Prefix("10.0.0.0/8"))
        assert trie.get(Prefix("10.1.0.0/16")) == "long"

    def test_longest_match_picks_most_specific(self):
        trie = PrefixTrie()
        trie.insert(Prefix("10.0.0.0/8"), "short")
        trie.insert(Prefix("10.1.0.0/16"), "long")
        hit = trie.longest_match(IPv4Address("10.1.2.3"))
        assert hit == (Prefix("10.1.0.0/16"), "long")
        hit = trie.longest_match(IPv4Address("10.2.0.1"))
        assert hit == (Prefix("10.0.0.0/8"), "short")

    def test_longest_match_miss(self):
        trie = PrefixTrie()
        trie.insert(Prefix("10.0.0.0/8"), "a")
        assert trie.longest_match(IPv4Address("11.0.0.1")) is None

    def test_default_route_matches_all(self):
        trie = PrefixTrie()
        trie.insert(Prefix("0.0.0.0/0"), "default")
        assert trie.longest_match(IPv4Address("203.0.113.9")) == (
            Prefix("0.0.0.0/0"),
            "default",
        )

    def test_items_in_network_order(self):
        trie = PrefixTrie()
        prefixes = [Prefix("192.168.0.0/16"), Prefix("10.0.0.0/8"),
                    Prefix("10.1.0.0/16")]
        for index, prefix in enumerate(prefixes):
            trie.insert(prefix, index)
        listed = [prefix for prefix, _ in trie.items()]
        assert listed == sorted(prefixes)

    def test_covered_by(self):
        trie = PrefixTrie()
        trie.insert(Prefix("10.0.0.0/8"), 0)
        trie.insert(Prefix("10.1.0.0/16"), 1)
        trie.insert(Prefix("11.0.0.0/8"), 2)
        covered = {prefix for prefix, _ in trie.covered_by(Prefix("10.0.0.0/8"))}
        assert covered == {Prefix("10.0.0.0/8"), Prefix("10.1.0.0/16")}

    @given(
        st.dictionaries(
            st.builds(
                lambda network, length: Prefix(
                    network
                    & (0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF),
                    length,
                ),
                st.integers(min_value=0, max_value=2**32 - 1),
                st.integers(min_value=0, max_value=32),
            ),
            st.integers(),
            max_size=30,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_longest_match_agrees_with_oracle(self, entries, address_value):
        trie = PrefixTrie()
        for prefix, value in entries.items():
            trie.insert(prefix, value)
        address = IPv4Address(address_value)
        expected = naive_longest_match(entries, address)
        assert trie.longest_match(address) == expected

    @given(
        st.lists(
            st.builds(
                lambda network, length: Prefix(
                    network
                    & (0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF),
                    length,
                ),
                st.integers(min_value=0, max_value=2**32 - 1),
                st.integers(min_value=0, max_value=32),
            ),
            max_size=20,
        )
    )
    def test_insert_remove_all_leaves_empty(self, prefixes):
        trie = PrefixTrie()
        unique = list(dict.fromkeys(prefixes))
        for prefix in unique:
            trie.insert(prefix, str(prefix))
        assert len(trie) == len(unique)
        for prefix in unique:
            assert trie.remove(prefix)
        assert len(trie) == 0
        assert list(trie.items()) == []
