"""IPv4 addresses, prefixes, and a radix trie for longest-prefix match.

``ipaddress`` from the standard library would cover addresses, but the
reproduction needs (a) objects that survive deep-copying cheaply across
thousands of checkpoints and (b) a binary radix trie with longest-prefix
and covered-prefix queries for the RIBs — so both are implemented here on
plain integers.
"""

from __future__ import annotations

from typing import Iterator, TypeVar, Generic

_MAX_U32 = 0xFFFFFFFF

T = TypeVar("T")


class IPv4Address:
    """An immutable IPv4 address backed by a 32-bit integer."""

    # ``_hash`` is filled in by the first ``__hash__``.
    __slots__ = ("value", "_hash")

    def __init__(self, value: "int | str | IPv4Address"):
        self._hash: int | None = None
        if isinstance(value, IPv4Address):
            self.value = value.value
            return
        if isinstance(value, str):
            value = _parse_dotted(value)
        if not isinstance(value, int):
            raise TypeError(f"cannot build IPv4Address from {type(value)!r}")
        if not 0 <= value <= _MAX_U32:
            raise ValueError(f"address out of range: {value:#x}")
        self.value = value

    def packed(self) -> bytes:
        """Big-endian 4-byte encoding."""
        return self.value.to_bytes(4, "big")

    @staticmethod
    def from_bytes(data: bytes) -> "IPv4Address":
        """Decode a 4-byte big-endian address."""
        if len(data) != 4:
            raise ValueError(f"need exactly 4 bytes, got {len(data)}")
        return IPv4Address(int.from_bytes(data, "big"))

    def __str__(self) -> str:
        value = self.value
        return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IPv4Address) and self.value == other.value

    def __lt__(self, other: "IPv4Address") -> bool:
        return self.value < other.value

    def __le__(self, other: "IPv4Address") -> bool:
        return self.value <= other.value

    def __hash__(self) -> int:
        # The integer alone: a str beside it would salt the value by
        # PYTHONHASHSEED, so it would differ from process to process.
        cached = self._hash
        if cached is None:
            cached = self._hash = hash(self.value)
        return cached

    def __int__(self) -> int:
        return self.value

    def __deepcopy__(self, memo) -> "IPv4Address":
        return self  # immutable

    def __reduce__(self):
        return (IPv4Address, (self.value,))


def _parse_dotted(text: str) -> int:
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"malformed IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


class Prefix:
    """An immutable IPv4 prefix (network address + mask length).

    Host bits below the mask are required to be zero so each prefix has a
    single canonical representation — comparisons, tries and dict keys all
    rely on this.
    """

    # ``_hash`` is filled in by the first ``__hash__``; ``__reduce__``
    # reruns the constructor, so it is never pickled.
    __slots__ = ("network", "length", "_hash")

    def __init__(self, network: "int | str | IPv4Address", length: int | None = None):
        if isinstance(network, str) and "/" in network:
            if length is not None:
                raise ValueError("length given twice")
            addr_text, _, length_text = network.partition("/")
            network = _parse_dotted(addr_text)
            length = int(length_text)
        elif isinstance(network, IPv4Address):
            network = network.value
        elif isinstance(network, str):
            network = _parse_dotted(network)
        if length is None:
            raise ValueError("prefix length missing")
        if not 0 <= length <= 32:
            raise ValueError(f"prefix length out of range: {length}")
        if not isinstance(network, int) or not 0 <= network <= _MAX_U32:
            raise ValueError(f"bad network value: {network!r}")
        mask = _mask(length)
        if network & ~mask & _MAX_U32:
            raise ValueError(
                f"host bits set in {IPv4Address(network)}/{length}"
            )
        self.network = network
        self.length = length
        self._hash: int | None = None

    @staticmethod
    def from_wire(length: int, packed: bytes) -> "Prefix":
        """Decode the (length, truncated-network) NLRI wire form."""
        if not 0 <= length <= 32:
            raise ValueError(f"NLRI prefix length out of range: {length}")
        needed = (length + 7) // 8
        if len(packed) < needed:
            raise ValueError("truncated NLRI prefix bytes")
        value = int.from_bytes(packed[:needed].ljust(4, b"\x00"), "big")
        value &= _mask(length)
        return Prefix(value, length)

    def wire_bytes(self) -> bytes:
        """Encode as (length octet, minimal network octets)."""
        needed = (self.length + 7) // 8
        return bytes([self.length]) + self.network.to_bytes(4, "big")[:needed]

    @property
    def address(self) -> IPv4Address:
        """The network address as an :class:`IPv4Address`."""
        return IPv4Address(self.network)

    def contains(self, other: "Prefix | IPv4Address | int") -> bool:
        """True if ``other`` (address or more-specific prefix) is covered."""
        if isinstance(other, Prefix):
            if other.length < self.length:
                return False
            return (other.network & _mask(self.length)) == self.network
        value = other.value if isinstance(other, IPv4Address) else int(other)
        return (value & _mask(self.length)) == self.network

    def supernet(self) -> "Prefix":
        """The immediate covering prefix (one bit shorter)."""
        if self.length == 0:
            raise ValueError("0.0.0.0/0 has no supernet")
        new_length = self.length - 1
        return Prefix(self.network & _mask(new_length), new_length)

    def subnets(self) -> "tuple[Prefix, Prefix]":
        """The two immediate more-specific prefixes."""
        if self.length == 32:
            raise ValueError("/32 has no subnets")
        new_length = self.length + 1
        low = Prefix(self.network, new_length)
        high = Prefix(self.network | (1 << (32 - new_length)), new_length)
        return low, high

    def __str__(self) -> str:
        return f"{IPv4Address(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Prefix)
            and self.network == other.network
            and self.length == other.length
        )

    def __lt__(self, other: "Prefix") -> bool:
        return (self.network, self.length) < (other.network, other.length)

    def __hash__(self) -> int:
        # Integers only, so the value is the same in every process (a
        # str in the tuple salts it by PYTHONHASHSEED).  Prefixes key
        # every RIB and change map, so it is computed once.
        cached = self._hash
        if cached is None:
            cached = self._hash = hash((self.network, self.length))
        return cached

    def __deepcopy__(self, memo) -> "Prefix":
        return self  # immutable

    def __reduce__(self):
        return (Prefix, (self.network, self.length))


def _mask(length: int) -> int:
    if length == 0:
        return 0
    return (_MAX_U32 << (32 - length)) & _MAX_U32


class _TrieNode(Generic[T]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self):
        self.children: list[_TrieNode[T] | None] = [None, None]
        self.value: T | None = None
        self.has_value = False


class PrefixTrie(Generic[T]):
    """A binary radix trie mapping :class:`Prefix` to arbitrary values.

    Supports exact lookup, longest-prefix match for an address, and
    enumeration of entries covered by a given prefix.  Uses one node per
    bit — simple and fast enough for RIBs in the tens of thousands of
    routes this reproduction handles.
    """

    def __init__(self):
        self._root: _TrieNode[T] = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: Prefix) -> bool:
        return self.get(prefix, _MISSING) is not _MISSING

    def _walk_bits(self, prefix: Prefix) -> Iterator[int]:
        for position in range(prefix.length):
            yield (prefix.network >> (31 - position)) & 1

    def insert(self, prefix: Prefix, value: T) -> None:
        """Insert or replace the value at ``prefix``."""
        node = self._root
        for bit in self._walk_bits(prefix):
            child = node.children[bit]
            if child is None:
                child = _TrieNode()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.has_value = True
        node.value = value

    def get(self, prefix: Prefix, default: T | None = None):
        """Exact-match lookup; returns ``default`` when absent."""
        node: _TrieNode[T] | None = self._root
        for bit in self._walk_bits(prefix):
            if node is None:
                return default
            node = node.children[bit]
        if node is not None and node.has_value:
            return node.value
        return default

    def remove(self, prefix: Prefix) -> bool:
        """Remove ``prefix``; returns True if it was present."""
        path: list[tuple[_TrieNode[T], int]] = []
        node: _TrieNode[T] | None = self._root
        for bit in self._walk_bits(prefix):
            if node is None:
                return False
            path.append((node, bit))
            node = node.children[bit]
        if node is None or not node.has_value:
            return False
        node.has_value = False
        node.value = None
        self._size -= 1
        # Prune childless, valueless nodes back up the path.
        for parent, bit in reversed(path):
            child = parent.children[bit]
            if child is None:
                break
            if child.has_value or child.children[0] or child.children[1]:
                break
            parent.children[bit] = None
        return True

    def longest_match(self, address: "IPv4Address | int") -> tuple[Prefix, T] | None:
        """The most specific entry covering ``address``, or None."""
        value = address.value if isinstance(address, IPv4Address) else int(address)
        node: _TrieNode[T] | None = self._root
        best: tuple[Prefix, T] | None = None
        network = 0
        for position in range(33):
            assert node is not None
            if node.has_value:
                best = (Prefix(network & _mask(position), position), node.value)
            if position == 32:
                break
            bit = (value >> (31 - position)) & 1
            node = node.children[bit]
            if node is None:
                break
            network |= bit << (31 - position)
        return best

    def items(self) -> Iterator[tuple[Prefix, T]]:
        """All (prefix, value) entries in network order."""
        yield from self._iter_node(self._root, 0, 0)

    def _iter_node(self, node: _TrieNode[T], network: int,
                   depth: int) -> Iterator[tuple[Prefix, T]]:
        if node.has_value:
            yield Prefix(network, depth), node.value
        if depth == 32:
            return
        for bit in (0, 1):
            child = node.children[bit]
            if child is not None:
                child_network = network | (bit << (31 - depth))
                yield from self._iter_node(child, child_network, depth + 1)

    def covered_by(self, prefix: Prefix) -> Iterator[tuple[Prefix, T]]:
        """All entries at or below ``prefix``."""
        node: _TrieNode[T] | None = self._root
        for bit in self._walk_bits(prefix):
            if node is None:
                return
            node = node.children[bit]
        if node is not None:
            yield from self._iter_node(node, prefix.network, prefix.length)


_MISSING = object()
