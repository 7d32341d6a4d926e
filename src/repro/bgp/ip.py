"""IPv4 addresses and prefixes on plain integers.

``ipaddress`` from the standard library would cover both, but the
reproduction needs objects that survive deep-copying cheaply across
thousands of checkpoints and hash the same in every process, so they
are implemented here.
"""

from __future__ import annotations

_MAX_U32 = 0xFFFFFFFF


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
    single canonical representation — comparisons and dict keys both
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
