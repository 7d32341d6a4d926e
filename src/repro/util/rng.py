"""Deterministic random number service.

Every component that needs randomness (link jitter, loss draws, fuzzers,
solver tie-breaking) asks the simulation's :class:`RandomService` for a
named child stream.  Child streams are derived from the root seed and the
stream name, so adding a new consumer of randomness never perturbs the
draws seen by existing consumers — a property the benchmarks rely on for
stable cross-run comparisons.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from a root seed and a stream name.

    The derivation is a SHA-256 of the pair, truncated to 64 bits, which
    keeps child streams statistically independent for any practical number
    of streams.
    """
    payload = f"{root_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


class RandomService:
    """Named, independently-seeded random streams under one root seed."""

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._streams: dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The root seed this service was constructed with."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the named child stream, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self._seed, name))
            self._streams[name] = stream
        return stream
