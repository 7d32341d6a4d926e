"""Shared utilities: deterministic randomness and stable hashing.

These helpers exist so that every stochastic decision in the reproduction
(link jitter, fuzzing choices, solver search order) flows through a single
seeded random service, which makes every experiment replayable bit-for-bit
from its seed.
"""

from repro.util.rng import RandomService, derive_seed
from repro.util.hashing import stable_hash, salted_digest

__all__ = [
    "RandomService",
    "derive_seed",
    "stable_hash",
    "salted_digest",
]
