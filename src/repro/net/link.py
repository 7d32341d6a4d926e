"""Link model with Internet-like conditions.

A :class:`Link` connects two processes bidirectionally.  Its
:class:`LinkProfile` sets propagation latency, uniform jitter, independent
loss probability, and bandwidth (serialization delay per byte, estimated
from the payload's encoded size when available).

Delivery preserves FIFO order per direction even under jitter: a message's
departure time is never earlier than the previous message's, matching TCP
semantics that BGP sessions assume.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class LinkProfile:
    """Static link characteristics.

    latency_s      one-way propagation delay in seconds
    jitter_s       maximum extra uniform delay in seconds
    loss           probability of dropping a message (0 disables)
    bandwidth_bps  link rate in bits/second (None = infinite)
    """

    latency_s: float = 0.01
    jitter_s: float = 0.0
    loss: float = 0.0
    bandwidth_bps: float | None = None

    def __post_init__(self):
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")
        if self.jitter_s < 0:
            raise ValueError("jitter must be non-negative")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")

    @staticmethod
    def lan() -> "LinkProfile":
        """Datacenter-grade: 0.5 ms, no loss."""
        return LinkProfile(latency_s=0.0005)

    @staticmethod
    def wan(latency_ms: float = 30.0, jitter_ms: float = 5.0,
            loss: float = 0.0) -> "LinkProfile":
        """Wide-area profile; defaults approximate intra-continental RTT."""
        return LinkProfile(
            latency_s=latency_ms / 1000.0,
            jitter_s=jitter_ms / 1000.0,
            loss=loss,
        )


def _payload_size(payload: Any) -> int:
    """Best-effort wire size of a payload for serialization delay."""
    encode = getattr(payload, "encode", None)
    if callable(encode):
        try:
            encoded = encode()
        except Exception:
            return 64
        if isinstance(encoded, (bytes, bytearray)):
            return len(encoded)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    return 64


class Link:
    """A bidirectional link between processes ``a`` and ``b``."""

    def __init__(self, a: str, b: str, profile: LinkProfile | None = None):
        if a == b:
            raise ValueError(f"self-link on {a!r}")
        self.a = a
        self.b = b
        self.profile = profile or LinkProfile()
        self.up = True
        # Per-direction clock of the last scheduled arrival, for FIFO.
        self._last_arrival = {(a, b): 0.0, (b, a): 0.0}
        self.delivered = 0
        self.dropped = 0

    def other(self, name: str) -> str:
        """The endpoint opposite ``name``."""
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise KeyError(f"{name!r} is not an endpoint of {self.a}<->{self.b}")

    def delay_for(self, src: str, dst: str, payload: Any, now: float,
                  rng: random.Random, reliable: bool = False) -> float | None:
        """Compute the delivery delay for one message, or None if dropped.

        Updates the per-direction FIFO clock as a side effect.
        ``reliable`` messages are never lost (but share latency/FIFO).
        """
        if not self.up:
            return None
        profile = self.profile
        if not reliable and profile.loss > 0.0 and rng.random() < profile.loss:
            self.dropped += 1
            return None
        delay = profile.latency_s
        if profile.jitter_s > 0.0:
            delay += rng.uniform(0.0, profile.jitter_s)
        if profile.bandwidth_bps is not None:
            delay += _payload_size(payload) * 8.0 / profile.bandwidth_bps
        arrival = now + delay
        # FIFO per direction: never deliver before an earlier message.
        key = (src, dst)
        arrival = max(arrival, self._last_arrival[key])
        delay = arrival - now
        # The simulator will deliver at now + delay; rounding can land
        # that one ulp before the previous delivery, so nudge upward
        # until the actually-scheduled time respects the FIFO clock.
        while now + delay < arrival:
            delay = math.nextafter(delay, math.inf)
        self._last_arrival[key] = now + delay
        self.delivered += 1
        return delay

    def set_up(self, up: bool) -> None:
        """Bring the link up or down (down links drop everything)."""
        self.up = up
