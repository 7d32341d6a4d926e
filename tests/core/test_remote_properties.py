"""Property-based round-trip tests for the wire-facing protocols.

Two layers carry campaign state across process boundaries: the frame
codec in :mod:`repro.core.remote` (length-prefixed pickle frames) and
the solver-cache delta protocol in :mod:`repro.concolic.solver`
(fork, journalled events, take/replay, first-writer-wins merge).  Result
equality rests on both being exact inverses under arbitrary inputs,
including hostile ones — truncated and corrupted frames must fail
loudly with a *named* error, never return garbage or raise a stray
``AttributeError`` from pickle's opcode machinery.
"""

import socket

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.concolic.solver import SolverCache, model_events  # noqa: E402
from repro.core.remote import (  # noqa: E402
    decode_frame,
    encode_frame,
    recv_message,
)

# Messages are pickled tuples of primitives (request ids, summaries);
# nested containers cover the task/outcome shapes.
primitives = st.one_of(
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.binary(max_size=200),
    st.text(max_size=50),
    st.booleans(),
    st.none(),
)
messages = st.tuples(
    st.sampled_from(["task", "outcome", "error", "ping", "pong"]),
    st.lists(
        st.one_of(
            primitives,
            st.lists(primitives, max_size=5).map(tuple),
            st.dictionaries(st.text(max_size=10), primitives, max_size=5),
        ),
        max_size=5,
    ),
).map(lambda pair: (pair[0], *pair[1]))


class TestFrameCodecProperties:
    @given(message=messages)
    def test_encode_decode_round_trip(self, message):
        assert decode_frame(encode_frame(message)) == message

    @given(message=messages, cut=st.integers(min_value=0, max_value=300))
    def test_truncated_frame_is_a_named_error(self, message, cut):
        frame = encode_frame(message)
        truncated = frame[: min(cut, len(frame) - 1)]
        with pytest.raises(ValueError):
            decode_frame(truncated)

    @given(
        message=messages,
        position=st.integers(min_value=0, max_value=10_000),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_any_corrupted_byte_is_a_named_error(
        self, message, position, flip
    ):
        """A flipped byte anywhere in the frame — header, checksum, or
        payload — raises ValueError.  Never an unnamed exception from
        pickle internals, and (thanks to the CRC) never silently
        different content: this property originally caught plain
        length-prefixed pickle decoding ``("outcome",)`` from a
        corrupted ``("nutcome",)`` frame."""
        frame = bytearray(encode_frame(message))
        frame[position % len(frame)] ^= flip
        with pytest.raises(ValueError):
            decode_frame(bytes(frame))

    @given(message=messages)
    def test_recv_message_round_trips_over_a_real_socket_pair(
        self, message
    ):
        left, right = socket.socketpair()
        try:
            frame = encode_frame(message)
            left.sendall(frame)
            received = recv_message(right)
            assert received is not None
            decoded, wire_bytes = received
            assert decoded == message
            assert wire_bytes == len(frame)
        finally:
            left.close()
            right.close()

    @given(message=messages, cut=st.integers(min_value=1, max_value=300))
    def test_recv_message_mid_frame_eof_is_a_connection_error(
        self, message, cut
    ):
        frame = encode_frame(message)
        truncated = frame[: min(cut, len(frame) - 1)]
        left, right = socket.socketpair()
        try:
            left.sendall(truncated)
            left.close()
            with pytest.raises((ConnectionError, ValueError)):
                if recv_message(right) is None:
                    # 0 bytes delivered = clean EOF at a frame
                    # boundary, which is legitimate; force the
                    # mid-frame case to still be checked.
                    assert len(truncated) == 0
                    raise ConnectionError("clean EOF stands in")
        finally:
            right.close()


# -- CacheDelta take/replay ---------------------------------------------------

cache_keys = st.lists(
    st.integers(min_value=0, max_value=2 ** 64 - 1),
    min_size=1, max_size=4,
).map(tuple)
models = st.dictionaries(
    st.text(st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1, max_size=6),
    st.integers(min_value=0, max_value=255),
    max_size=4,
)
store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("m"), cache_keys, models),
        st.tuples(st.just("f"), cache_keys, models),
    ),
    max_size=30,
)


def apply_ops(cache, ops):
    for kind, key, model in ops:
        if kind == "m":
            cache.store_model(key, model)
        else:
            cache.store_failure(key, model or None)


class TestCacheDeltaProperties:
    @settings(deadline=None)
    @given(ops=store_ops, max_entries=st.integers(min_value=1, max_value=8))
    def test_take_then_replay_reproduces_state_bit_exactly(
        self, ops, max_entries
    ):
        """A delta replayed onto a mirror at the same base generation
        reproduces the origin cache exactly — FIFO evictions included."""
        origin = SolverCache(max_entries=max_entries)
        mirror = SolverCache(max_entries=max_entries)
        apply_ops(origin, ops)
        mirror.replay_delta(origin.take_delta("n"))
        assert mirror.state_fingerprint() == origin.state_fingerprint()
        assert mirror.generation == origin.generation

    @settings(deadline=None)
    @given(ops=store_ops, split=st.integers(min_value=0, max_value=30))
    def test_incremental_deltas_equal_one_big_delta(self, ops, split):
        """Draining the journal mid-stream and replaying both deltas in
        order lands on the same state as one end-of-stream delta."""
        origin = SolverCache(max_entries=8)
        piecewise = SolverCache(max_entries=8)
        cut = min(split, len(ops))
        apply_ops(origin, ops[:cut])
        piecewise.replay_delta(origin.take_delta("n"))
        apply_ops(origin, ops[cut:])
        piecewise.replay_delta(origin.take_delta("n"))
        assert piecewise.state_fingerprint() == origin.state_fingerprint()

    @settings(deadline=None)
    @given(ops=store_ops)
    def test_replay_onto_wrong_generation_is_loud(self, ops):
        origin = SolverCache(max_entries=8)
        apply_ops(origin, ops)
        delta = origin.take_delta("n")
        if len(delta) == 0:
            return  # an empty delta replays anywhere by construction
        behind = SolverCache(max_entries=8)
        behind.store_model((1,), {"a": 1})  # generation mismatch
        with pytest.raises(ValueError, match="generation"):
            behind.replay_delta(delta)

    @settings(deadline=None)
    @given(warm=store_ops, foreign=store_ops, ops=store_ops,
           max_entries=st.sampled_from([2, 8, 64]))
    def test_fork_explores_without_touching_the_original(
        self, warm, foreign, ops, max_entries
    ):
        """What a session does to the cache its task carried: explore
        on a fork, ship the fork's delta, replay it onto the original."""
        original = SolverCache(max_entries=max_entries)
        apply_ops(original, warm)
        donor = SolverCache(max_entries=64)
        apply_ops(donor, foreign)
        original.merge_delta(model_events(donor.take_delta("donor").events))
        before = original.state_fingerprint()
        fork = original.fork()
        assert fork.state_fingerprint() == before
        assert fork.max_entries == original.max_entries
        assert all(
            fork.is_merged(key) == original.is_merged(key)
            for _, key, _ in warm + foreign
        )
        apply_ops(fork, ops)
        assert original.state_fingerprint() == before
        original.replay_delta(fork.take_delta("n"))
        assert original.state_fingerprint() == fork.state_fingerprint()

    @settings(deadline=None)
    @given(ops=store_ops, foreign=store_ops)
    def test_merge_is_first_writer_wins_and_generation_advances(
        self, ops, foreign
    ):
        cache = SolverCache(max_entries=64)
        apply_ops(cache, ops)
        own_models = {
            key: dict(model)
            for key, model in [
                (k, m) for kind, k, m in ops if kind == "m"
            ]
        }
        donor = SolverCache(max_entries=64)
        apply_ops(donor, foreign)
        donated = donor.take_delta("donor").events
        events = model_events(donated)
        assert events == tuple(e for e in donated if e[0] == "m")
        generation_before = cache.generation
        cache.merge_delta(events)
        assert cache.generation == generation_before + len(events)
        for key in own_models:
            if cache.lookup_model(key) is not None:
                # Never replaced by a merged foreign entry.
                assert not cache.is_merged(key)
