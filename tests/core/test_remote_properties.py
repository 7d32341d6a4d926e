"""Property-based round-trip tests for the wire-facing protocol.

The frame codec in :mod:`repro.core.remote` (length-prefixed pickle
frames) carries every task and outcome across process boundaries.
Result equality rests on it being an exact inverse under arbitrary
inputs, including hostile ones — truncated and corrupted frames must
fail loudly with a *named* error, never return garbage or raise a stray
``AttributeError`` from pickle's opcode machinery.
"""

import socket

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.bgp.ip import Prefix  # noqa: E402
from repro.checks import default_property_suite  # noqa: E402
from repro.concolic.frontier import (  # noqa: E402
    Frontier,
    FrontierDiscipline,
    FrontierShard,
)
from repro.core.explorer import (  # noqa: E402
    ExplorationConfig,
    NodeExplorationReport,
)
from repro.core.parallel import (  # noqa: E402
    ExplorationTask,
    TaskOutcome,
    claims_from_spec,
    claims_to_spec,
)
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


# -- task and outcome frames --------------------------------------------------

node_names = st.text(
    st.characters(min_codepoint=45, max_codepoint=122), min_size=1,
    max_size=8,
)
configs = st.builds(
    ExplorationConfig,
    node=node_names,
    inputs=st.integers(min_value=1, max_value=10_000),
    horizon=st.floats(min_value=0.1, max_value=600, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    frontier=st.sampled_from(list(FrontierDiscipline)),
)
claim_specs = st.lists(
    st.tuples(
        st.tuples(st.integers(min_value=1, max_value=223),
                  st.integers(min_value=0, max_value=255),
                  st.sampled_from([8, 16, 24])).map(
            lambda t: f"{t[0]}.{t[1] if t[2] > 8 else 0}.0.0/{t[2]}"),
        st.integers(min_value=1, max_value=2 ** 32 - 1),
    ),
    max_size=6,
).map(tuple)
counts = st.integers(min_value=0, max_value=10 ** 6)
round0_shards = st.builds(
    FrontierShard,
    round=st.just(0),
    index=st.integers(min_value=0, max_value=7),
    count=st.integers(min_value=8, max_value=16),
    budget=st.integers(min_value=1, max_value=10_000),
)


def make_task(config, claims, blob, shard):
    return ExplorationTask(
        config=config, shard=shard, snapshot=None,
        suite=default_property_suite(), claims=claims, snapshot_blob=blob,
    )


class TestTaskFrameProperties:
    @given(shard=round0_shards, config=configs, claims=claim_specs,
           blob=st.binary(max_size=2048))
    def test_task_frame_round_trips(self, shard, config, claims, blob):
        task = make_task(config, claims, blob, shard)
        kind, request_id, decoded = decode_frame(
            encode_frame(("task", 7, task))
        )
        assert (kind, request_id) == ("task", 7)
        assert decoded.shard == shard
        assert decoded.config == config
        assert decoded.claims == claims
        assert decoded.snapshot_blob == blob
        assert decoded.snapshot is None

    @given(config=configs, claims=claim_specs,
           blobs=st.tuples(st.binary(max_size=4096),
                           st.binary(max_size=4096)))
    def test_task_envelope_does_not_grow_with_the_payload(
        self, config, claims, blobs
    ):
        """A frame is its snapshot payload plus an envelope fixed by the
        config and claims; pickle's bytes opcode may take a few more
        bytes for a longer payload, and that is all."""
        whole = FrontierShard(round=0, index=0, count=1, budget=config.inputs)
        envelopes = [
            len(encode_frame(
                ("task", 1, make_task(config, claims, blob, whole))
            ))
            - len(blob)
            for blob in blobs
        ]
        assert abs(envelopes[0] - envelopes[1]) <= 8

    @given(node=node_names, executions=counts, unique_paths=counts,
           branch_coverage=counts, clones_created=counts,
           solver_queries=counts, solver_sat=counts)
    def test_outcome_frame_round_trips_every_counter(
        self, node, executions, unique_paths, branch_coverage,
        clones_created, solver_queries, solver_sat,
    ):
        report = NodeExplorationReport(
            node=node, strategy="concolic", snapshot_id="snap-1",
            executions=executions, unique_paths=unique_paths,
            branch_coverage=branch_coverage, clones_created=clones_created,
            solver_queries=solver_queries, solver_sat=solver_sat,
        )
        outcome = TaskOutcome(report=report, frontier=Frontier())
        _, _, decoded = decode_frame(encode_frame(("outcome", 1, outcome)))
        assert decoded.report == report
        assert decoded.frontier == Frontier()

    @given(spec=claim_specs)
    def test_claim_spec_is_canonical(self, spec):
        """Claims travel as sorted (prefix, asn) pairs: rebuilding them
        in a worker and flattening again is a fixed point, whatever
        order and duplicates the campaign side produced."""
        canonical = claims_to_spec(claims_from_spec(spec))
        assert claims_to_spec(claims_from_spec(canonical)) == canonical
        assert canonical == tuple(sorted(
            set(canonical), key=lambda pair: (Prefix(pair[0]), pair[1])
        ))
        assert set(canonical) == {
            (str(Prefix(prefix)), asn) for prefix, asn in spec
        }
