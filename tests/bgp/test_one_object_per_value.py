"""One object per distinct value on the wire.

A network's routers hand every receiver of the same bytes the same
decoded message, and keep one ``PathAttributes`` per distinct concrete
value (``BGPRouter._decode`` / ``_canonical`` over ``Network.interned``).
Identity is all the table may decide: these tests hold the memoised path
to the plain decoder, keep symbolic values out of it, drive it past its
bound, and check that nobody writes to what is now shared.
"""

import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import quickstart_system
from repro.bgp import messages, router as router_module
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.config import AddNetwork, NeighborConfig, RemoveNetwork, RouterConfig
from repro.bgp.errors import BGPError
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.messages import (
    BGPMessage,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    decode_message,
)
from repro.bgp.route import SOURCE_EBGP, Route
from repro.bgp.router import BGPRouter
from repro.concolic.expr import Var
from repro.concolic.grammar import UpdateGrammar
from repro.concolic.symbolic import SymBytes, SymInt
from repro.net.network import Network


def attached_router(limit=None):
    """A router on a network of its own, with peer ``p``."""
    network = Network()
    if limit is not None:
        network.INTERN_LIMIT = limit
    router = network.add_process(BGPRouter(RouterConfig(
        name="r", local_as=65001, router_id=IPv4Address("9.9.9.9"),
        neighbors=(NeighborConfig(peer="p", peer_as=65002),),
    )))
    return network, router


def fields(value):
    """``value`` down to its fields, so that two decodes compare field
    for field (messages define no ``__eq__``; an attribute set's own
    compares concretized keys)."""
    if isinstance(value, BGPMessage):
        return (type(value).__name__,) + tuple(
            fields(getattr(value, slot)) for slot in type(value).__slots__
        )
    if isinstance(value, PathAttributes):
        return tuple(
            fields(getattr(value, name)) for name in PathAttributes._FIELDS
        )
    if isinstance(value, tuple):
        return tuple(fields(item) for item in value)
    if isinstance(value, AsPath):
        return ("AsPath", value.segments)
    if isinstance(value, Prefix):
        return ("Prefix", value.network, value.length)
    if isinstance(value, IPv4Address):
        return ("IPv4Address", value.value)
    assert isinstance(value, (int, float, str, bytes, type(None))), value
    return value


def outcome(decode, data):
    """What delivering ``data`` through ``decode`` comes to."""
    try:
        return ("message", fields(decode(data)))
    except BGPError as error:
        return (type(error).__name__, error.code, error.subcode, error.data)


grammar_output = st.integers(0, 2**32 - 1).map(
    lambda seed: UpdateGrammar(rng=random.Random(seed)).generate().data
)


@st.composite
def mutated_grammar_output(draw):
    data = bytearray(draw(grammar_output))
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


wire_inputs = st.one_of(st.binary(max_size=80), grammar_output,
                        mutated_grammar_output())


class TestDeliveryMemo:
    @settings(max_examples=150, deadline=None)
    @given(wire_inputs, st.lists(grammar_output, min_size=3, max_size=3,
                                 unique=True))
    def test_agrees_with_the_decoder_cold_warm_and_after_overflow(
        self, data, fillers
    ):
        network, router = attached_router(limit=3)
        expected = outcome(decode_message, data)
        assert outcome(router._decode, data) == expected  # cold
        assert outcome(router._decode, data) == expected  # warm
        for filler in fillers:
            router._decode(filler)
        # Three distinct fillers through a table of three: it was
        # dropped at least once since ``data`` went in.
        assert len(network.interned) <= 3
        assert outcome(router._decode, data) == expected

    def test_a_hit_is_the_same_object_and_skips_the_decoder(self):
        network, router = attached_router()
        data = UpdateGrammar(rng=random.Random(1)).generate().data
        with mock.patch.object(
            router_module, "decode_message", wraps=decode_message
        ) as decoder:
            first = router._decode(data)
            assert router._decode(bytes(bytearray(data))) is first
            assert decoder.call_count == 1
        assert network.interned[data] is first

    @pytest.mark.parametrize("data", [
        b"",                                    # MessageHeaderError
        messages.MARKER + b"\x00\x13\x09",      # bad type
        messages.MARKER + b"\x00\x17\x02" + b"\x00\x05\x00\x00",  # bad UPDATE
    ])
    def test_an_erroring_input_is_decoded_on_every_delivery(self, data):
        network, router = attached_router()
        with mock.patch.object(
            router_module, "decode_message", wraps=decode_message
        ) as decoder:
            for _ in range(2):
                with pytest.raises(BGPError):
                    router._decode(data)
            assert decoder.call_count == 2
        assert not network.interned

    def test_a_crashing_decoder_is_never_remembered(self):
        network, router = attached_router()
        data = KeepaliveMessage().encode()
        with mock.patch.object(
            router_module, "decode_message", side_effect=IndexError("boom")
        ) as decoder:
            for _ in range(2):
                with pytest.raises(IndexError):
                    router._decode(data)
            assert decoder.call_count == 2
        assert not network.interned
        assert isinstance(router._decode(data), KeepaliveMessage)

    def test_only_exact_bytes_are_looked_up(self):
        """A symbolic buffer — or any other buffer type — always takes
        the decoder, warm table or not, so the concolic engine records
        the constraints it always did."""
        network, router = attached_router()
        generated = UpdateGrammar(rng=random.Random(2)).generate()
        router._decode(generated.data)  # warm
        kept = dict(network.interned)
        with mock.patch.object(
            router_module, "decode_message", wraps=decode_message
        ) as decoder:
            for buffer in (generated.symbolic(), bytearray(generated.data),
                           memoryview(generated.data),
                           SymBytes(generated.data)):
                router._decode(buffer)
            assert decoder.call_count == 4
        assert network.interned == kept

    def test_a_detached_router_decodes_plainly(self):
        router = BGPRouter(RouterConfig(
            name="r", local_as=65001, router_id=IPv4Address("9.9.9.9"),
        ))
        data = KeepaliveMessage().encode()
        assert router._decode(data) is not router._decode(data)


class TestAttributeCache:
    def test_equal_concrete_sets_become_one_object(self):
        network, router = attached_router()
        first = PathAttributes(next_hop=IPv4Address("10.0.0.1"), med=5,
                               communities=(65001 << 16 | 7,))
        again = first.replace()
        assert again is not first
        assert router._canonical(first) is first
        assert router._canonical(again) is first
        assert network.interned[first.key()] is first

    @pytest.mark.parametrize("field", ["origin", "med", "local_pref",
                                       "communities"])
    def test_a_symbolic_set_passes_through_and_is_never_kept(self, field):
        network, router = attached_router()
        concrete = PathAttributes(next_hop=IPv4Address("10.0.0.1"),
                                  med=0, local_pref=0, communities=(0,))
        router._canonical(concrete)
        size = len(network.interned)
        shadow = SymInt(Var("x", 0, 255), 0)
        symbolic = concrete.replace(
            **{field: (shadow,) if field == "communities" else shadow}
        )
        # Equal by (concretized) key, so a lookup *would* alias them.
        assert symbolic == concrete
        assert router._canonical(symbolic) is symbolic
        assert len(network.interned) == size
        assert router._canonical(concrete.replace()) is concrete

    def test_a_kept_set_holds_the_network_s_one_path(self):
        network, router = attached_router()
        first = PathAttributes(as_path=AsPath.from_sequence(65002, 65003),
                               med=1)
        other = PathAttributes(as_path=AsPath.from_sequence(65002, 65003),
                               med=2)
        assert router._canonical(first) is first
        assert network.interned[first.as_path] is first.as_path
        kept = router._canonical(other)
        assert kept is not other and kept == other
        assert kept.as_path is first.as_path
        assert router._canonical(other.replace()) is kept

    def test_a_kept_set_holds_the_network_s_one_next_hop(self):
        network, router = attached_router()
        first = PathAttributes(next_hop=IPv4Address("10.0.0.1"), med=1)
        other = PathAttributes(next_hop=IPv4Address("10.0.0.1"), med=2)
        assert router._canonical(first) is first
        assert network.interned[first.next_hop] is first.next_hop
        kept = router._canonical(other)
        assert kept is not other and kept == other
        assert kept.next_hop is first.next_hop
        assert kept.key() is other.key()  # taken, not derived again
        assert router._canonical(other.replace()) is kept

    def test_overflow_drops_the_table_and_costs_only_identity(self):
        network, router = attached_router(limit=4)
        hop = IPv4Address("10.0.0.1")
        sets = [PathAttributes(next_hop=hop, med=med) for med in range(10)]
        for attrs in sets:
            assert router._canonical(attrs) is attrs
            assert len(network.interned) <= 4
        # sets[0] was dropped: an equal set now stands for itself.
        again = sets[0].replace()
        assert router._canonical(again) is again
        assert again == sets[0]

    def test_a_detached_router_keeps_nothing(self):
        router = BGPRouter(RouterConfig(
            name="r", local_as=65001, router_id=IPv4Address("9.9.9.9"),
            networks=(Prefix("10.0.0.0/8"),),
        ))
        first = router._static_route(Prefix("10.0.0.0/8"))
        again = router._static_route(Prefix("10.0.0.0/8"))
        assert first.attributes == again.attributes
        assert first.attributes is not again.attributes


class TestPrefixes:
    def test_every_route_holds_the_network_s_one_prefix(self):
        network, router = attached_router()
        attrs = PathAttributes(next_hop=IPv4Address("10.0.0.1"))
        first = router._build_route("p", Prefix("10.1.0.0/16"), attrs)
        again = router._build_route("p", Prefix("10.1.0.0/16"), attrs)
        assert again.prefix is first.prefix
        assert router._static_route(Prefix("10.1.0.0/16")).prefix is first.prefix
        assert network.interned[first.prefix] is first.prefix

    def test_a_converged_system_holds_one_object_per_value(self):
        live = quickstart_system(seed=3)
        live.converge()
        prefixes, paths = {}, {}
        for router in live.routers():
            routes = list(router.loc_rib.routes()) + [
                route for rib in router.adj_rib_in.values()
                for route in rib.routes()
            ]
            for route in routes:
                prefixes[id(route.prefix)] = route.prefix
                paths[id(route.attributes.as_path)] = route.attributes.as_path
        assert len(prefixes) == len(set(prefixes.values())) > 1
        assert len(paths) == len(set(paths.values())) > 1

    def test_next_hops_and_peer_ids_are_one_object_per_address(self):
        live = quickstart_system(seed=3)
        live.converge()
        addresses = {}
        for router in live.routers():
            for session in router.sessions.values():
                addresses[id(session.peer_bgp_id)] = session.peer_bgp_id
            for rib in router.adj_rib_in.values():
                for route in rib.routes():
                    hop = route.attributes.next_hop
                    addresses[id(hop)] = hop
                    addresses[id(route.peer_bgp_id)] = route.peer_bgp_id
        assert len(addresses) == len(set(addresses.values())) > 1


class TestEncodingCache:
    """A network encodes each distinct concrete UPDATE once: every peer
    offered it is sent the same ``bytes``, which the delivery memo then
    hashes once."""

    @staticmethod
    def sending_router():
        network, router = attached_router()
        sent = []
        router.send = lambda dst, payload: sent.append(payload)
        return network, router, sent

    @pytest.mark.parametrize("build", [
        lambda: UpdateMessage(
            attributes=PathAttributes(next_hop=IPv4Address("10.0.0.1"),
                                      med=5),
            nlri=(Prefix("10.1.0.0/16"), Prefix("10.2.0.0/16")),
        ),
        lambda: UpdateMessage(withdrawn=(Prefix("10.1.0.0/16"),)),
    ], ids=["announce", "withdraw"])
    def test_equal_updates_are_encoded_once(self, build):
        network, router, sent = self.sending_router()
        with mock.patch.object(UpdateMessage, "encode", autospec=True,
                               side_effect=BGPMessage.encode) as encode:
            router.send_message("p", build())
            router.send_message("p", build())
            assert encode.call_count == 1
        assert sent[0] == build().encode()
        assert sent[1] is sent[0]

    def test_a_symbolic_update_is_encoded_every_time_and_never_kept(self):
        network, router, sent = self.sending_router()
        shadow = SymInt(Var("x", 0, 255), 5)
        attributes = PathAttributes(next_hop=IPv4Address("10.0.0.1"),
                                    med=shadow)
        for _ in range(2):
            router.send_message("p", UpdateMessage(
                attributes=attributes, nlri=(Prefix("10.1.0.0/16"),)
            ))
        assert sent[0] == sent[1]
        assert sent[1] is not sent[0]
        assert not network.interned

    def test_peers_offered_one_update_share_its_bytes(self):
        live = quickstart_system(seed=5)
        live.converge()
        delivered = []

        def observe(src, dst, payload):
            delivered.append((src, dst, payload))
            return False

        live.network.add_interceptor(observe)
        prefix = Prefix("10.9.0.0/16")
        live.apply_change("r2", AddNetwork(prefix))
        live.run(until=live.network.sim.now + 5)
        offers = [
            (dst, payload) for src, dst, payload in delivered
            if src == "r2" and payload[18] == messages.TYPE_UPDATE
            and prefix in decode_message(payload).nlri
        ]
        assert sorted(dst for dst, _ in offers) == ["r1", "r3"]
        assert offers[0][1] is offers[1][1]


class TestDeliveredMessagesAreReadOnly:
    """Every receiver of the same bytes holds the same message object,
    so a handler that wrote to one would write to all of them."""

    def test_messages_have_no_dict_to_grow(self):
        for message in (OpenMessage(65001, 90, IPv4Address(1)),
                        UpdateMessage(), NotificationMessage(6),
                        KeepaliveMessage()):
            assert not hasattr(message, "__dict__")
            with pytest.raises(AttributeError):
                message.scratch = 1

    def test_no_handler_assigns_to_a_message(self, monkeypatch):
        """Write-once slots for the length of a scenario that runs all
        four handlers: a second store to any message field is recorded
        (``handle_raw`` would otherwise report it as a router crash)."""
        rewrites = []

        def write_once(self, name, value):
            if hasattr(self, name):
                rewrites.append((type(self).__name__, name))
            object.__setattr__(self, name, value)

        monkeypatch.setattr(BGPMessage, "__setattr__", write_once)
        probe = object.__new__(UpdateMessage)
        probe.nlri = ()
        probe.nlri = ()
        assert rewrites == [("UpdateMessage", "nlri")]  # the guard works
        rewrites.clear()

        live = quickstart_system(seed=5)
        live.converge()
        live.apply_change("r3", AddNetwork(Prefix("10.9.0.0/16")))
        live.run(until=live.network.sim.now + 5)
        live.apply_change("r3", RemoveNetwork(Prefix("10.9.0.0/16")))
        live.run(until=live.network.sim.now + 5)
        # A malformed UPDATE: NOTIFICATION, reset, re-OPEN, full table.
        live.router("r2").handle_raw(
            "r1", messages.MARKER + b"\x00\x17\x02" + b"\x00\x05\x00\x00"
        )
        live.run(until=live.network.sim.now + 10)
        stats = [s.stats for r in live.routers() for s in r.sessions.values()]
        for counter in ("opens_received", "updates_received",
                        "keepalives_received", "notifications_received"):
            assert sum(getattr(s, counter) for s in stats) > 0, counter
        assert all(r.crash_count == 0 for r in live.routers())
        assert rewrites == []


class _Forged:
    """Pickles as a call of ``callee(*args)``: what a leaf's positional
    ``__reduce__`` writes, with arguments of the test's choosing."""

    def __init__(self, callee, args):
        self.callee, self.args = callee, args

    def __reduce__(self):
        return (self.callee, self.args)


PROTOCOLS = range(2, pickle.HIGHEST_PROTOCOL + 1)


class TestLeavesPickleAsTheirFields:
    ATTRS = PathAttributes(
        origin=2, as_path=AsPath.from_sequence(65002, 65003),
        next_hop=IPv4Address("10.0.0.1"), med=7, local_pref=120,
        atomic_aggregate=True, aggregator=(65003, IPv4Address("10.0.0.3")),
        communities=(65001 << 16 | 7, 0xFFFFFF01),
        unknown=((0xC0, 99, b"\x01\x02"),),
    )
    ROUTE = Route(
        prefix=Prefix("10.3.0.0/16"), attributes=ATTRS, source=SOURCE_EBGP,
        peer="p", peer_as=65002, peer_bgp_id=IPv4Address("172.16.0.2"),
        received_at=1.25,
    )

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_round_trip_is_equal_field_for_field(self, protocol):
        restored = pickle.loads(pickle.dumps(self.ROUTE, protocol))
        assert restored == self.ROUTE
        for name in Route.__slots__:
            value, mine = getattr(self.ROUTE, name), getattr(restored, name)
            assert type(mine) is type(value), name
            assert fields(mine) == fields(value), name
        assert restored.attributes.key() == self.ATTRS.key()
        assert hash(restored.attributes) == hash(self.ATTRS)
        assert restored.attributes.encode() == self.ATTRS.encode()

    def test_a_pickle_is_smaller_than_the_state_dicts_it_replaced(self):
        """The field names and a dict per object are gone: 275 bytes
        for this route, 570 when each leaf pickled as a state dict."""
        assert len(pickle.dumps(self.ROUTE)) < 400

    @pytest.mark.parametrize("callee, args", [
        (IPv4Address, (1 << 32,)),
        (IPv4Address, (b"\x7f\x00\x00\x01",)),
        (Prefix, (0x0A000001, 8)),          # host bits set
        (Prefix, (0x0A000000, 33)),
        (AsPath, (((3, (65001,)),),)),       # unknown segment type
        (AsPath, (((2, ()),),)),             # empty segment
        (PathAttributes, ("igp",)),
        (Route, (Prefix("10.0.0.0/8"), ATTRS, "bogus", None, None, None, 0.0)),
    ])
    def test_unpickling_rejects_what_the_constructor_rejects(self, callee, args):
        with pytest.raises((ValueError, TypeError)):
            callee(*args)
        with pytest.raises((ValueError, TypeError)):
            pickle.loads(pickle.dumps(_Forged(callee, args)))
