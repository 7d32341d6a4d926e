"""Tests for the network container."""

import pytest

from repro.net.link import LinkProfile
from repro.net.network import Network
from repro.net.node import Process


class Echo(Process):
    """Collects deliveries; replies when asked."""

    def __init__(self, name, reply=False):
        super().__init__(name)
        self.inbox = []
        self.reply = reply
        self.started = 0

    def start(self):
        self.started += 1

    def on_message(self, src, payload):
        self.inbox.append((src, payload))
        if self.reply:
            self.send(src, f"ack:{payload}")


def two_node_net(seed=0):
    net = Network(seed=seed)
    a = net.add_process(Echo("a"))
    b = net.add_process(Echo("b", reply=True))
    net.add_link("a", "b", LinkProfile(latency_s=0.1))
    return net, a, b


class TestConstruction:
    def test_duplicate_process_rejected(self):
        net = Network()
        net.add_process(Echo("a"))
        with pytest.raises(ValueError):
            net.add_process(Echo("a"))

    def test_link_requires_known_processes(self):
        net = Network()
        net.add_process(Echo("a"))
        with pytest.raises(KeyError):
            net.add_link("a", "ghost")

    def test_duplicate_link_rejected(self):
        net, _, _ = two_node_net()
        with pytest.raises(ValueError):
            net.add_link("b", "a")

    def test_neighbors_sorted(self):
        net = Network()
        for name in ("c", "a", "b"):
            net.add_process(Echo(name))
        net.add_link("b", "c")
        net.add_link("b", "a")
        assert net.neighbors("b") == ["a", "c"]

    def test_start_hooks_run_once(self):
        net, a, _ = two_node_net()
        net.run()
        net.run()
        assert a.started == 1

    def test_start_silently_skips_hooks(self):
        net = Network()
        a = net.add_process(Echo("a"))
        net.start_silently()
        net.run()
        assert a.started == 0


class TestTransport:
    def test_delivery_with_latency(self):
        net, _, b = two_node_net()
        net.start()
        net.transmit("a", "b", "hello")
        net.run()
        assert b.inbox == [("a", "hello")]
        # b replied, so the final event is the ack at 2x the latency.
        assert net.sim.now == pytest.approx(0.2)

    def test_reply_roundtrip(self):
        net, a, _ = two_node_net()
        net.start()
        net.transmit("a", "b", "ping")
        net.run()
        assert a.inbox == [("b", "ack:ping")]

    def test_transmit_without_link_raises(self):
        net = Network()
        net.add_process(Echo("a"))
        net.add_process(Echo("c"))
        with pytest.raises(KeyError):
            net.transmit("a", "c", "x")

    def test_inject_bypasses_links(self):
        net = Network()
        b = net.add_process(Echo("b"))
        net.start()
        net.inject("phantom", "b", "spoofed", delay=0.5)
        net.run()
        assert b.inbox == [("phantom", "spoofed")]

    def test_both_directions_draw_from_the_links_named_stream(self):
        net = Network(seed=3)
        net.add_process(Echo("a"))
        net.add_process(Echo("b"))
        link = net.add_link("b", "a", LinkProfile(loss=0.5))
        assert net.link_between("a", "b") is link
        assert net.link_between("b", "a") is link
        assert list(net.links()) == [link]
        assert net.link_between("a", "ghost") is None
        net.start()
        sent = [net.transmit(src, dst, i)
                for i, (src, dst) in enumerate([("a", "b"), ("b", "a")] * 20)]
        reference = Network(seed=3).sim.random.stream("link/a/b")
        assert sent == [reference.random() >= 0.5 for _ in sent]

    def test_loss_reported_by_transmit(self):
        net = Network(seed=1)
        net.add_process(Echo("a"))
        net.add_process(Echo("b"))
        net.add_link("a", "b", LinkProfile(loss=0.99))
        net.start()
        results = [net.transmit("a", "b", i) for i in range(50)]
        assert not all(results)


def observed_net():
    """Two-node network with a delivery tap: an interceptor that
    records each delivery and returns False."""
    net, a, b = two_node_net()
    seen = []

    def observe(src, dst, payload):
        seen.append((src, dst, payload))
        return False

    net.add_interceptor(observe)
    return net, a, b, seen


class TestObservation:
    def test_delivery_tap_sees_payload(self):
        net, _, _, seen = observed_net()
        net.start()
        net.transmit("a", "b", "x")
        net.run()
        assert seen == [("a", "b", "x"), ("b", "a", "ack:x")]

    def test_interceptor_returning_false_lets_message_through(self):
        net, a, b, seen = observed_net()
        net.start()
        net.transmit("a", "b", "x")
        net.run()
        assert seen
        assert b.inbox == [("a", "x")]
        assert a.inbox == [("b", "ack:x")]

    def test_interceptor_consumes(self):
        net, _, b = two_node_net()
        net.add_interceptor(lambda s, d, p: p == "secret")
        net.start()
        net.transmit("a", "b", "secret")
        net.transmit("a", "b", "public")
        net.run()
        assert b.inbox == [("a", "public")]

    def test_interceptor_removal(self):
        net, _, b = two_node_net()
        interceptor = lambda s, d, p: True  # noqa: E731
        net.add_interceptor(interceptor)
        net.remove_interceptor(interceptor)
        net.start()
        net.transmit("a", "b", "x")
        net.run()
        assert b.inbox == [("a", "x")]

    def test_in_flight_lists_scheduled_messages(self):
        net, _, _ = two_node_net()
        net.start()
        net.transmit("a", "b", "x")
        in_flight = net.in_flight()
        assert len(in_flight) == 1
        assert in_flight[0].src == "a"
        assert in_flight[0].payload == "x"
        net.run()
        assert net.in_flight() == []

    def test_quiescent(self):
        net, _, _ = two_node_net()
        net.start()
        assert net.quiescent()
        net.transmit("a", "b", "x")
        assert not net.quiescent()


class TestTimers:
    def test_timer_fires(self):
        class Timed(Process):
            def __init__(self):
                super().__init__("t")
                self.fired = []

            def on_timer(self, name):
                self.fired.append((name, self.now))

        net = Network()
        node = net.add_process(Timed())
        net.start()
        node.set_timer("x", 2.0)
        net.run()
        assert node.fired == [("x", 2.0)]

    def test_timer_rearm_replaces(self):
        class Timed(Process):
            def __init__(self):
                super().__init__("t")
                self.fired = 0

            def on_timer(self, name):
                self.fired += 1

        net = Network()
        node = net.add_process(Timed())
        net.start()
        node.set_timer("x", 1.0)
        node.set_timer("x", 2.0)
        net.run()
        assert node.fired == 1
        assert net.sim.now == pytest.approx(2.0)

    def test_cancel_timer(self):
        class Timed(Process):
            def __init__(self):
                super().__init__("t")
                self.fired = 0

            def on_timer(self, name):
                self.fired += 1

        net = Network()
        node = net.add_process(Timed())
        net.start()
        node.set_timer("x", 1.0)
        assert node.timer_armed("x")
        node.cancel_timer("x")
        assert not node.timer_armed("x")
        net.run()
        assert node.fired == 0

    def test_timer_state_exported(self):
        class Timed(Process):
            def on_timer(self, name):
                pass

        net = Network()
        node = net.add_process(Timed("t"))
        net.start()
        node.set_timer("x", 5.0)
        net.run(until=2.0)
        state = node.export_state()
        assert state["timers"]["x"] == pytest.approx(3.0)


class TestInterned:
    def test_one_object_per_key_until_the_bound_drops_the_table(self):
        net = Network()
        net.INTERN_LIMIT = 3
        values = [object() for _ in range(4)]
        for key, value in enumerate(values[:3]):
            assert net.intern(key, value) is value
        assert [net.interned.get(key) for key in range(3)] == values[:3]
        assert net.intern(3, values[3]) is values[3]  # overflow
        assert net.interned == {3: values[3]}


class TestClose:
    def test_closed_network_is_empty_and_detached(self):
        net, a, b = two_node_net()
        net.intern("key", "value")
        net.add_interceptor(lambda src, dst, payload: False)
        net.start()
        a.send("b", "in flight")
        a.set_timer("t", 1.0)
        assert not net.quiescent()
        net.close()
        assert net.processes == {}
        assert list(net.links()) == []
        assert net.in_flight() == []
        assert net.interned == {}
        assert net.quiescent()
        assert net.run(until=5.0) == 5.0  # nothing left to deliver
        assert b.inbox == []
        assert a.network is None and b.network is None
        assert not a.timer_armed("t")
