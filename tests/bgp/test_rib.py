"""Tests for the three RIBs."""

import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.bgp import rib as rib_module
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.rib import AdjRibIn, AdjRibOut, LocRib, RibChange
from repro.bgp.route import SOURCE_EBGP, Route

P1 = Prefix("10.1.0.0/16")
P2 = Prefix("10.2.0.0/16")


def route(prefix=P1, peer="p1", local_pref=None, asns=(65001,)):
    return Route(
        prefix=prefix,
        attributes=PathAttributes(
            as_path=AsPath.from_sequence(*asns),
            next_hop=IPv4Address("10.0.0.1"),
            local_pref=local_pref,
        ),
        source=SOURCE_EBGP,
        peer=peer,
        peer_as=asns[0],
    )


class TestRibChange:
    def test_equality_and_hash_are_the_fields(self):
        change = RibChange(1.0, P1, None, route())
        again = RibChange(1.0, P1, None, route())
        assert change == again and hash(change) == hash(again)
        assert hash(change) == hash((1.0, P1, None, change.new))
        assert change != RibChange(2.0, P1, None, route())
        assert change != RibChange(1.0, P1, route(), route())

    def test_pickles_positionally(self):
        change = RibChange(1.0, P1, route(), None)
        assert change.__reduce__() == (RibChange, (1.0, P1, change.old, None))
        assert pickle.loads(pickle.dumps(change)) == change
        assert change.kind == "withdraw"


class TestAdjRibIn:
    def test_update_returns_previous(self):
        rib = AdjRibIn("p1")
        first = route()
        second = route(local_pref=50)
        assert rib.update(first) is None
        assert rib.update(second) is first
        assert rib.get(P1) is second

    def test_withdraw(self):
        rib = AdjRibIn("p1")
        entry = route()
        rib.update(entry)
        assert rib.withdraw(P1) is entry
        assert rib.withdraw(P1) is None
        assert len(rib) == 0

    def test_clear_returns_prefixes(self):
        rib = AdjRibIn("p1")
        rib.update(route(P1))
        rib.update(route(P2))
        assert sorted(rib.clear()) == [P1, P2]
        assert len(rib) == 0

    def test_routes_iteration(self):
        rib = AdjRibIn("p1")
        rib.update(route(P1))
        rib.update(route(P2))
        assert {r.prefix for r in rib.routes()} == {P1, P2}


class TestLocRib:
    def test_set_and_get(self):
        rib = LocRib()
        entry = route()
        change = rib.set(1.0, P1, entry)
        assert change.kind == "advertise"
        assert rib.get(P1) is entry
        assert len(rib) == 1

    def test_idempotent_set_returns_none(self):
        rib = LocRib()
        entry = route()
        rib.set(1.0, P1, entry)
        assert rib.set(2.0, P1, entry) is None
        assert rib.changes_total == 1

    def test_equal_route_does_not_journal(self):
        rib = LocRib()
        rib.set(1.0, P1, route())
        assert rib.set(2.0, P1, route()) is None

    def test_replace_journalled(self):
        rib = LocRib()
        rib.set(1.0, P1, route())
        change = rib.set(2.0, P1, route(local_pref=200))
        assert change.kind == "replace"
        assert rib.changes_total == 2

    def test_withdraw_journalled(self):
        rib = LocRib()
        rib.set(1.0, P1, route())
        change = rib.set(2.0, P1, None)
        assert change.kind == "withdraw"
        assert rib.get(P1) is None

    def test_withdraw_absent_is_noop(self):
        rib = LocRib()
        assert rib.set(1.0, P1, None) is None

    def test_journal_filtering(self):
        rib = LocRib()
        rib.set(1.0, P1, route(P1))
        rib.set(2.0, P2, route(P2))
        rib.set(3.0, P1, None)
        assert len(rib.changes_for(P1)) == 2
        assert len(rib.changes_for(P2)) == 1

    def test_journal_capacity_keeps_most_recent(self, monkeypatch):
        monkeypatch.setattr(rib_module, "JOURNAL_CAPACITY", 3)
        rib = LocRib()
        for index in range(10):
            pref = 100 + index
            rib.set(float(index), P1, route(local_pref=pref))
        journal = rib.journal()
        assert len(journal) == 3
        # Ring buffer: the latest changes survive eviction.
        assert journal[-1].time == 9.0
        assert rib.changes_total == 10


def _prefix(bits, length):
    return Prefix((bits << (32 - length)) & 0xFFFFFFFF if length else 0, length)


# Short prefixes collide often, so one run sets, replaces and removes
# the same keys and nests them; the long ones spread across the space.
PREFIXES = st.one_of(
    st.builds(_prefix, st.integers(0, 31), st.integers(0, 5)),
    st.builds(_prefix, st.integers(0, 2**32 - 1), st.integers(0, 32)),
)
# None withdraws; equal numbers make equal (but distinct) routes.
MUTATIONS = st.lists(
    st.tuples(PREFIXES, st.none() | st.integers(1, 3)), max_size=40
)


class TestLocRibAgainstTrieAndDict:
    """The dict-backed Loc-RIB against the structures it replaced: a
    binary trie's pre-order for iteration, which is the keys sorted by
    ``(network, length)``, and a plain dict for everything else."""

    @given(MUTATIONS)
    def test_interleaved_set_and_withdraw(self, mutations):
        rib = LocRib()
        model = {}
        changes = []
        for step, (prefix, pref) in enumerate(mutations):
            new = None if pref is None else route(prefix, local_pref=pref)
            old = model.get(prefix)
            change = rib.set(float(step), prefix, new)
            if old == new:
                assert change is None
            else:
                assert change == RibChange(float(step), prefix, old, new)
                assert change.old is old and change.new is new
                changes.append(change)
                if new is None:
                    del model[prefix]
                else:
                    model[prefix] = new
            # the plain-dict model
            assert len(rib) == len(model)
            assert rib.get(prefix) is model.get(prefix)
            assert rib.changes_total == len(changes)
            assert rib.journal() == changes
            # iteration order is the trie's pre-order
            expected = sorted(model)
            assert list(rib.prefixes()) == expected
            listed = list(rib.routes())
            assert len(listed) == len(expected)
            assert all(a is model[p] for a, p in zip(listed, expected))
            assert [r.prefix for r in listed] == expected

    @given(st.lists(PREFIXES, max_size=20, unique=True))
    def test_initial_routes_are_not_changes(self, prefixes):
        routes = [route(prefix) for prefix in prefixes]
        rib = LocRib(routes=routes)
        assert rib.journal() == [] and rib.changes_total == 0
        assert len(rib) == len(routes)
        assert all(rib.get(r.prefix) is r for r in routes)
        # in prefix order whatever order they were handed over in
        assert list(rib.prefixes()) == sorted(prefixes)
        assert [r.prefix for r in rib.routes()] == sorted(prefixes)


class TestInitialContents:
    def test_adj_rib_in_starts_with_routes(self):
        first, second = route(P1), route(P2)
        rib = AdjRibIn("p1", [first, second])
        assert rib.peer == "p1"
        assert list(rib.routes()) == [first, second]
        assert rib.get(P2) is second

    def test_adj_rib_out_starts_with_routes(self):
        first, second = route(P1), route(P2)
        sent = {P1: first.attributes, P2: second.attributes}
        rib = AdjRibOut("p1", sent)
        assert rib.sent() == sent
        assert list(rib.prefixes()) == [P1, P2]
        assert rib.advertised(P2) is second.attributes
        # an initial entry suppresses its duplicate like an announced one
        assert not rib.record_announce(P1, route(P1).attributes)
        # the map it started from is copied, never written
        rib.record_withdraw(P2)
        assert sent == {P1: first.attributes, P2: second.attributes}


class TestAdjRibOut:
    def test_duplicate_announce_suppressed(self):
        rib = AdjRibOut("p1")
        assert rib.record_announce(P1, route().attributes) is True
        assert rib.record_announce(P1, route().attributes) is False

    def test_changed_attributes_reannounced(self):
        rib = AdjRibOut("p1")
        rib.record_announce(P1, route().attributes)
        changed = route(local_pref=200).attributes
        assert rib.record_announce(P1, changed) is True
        assert rib.advertised(P1) is changed

    def test_withdraw_only_when_advertised(self):
        rib = AdjRibOut("p1")
        assert rib.record_withdraw(P1) is False
        rib.record_announce(P1, route().attributes)
        assert rib.record_withdraw(P1) is True
        assert rib.record_withdraw(P1) is False

    def test_clear(self):
        rib = AdjRibOut("p1")
        rib.record_announce(P1, route().attributes)
        rib.clear()
        assert len(rib) == 0
        assert rib.record_withdraw(P1) is False

    def test_an_announcement_rekeys_its_prefix(self):
        """The key is the prefix object last announced — the Loc-RIB
        route's own — whether the attributes changed or not, so a
        pickled map shares it with the Loc-RIB; a duplicate keeps the
        attribute object first sent."""
        first = route().attributes
        rib = AdjRibOut("p1")
        rib.record_announce(P1, first)
        again = Prefix("10.1.0.0/16")
        assert rib.record_announce(again, route().attributes) is False
        (key,) = rib.sent()
        assert key is again
        assert rib.advertised(P1) is first
        changed = Prefix("10.1.0.0/16")
        assert rib.record_announce(changed, route(local_pref=7).attributes)
        (key,) = rib.sent()
        assert key is changed

    def test_sent_is_a_copy(self):
        rib = AdjRibOut("p1")
        rib.record_announce(P1, route().attributes)
        sent = rib.sent()
        rib.record_withdraw(P1)
        assert sent == {P1: route().attributes}
