"""Tests for the three RIBs."""

import pickle

from hypothesis import given
from hypothesis import strategies as st
from test_ip import naive_longest_match

from repro.bgp import rib as rib_module
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.ip import IPv4Address, Prefix, PrefixTrie
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

    def test_the_shadows_of_its_routes_do_not_count(self):
        change = RibChange(1.0, P1, None, route())
        shadowed = RibChange(1.0, P1, None, route().replace(sym={"med": 1}))
        assert change == shadowed and hash(change) == hash(shadowed)

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

    def test_longest_prefix_lookup(self):
        rib = LocRib()
        short = route(Prefix("10.0.0.0/8"))
        long = route(P1, peer="p2")
        rib.set(1.0, Prefix("10.0.0.0/8"), short)
        rib.set(1.0, P1, long)
        assert rib.lookup(IPv4Address("10.1.2.3")) is long
        assert rib.lookup(IPv4Address("10.5.0.1")) is short
        assert rib.lookup(IPv4Address("11.0.0.1")) is None

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

    def test_recent_changes(self):
        rib = LocRib()
        for index in range(5):
            rib.set(float(index), P1, route(local_pref=100 + index))
        recent = rib.recent_changes(2)
        assert [change.time for change in recent] == [3.0, 4.0]
        assert rib.recent_changes(0) == []
        assert len(rib.recent_changes(99)) == 5


def _prefix(bits, length):
    return Prefix((bits << (32 - length)) & 0xFFFFFFFF if length else 0, length)


# Short prefixes collide often, so one run sets, replaces and removes
# the same keys and nests them; the long ones reach the deep trie.
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
    ``PrefixTrie`` for iteration order, a brute-force scan for longest
    match, a plain dict for everything else."""

    @given(MUTATIONS, st.lists(st.integers(0, 2**32 - 1), max_size=5))
    def test_interleaved_set_and_withdraw(self, mutations, addresses):
        rib = LocRib()
        trie = PrefixTrie()
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
                    trie.remove(prefix)
                else:
                    model[prefix] = new
                    trie.insert(prefix, new)
            # (c) the plain-dict model
            assert len(rib) == len(model)
            assert rib.get(prefix) is model.get(prefix)
            assert rib.changes_total == len(changes)
            assert rib.journal() == changes
            # (a) iteration order is the trie's
            expected = list(trie.items())
            assert list(rib.prefixes()) == [p for p, _ in expected]
            listed = list(rib.routes())
            assert len(listed) == len(expected)
            assert all(a is b for a, (_, b) in zip(listed, expected))
            assert [r.prefix for r in listed] == [p for p, _ in expected]
            # (b) the lazy index is never stale: look up after every
            # mutation, at the drawn addresses and inside this prefix
            for value in [*addresses, prefix.network]:
                address = IPv4Address(value)
                hit = naive_longest_match(model, address)
                assert rib.lookup(address) is (None if hit is None else hit[1])

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
        for prefix in prefixes:
            hit = naive_longest_match(dict(zip(prefixes, routes)),
                                      prefix.address)
            assert rib.lookup(prefix.address) is hit[1]


class TestInitialContents:
    def test_adj_rib_in_starts_with_routes(self):
        first, second = route(P1), route(P2)
        rib = AdjRibIn("p1", [first, second])
        assert rib.peer == "p1"
        assert list(rib.routes()) == [first, second]
        assert rib.get(P2) is second

    def test_adj_rib_out_starts_with_routes(self):
        first, second = route(P1), route(P2)
        rib = AdjRibOut("p1", [first, second])
        assert list(rib.routes()) == [first, second]
        assert rib.advertised(P2) is second
        # an initial route suppresses its duplicate like an announced one
        assert not rib.record_announce(route(P1))


class TestAdjRibOut:
    def test_duplicate_announce_suppressed(self):
        rib = AdjRibOut("p1")
        assert rib.record_announce(route()) is True
        assert rib.record_announce(route()) is False

    def test_changed_attributes_reannounced(self):
        rib = AdjRibOut("p1")
        rib.record_announce(route())
        assert rib.record_announce(route(local_pref=200)) is True

    def test_withdraw_only_when_advertised(self):
        rib = AdjRibOut("p1")
        assert rib.record_withdraw(P1) is False
        rib.record_announce(route())
        assert rib.record_withdraw(P1) is True
        assert rib.record_withdraw(P1) is False

    def test_clear(self):
        rib = AdjRibOut("p1")
        rib.record_announce(route())
        rib.clear()
        assert len(rib) == 0
        assert rib.record_withdraw(P1) is False
