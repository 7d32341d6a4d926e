"""A task payload pickles a capture's RIBs once while they do not change,
and a worker decodes them once (``core/payload.py``).

The payload must decode to the snapshot ``pickle.loads(pickle.dumps())``
gives, state for state, whatever the live system did between captures;
its RIB block must be pickled again exactly when some router's config
or RIBs changed; and the worker's memo must change no outcome: the
block it holds still equals a fresh decode after tasks ran, and a
worker that decodes every block afresh gives the same campaign.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from campaign_helpers import campaign_fingerprint, faulty_live
from repro import quickstart_system
from repro.bgp.config import AddFilter, AddNetwork, RemoveNetwork
from repro.bgp.ip import Prefix
from repro.bgp.policy import Filter
from repro.bgp.route import Route
from repro.checks import default_property_suite
from repro.core import payload
from repro.core.orchestrator import DiceOrchestrator, OrchestratorConfig
from repro.core.payload import RIB_FIELDS, SnapshotEncoder, decode_snapshot

FLAP_PREFIX = Prefix("10.200.0.0/16")


def exact(route):
    """Every field of ``route``, with its type."""
    return tuple(
        (name, type(getattr(route, name)), repr(getattr(route, name)))
        for name in Route.__slots__
    )


def rib_values(state):
    """A state's config and RIBs as values: a config's filters compare
    by identity, so it goes pickled; routes go field for field."""
    return (
        pickle.dumps(state["config"]),
        [exact(route) for route in state["loc_rib"]],
        {peer: [exact(route) for route in routes]
         for peer, routes in state["adj_rib_in"].items()},
        {peer: [(prefix, attributes.key())
                for prefix, attributes in sent.items()]
         for peer, sent in state["adj_rib_out"].items()},
    )


def shared_routes(state):
    """(peer, prefix) of each Loc-RIB route that is its peer's
    Adj-RIB-In route object."""
    held = {
        (peer, route.prefix): route
        for peer, routes in state["adj_rib_in"].items()
        for route in routes
    }
    return {
        (route.peer, route.prefix) for route in state["loc_rib"]
        if held.get((route.peer, route.prefix)) is route
    }


def assert_same_states(decoded, reference):
    """``decoded`` and ``reference`` hold equal states, in one key order
    and of one type, routes field for field, with the same Loc-RIB and
    Adj-RIB-In routes one object."""
    assert list(decoded.checkpoints) == list(reference.checkpoints)
    for name, checkpoint in reference.checkpoints.items():
        state, got = checkpoint.state, decoded.checkpoints[name].state
        assert type(got) is type(state), name
        assert list(got) == list(state), name
        assert ({**got, "config": None} == {**state, "config": None}), name
        assert rib_values(got) == rib_values(state), name
        assert shared_routes(got) == shared_routes(state), name
        got_checkpoint = decoded.checkpoints[name]
        assert (got_checkpoint.node, got_checkpoint.taken_at) == (
            checkpoint.node, checkpoint.taken_at)
    for field in ("snapshot_id", "initiator", "taken_at", "completed_at",
                  "channels"):
        assert getattr(decoded, field) == getattr(reference, field), field
    assert pickle.dumps(decoded.links) == pickle.dumps(reference.links)


def ribs_of(snapshot):
    return {
        name: rib_values(checkpoint.state)
        for name, checkpoint in snapshot.checkpoints.items()
    }


def act(live, action):
    """Change the live system one way, or not at all, and let it run."""
    if action == "flap":
        # What LiveSystem.enable_churn does at each flip.
        networks = live.router("r3").config.networks
        live.apply_change(
            "r3",
            RemoveNetwork(FLAP_PREFIX) if FLAP_PREFIX in networks
            else AddNetwork(FLAP_PREFIX),
        )
    elif action == "config":
        # A filter nothing uses: the config changes, the RIBs do not.
        count = len(live.router("r2").config.filters)
        live.apply_change(
            "r2",
            AddFilter(Filter.compile(f"filter unused{count} {{ accept; }}")),
        )
    elif action == "reset":
        # A bad marker: r2 answers with a NOTIFICATION and resets.
        live.network.inject("r3", "r2", b"\xff" * 16 + b"\x00\x13\x09")
    live.run(until=live.network.sim.now + 60)


ACTIONS = st.sampled_from(["none", "flap", "config", "reset"])


class TestPayloadRoundTrip:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(actions=st.lists(ACTIONS, min_size=1, max_size=4),
           initiators=st.lists(st.sampled_from(["r1", "r2", "r3"]),
                               min_size=5, max_size=5))
    def test_decodes_as_a_pickle_and_reuses_exactly_unchanged_ribs(
            self, actions, initiators):
        live = quickstart_system(seed=0)
        live.converge()
        encoder = SnapshotEncoder()
        previous = None
        for index, action in enumerate(["none", *actions]):
            if index:
                act(live, action)
            snapshot = live.coordinator.capture(initiators[index])
            pickled = encoder.blocks_pickled
            decoded = decode_snapshot(encoder(snapshot))
            assert_same_states(decoded, pickle.loads(pickle.dumps(snapshot)))
            ribs = ribs_of(snapshot)
            reused = encoder.blocks_pickled == pickled
            assert reused == (previous is not None and ribs == previous)
            assert reused == (index > 0 and action == "none"), action
            previous = ribs

    def test_a_reused_block_decodes_to_the_objects_decoded_before(self):
        live = quickstart_system(seed=0)
        live.converge()
        encoder = SnapshotEncoder()
        first = decode_snapshot(encoder(live.coordinator.capture("r1")))
        live.run(until=live.network.sim.now + 1)
        again = decode_snapshot(encoder(live.coordinator.capture("r2")))
        assert encoder.blocks_pickled == 1
        for name, checkpoint in first.checkpoints.items():
            state = again.checkpoints[name].state
            assert state is not checkpoint.state
            for key in RIB_FIELDS:
                assert state[key] is checkpoint.state[key], (name, key)


def run_campaign(**kwargs):
    dice = DiceOrchestrator(faulty_live(), default_property_suite())
    return dice.run_campaign(OrchestratorConfig(
        inputs_per_node=4, cycles=2, seed=9, frontier_shards=2, **kwargs,
    ))


class TestDecodeMemo:
    def test_the_memoised_block_still_equals_a_fresh_decode(self):
        run_campaign(workers=2, transport="loopback")
        block, ribs = payload._LAST_BLOCK[0]
        fresh = pickle.loads(block)
        assert list(ribs) == list(fresh)
        for name, state in fresh.items():
            assert rib_values(ribs[name]) == rib_values(state), name
            assert shared_routes(ribs[name]) == shared_routes(state), name

    def test_decoding_every_block_afresh_changes_no_outcome(
            self, monkeypatch):
        serial = run_campaign(workers=1)
        memoised = run_campaign(workers=2, transport="loopback")
        decoded = payload._decoded_block
        fresh = []

        def cold(block):
            payload._LAST_BLOCK[0] = (b"", {})
            fresh.append(block)
            return decoded(block)

        monkeypatch.setattr(payload, "_decoded_block", cold)
        cleared = run_campaign(workers=2, transport="loopback")
        assert len(fresh) > cleared.snapshots_taken  # several tasks each
        assert (campaign_fingerprint(cleared)
                == campaign_fingerprint(memoised)
                == campaign_fingerprint(serial))


@pytest.mark.parametrize("action", ["flap", "config", "reset"])
def test_every_change_is_seen_by_the_identity_check(action):
    """The cheap check agrees with the value check on each kind of
    change, one capture before it and one after."""
    live = quickstart_system(seed=0)
    live.converge()
    encoder = SnapshotEncoder()
    before = live.coordinator.capture("r1")
    encoder(before)
    act(live, action)
    after = live.coordinator.capture("r1")
    encoder(after)
    assert ribs_of(before) != ribs_of(after)
    assert encoder.blocks_pickled == 2
