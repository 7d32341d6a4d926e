"""Tests for the narrow information-sharing interface.

The central claim: raw state physically cannot cross the interface —
a question may only answer bool/int/bytes, everything else raises,
and every crossing is audited.
"""

import gc
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.config import AddNetwork
from repro.bgp.ip import Prefix
from repro.core import sharing as sharing_module
from repro.core.live import bgp_process_factory
from repro.core.sharing import (
    ClaimTable,
    SharingInterface,
    SharingViolation,
    domains_of,
)
from repro.util.hashing import salted_digest

# Prefixes under 10.0.0.0/8 and its covers, so that claims nest often.
_prefixes = st.integers(0, 32).flatmap(
    lambda length: st.integers(0, 255).map(
        lambda bits: Prefix(
            (10 << 24 | bits << 16) & (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF,
            length,
        )
    )
)


def answering(response):
    """A question that answers ``response`` to anything."""
    return lambda domain, *args: response


def interface(**questions):
    """An interface over one domain, AS 65001, asking ``questions``."""
    return SharingInterface(ClaimTable(), {65001: {"r1": None}}, None, questions)


class TestEndpoint:
    """One domain's side of the interface: what an answer may be, and
    the audit of every answer."""

    def test_register_and_respond(self):
        sharing = interface(is_happy=lambda domain: domain.asn == 65001)
        assert sharing.query(65002, 65001, "is_happy") is True

    def test_unknown_check_rejected(self):
        with pytest.raises(KeyError):
            interface().query(65002, 65001, "nonexistent")

    def test_rich_object_response_blocked(self):
        """A question that leaks a route object must raise, not disclose."""
        sharing = interface(leak=answering({"my": "whole RIB"}))
        with pytest.raises(SharingViolation):
            sharing.query(65002, 65001, "leak")
        assert sharing.audit_log == []

    def test_string_response_blocked(self):
        sharing = interface(leak=answering("confidential config text"))
        with pytest.raises(SharingViolation):
            sharing.query(65002, 65001, "leak")

    def test_none_response_blocked(self):
        sharing = interface(leak=answering(None))
        with pytest.raises(SharingViolation):
            sharing.query(65002, 65001, "leak")

    def test_commitment_allowed(self):
        sharing = interface(
            commit=lambda domain, salt: salted_digest("local-value", salt)
        )
        digest = sharing.query(65002, 65001, "commit", b"salt")
        assert isinstance(digest, bytes)
        assert len(digest) == 32

    def test_audit_log_records_queries(self):
        sharing = interface(check=answering(True))
        sharing.query(65002, 65001, "check", Prefix("10.0.0.0/8"), now=4.2)
        [entry] = sharing.audit_log
        assert entry.requester_as == 65002
        assert entry.responder_as == 65001
        assert entry.check == "check"
        assert entry.args == ("10.0.0.0/8",)  # scrubbed to a string
        assert entry.response_type == "bool"
        assert entry.time == 4.2

    def test_audit_scrubs_rich_args(self):
        sharing = interface(check=answering(True))
        sharing.query(65002, 65001, "check", object())
        assert sharing.audit_log[0].args == ("object",)


class TestRegistry:
    """The claims table (the IRR analogue) and the domains a query
    reaches."""

    def test_endpoint_routing(self):
        sharing = SharingInterface(
            ClaimTable(), {65001: {"r1": None}, 65002: {"r2": None}}, None,
            {"asn": lambda domain: domain.asn},
        )
        assert sharing.query(65003, 65001, "asn") == 65001
        assert sharing.query(65003, 65002, "asn") == 65002

    def test_query_unknown_as(self):
        with pytest.raises(KeyError):
            interface(ok=answering(True)).query(1, 2, "ok")

    def test_claims_exact(self):
        claims = ClaimTable([
            (65001, Prefix("10.1.0.0/16")), (65009, Prefix("10.1.0.0/16")),
        ])
        assert claims.origins(Prefix("10.1.0.0/16")) == {65001, 65009}
        assert claims.origins(Prefix("10.2.0.0/16")) == frozenset()

    def test_covering_claims(self):
        claims = ClaimTable([
            (65001, Prefix("10.0.0.0/8")), (65002, Prefix("10.1.0.0/16")),
        ])
        assert claims.covering(Prefix("10.1.128.0/17")) == {65001, 65002}
        assert claims.covering(Prefix("10.1.0.0/16")) == {65001, 65002}
        assert claims.covering(Prefix("10.2.0.0/16")) == {65001}
        assert claims.covering(Prefix("11.0.0.0/8")) == frozenset()

    def test_claims_by(self):
        claims = ClaimTable([
            (65001, Prefix("192.168.0.0/16")), (65001, Prefix("10.0.0.0/8")),
            (65002, Prefix("10.5.0.0/16")),
        ])
        assert claims.claims_by(65001) == [
            Prefix("10.0.0.0/8"), Prefix("192.168.0.0/16"),
        ]
        assert claims.claims_by(
            65001, covering=Prefix("10.5.0.0/16")
        ) == [Prefix("10.0.0.0/8")]
        assert claims.claims_by(65003) == []

    @settings(max_examples=200, deadline=None)
    @given(claims=st.lists(st.tuples(st.integers(1, 4), _prefixes), max_size=12),
           probe=_prefixes, asn=st.integers(1, 4))
    def test_covering_lookups_match_a_scan(self, claims, probe, asn):
        """``covering`` and ``claims_by`` find exactly what testing
        every claim with ``contains`` finds."""
        table = ClaimTable(claims)
        covering = [prefix for _, prefix in claims if prefix.contains(probe)]
        assert table.covering(probe) == {
            owner for owner, prefix in claims if prefix in covering
        }
        assert table.claims_by(asn, covering=probe) == sorted({
            prefix for owner, prefix in claims
            if owner == asn and prefix in covering
        })
        assert pickle.loads(pickle.dumps(table)).covering(probe) == (
            table.covering(probe)
        )

    def test_from_configs(self, converged3):
        assert ClaimTable.from_configs(converged3.initial_configs) == ClaimTable([
            (65001, Prefix("10.1.0.0/16")),
            (65002, Prefix("10.2.0.0/16")),
            (65003, Prefix("10.3.0.0/16")),
        ])

    def test_a_covering_lookup_does_not_depend_on_the_table_size(
        self, monkeypatch
    ):
        """A covering lookup probes the table once per length some
        claim has, up to the prefix's own, shortest first, and tests no
        claim for containment: the same prefixes are made for a table
        of 2 claims and of 4 096 with the same two lengths."""
        made = []

        class CountingPrefix(Prefix):
            __slots__ = ()

            def __init__(self, network, length=None):
                made.append(length)
                super().__init__(network, length)

        def no_scan(self, other):
            raise AssertionError("a lookup scanned the claims")

        small = ClaimTable([(65001, Prefix("10.0.0.0/8")),
                            (64512, Prefix("172.0.0.0/24"))])
        large = ClaimTable(
            [(65001, Prefix("10.0.0.0/8"))]
            + [(64512 + i, Prefix(f"172.{i // 256}.{i % 256}.0/24"))
               for i in range(4095)]
        )
        monkeypatch.setattr(sharing_module, "Prefix", CountingPrefix)
        monkeypatch.setattr(Prefix, "contains", no_scan)
        lookups = []
        for claims in (small, large):
            made.clear()
            owners = claims.covering(Prefix("10.1.2.0/24"))
            by_as = claims.claims_by(65001, covering=Prefix("10.1.2.0/24"))
            lookups.append(list(made))
            assert owners == {65001}
            assert by_as == [Prefix("10.0.0.0/8")]
        assert lookups[0] == lookups[1] == [8, 24] * 2


class TestInterface:
    """A clone's interface: O(1) to build, and a domain is every router
    of its AS, read without building one."""

    def test_building_an_interface_builds_no_router_and_copies_nothing(
        self, converged3
    ):
        snapshot = converged3.coordinator.capture("r1")
        configs = {
            name: checkpoint.state["config"]
            for name, checkpoint in snapshot.checkpoints.items()
        }
        claims = ClaimTable.from_configs(converged3.initial_configs)
        domains = domains_of(configs)
        questions = {"originates": lambda domain, prefix: any(
            prefix in config.networks for config in domain.configs()
        )}
        clone = snapshot.clone(bgp_process_factory, seed=1)
        sharing = SharingInterface(claims, domains, clone, questions)
        assert dict(clone.materialized()) == {}
        # It holds its inputs as they are and one empty audit log:
        # nothing made per AS.
        assert sharing.claims is claims
        assert sharing.domains is domains
        referents = gc.get_referents(sharing)
        assert sorted(map(id, referents)) == sorted(map(id, [
            claims, domains, clone, questions, sharing.audit_log,
            SharingInterface,
        ]))
        assert sharing.audit_log == []
        # A question reads an unbuilt router's starting configuration.
        assert sharing.query(
            65002, 65003, "originates", Prefix("10.3.0.0/16")
        ) is True
        assert dict(clone.materialized()) == {}
        # A built router answers from its own configuration.
        clone.processes["r3"].apply_config_change(
            AddNetwork(Prefix("10.33.0.0/16"))
        )
        assert sharing.query(
            65002, 65003, "originates", Prefix("10.33.0.0/16")
        ) is True
        clone.close()

    def test_domains_group_routers_by_as(self, converged3):
        configs = {name: process.config
                   for name, process in converged3.network.processes.items()}
        configs["probe"] = None  # a process that is no router
        domains = domains_of(configs)
        assert {asn: list(routers) for asn, routers in domains.items()} == {
            65001: ["r1"], 65002: ["r2"], 65003: ["r3"],
        }
