"""Tests for the narrow information-sharing interface.

The central claim: raw state physically cannot cross the interface —
check functions may only return bool/int/bytes, everything else raises,
and every crossing is audited.
"""

import pytest

from repro.bgp.ip import Prefix
from repro.core.sharing import (
    SharingEndpoint,
    SharingRegistry,
    SharingViolation,
)


def endpoint(asn=65001, node="r1"):
    return SharingEndpoint(asn=asn, node=node)


class TestEndpoint:
    def test_register_and_respond(self):
        ep = endpoint()
        ep.register("is_happy", lambda: True)
        assert ep.respond(65002, "is_happy") is True

    def test_duplicate_registration_rejected(self):
        ep = endpoint()
        ep.register("x", lambda: True)
        with pytest.raises(ValueError):
            ep.register("x", lambda: False)

    def test_unknown_check_rejected(self):
        with pytest.raises(KeyError):
            endpoint().respond(65002, "nonexistent")

    def test_rich_object_response_blocked(self):
        """A check that leaks a route object must raise, not disclose."""
        ep = endpoint()
        leaky = {"my": "whole RIB"}
        ep.register("leak", lambda: leaky)
        with pytest.raises(SharingViolation):
            ep.respond(65002, "leak")

    def test_string_response_blocked(self):
        ep = endpoint()
        ep.register("leak", lambda: "confidential config text")
        with pytest.raises(SharingViolation):
            ep.respond(65002, "leak")

    def test_none_response_blocked(self):
        ep = endpoint()
        ep.register("leak", lambda: None)
        with pytest.raises(SharingViolation):
            ep.respond(65002, "leak")

    def test_commitment_allowed(self):
        ep = endpoint()
        ep.register("commit", lambda salt: ep.commit("local-value", salt))
        digest = ep.respond(65002, "commit", b"salt")
        assert isinstance(digest, bytes)
        assert len(digest) == 32

    def test_audit_log_records_queries(self):
        ep = endpoint()
        ep.register("check", lambda prefix: True)
        ep.respond(65002, "check", Prefix("10.0.0.0/8"), now=4.2)
        assert len(ep.audit_log) == 1
        entry = ep.audit_log[0]
        assert entry.requester_as == 65002
        assert entry.responder_as == 65001
        assert entry.check == "check"
        assert entry.args == ("10.0.0.0/8",)  # scrubbed to a string
        assert entry.response_type == "bool"
        assert entry.time == 4.2

    def test_audit_scrubs_rich_args(self):
        ep = endpoint()
        ep.register("check", lambda anything: True)
        ep.respond(65002, "check", object())
        assert ep.audit_log[0].args == ("object",)

    def test_names_listing(self):
        ep = endpoint()
        ep.register("b", lambda: True)
        ep.register("a", lambda: True)
        assert ep.names() == ["a", "b"]


class TestRegistry:
    def test_endpoint_routing(self):
        registry = SharingRegistry()
        ep = endpoint(asn=65001)
        ep.register("ok", lambda: True)
        registry.add_endpoint(ep)
        assert registry.query(65002, 65001, "ok") is True

    def test_duplicate_endpoint_rejected(self):
        registry = SharingRegistry()
        registry.add_endpoint(endpoint(asn=65001))
        with pytest.raises(ValueError):
            registry.add_endpoint(endpoint(asn=65001))

    def test_query_unknown_as(self):
        with pytest.raises(KeyError):
            SharingRegistry().query(1, 2, "x")

    def test_claims_exact(self):
        registry = SharingRegistry()
        registry.claim_origin(65001, Prefix("10.1.0.0/16"))
        registry.claim_origin(65009, Prefix("10.1.0.0/16"))
        assert registry.claimed_origins(Prefix("10.1.0.0/16")) == {
            65001, 65009,
        }
        assert registry.claimed_origins(Prefix("10.2.0.0/16")) == frozenset()

    def test_covering_claims(self):
        registry = SharingRegistry()
        registry.claim_origin(65001, Prefix("10.0.0.0/8"))
        registry.claim_origin(65002, Prefix("10.1.0.0/16"))
        owners = registry.covering_claims(Prefix("10.1.128.0/17"))
        assert owners == {65001, 65002}
        owners = registry.covering_claims(Prefix("10.2.0.0/16"))
        assert owners == {65001}

    def test_claims_by(self):
        registry = SharingRegistry()
        registry.claim_origin(65001, Prefix("10.0.0.0/8"))
        registry.claim_origin(65001, Prefix("192.168.0.0/16"))
        assert registry.claims_by(65001) == [
            Prefix("10.0.0.0/8"), Prefix("192.168.0.0/16"),
        ]
        assert registry.claims_by(
            65001, covering=Prefix("10.5.0.0/16")
        ) == [Prefix("10.0.0.0/8")]

    def test_from_configs(self, converged3):
        registry = SharingRegistry.from_configs(converged3.initial_configs)
        assert registry.claimed_origins(Prefix("10.1.0.0/16")) == {65001}
        assert registry.all_claimed_prefixes() == [
            Prefix("10.1.0.0/16"), Prefix("10.2.0.0/16"),
            Prefix("10.3.0.0/16"),
        ]

    def test_a_shared_claim_table_reads_as_the_claims_and_takes_none(self):
        """An explorer copies its claims once and every clone's registry
        reads that table: each answers as the registry it came from, and
        none may claim, so no clone's check can change another's."""
        claims = SharingRegistry()
        claims.claim_origin(65001, Prefix("10.0.0.0/8"))
        claims.claim_origin(65002, Prefix("10.1.0.0/16"))
        claims.claim_origin(65003, Prefix("10.1.0.0/16"))
        table = claims.claim_table()
        first, second = (SharingRegistry(claims=table) for _ in range(2))
        for registry in (first, second):
            assert registry.all_claimed_prefixes() == \
                claims.all_claimed_prefixes()
            assert registry.claimed_origins(Prefix("10.1.0.0/16")) == \
                {65002, 65003}
            assert registry.covering_claims(Prefix("10.1.2.0/24")) == \
                {65001, 65002, 65003}
            assert registry.claims_by(65001) == [Prefix("10.0.0.0/8")]
            with pytest.raises(ValueError, match="shared"):
                registry.claim_origin(65009, Prefix("10.9.0.0/16"))
        claims.claim_origin(65009, Prefix("10.9.0.0/16"))  # a copy was shared
        assert first.claimed_origins(Prefix("10.9.0.0/16")) == frozenset()
