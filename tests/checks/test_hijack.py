"""Tests for the federated origin-authenticity (hijack) check."""

from repro.bgp.config import AddNetwork
from repro.bgp.ip import Prefix
from repro.checks.hijack import OriginAuthenticity, build_sharing_endpoints
from repro.core.properties import CheckContext
from repro.core.sharing import SharingRegistry


def configs_of(network):
    """The configuration of every router of a live network, by name."""
    return {
        name: process.config
        for name, process in network.processes.items()
    }


def make_context(live, node="r2"):
    registry = SharingRegistry.from_configs(live.initial_configs)
    build_sharing_endpoints(live.network, registry, configs_of(live.network))
    return CheckContext(
        clone=live.network, node=node, sharing=registry
    )



def evaluate(context):
    """Run the property's full lifecycle (prepare, then check)."""
    prop = OriginAuthenticity()
    prop.prepare(context)
    return prop.check(context)

class TestOriginAuthenticity:
    def test_clean_system_no_violation(self, converged3):
        context = make_context(converged3)
        assert evaluate(context) == []

    def test_hijacker_self_detected(self, converged3):
        """The hijacking node's own exploration flags its origination."""
        converged3.apply_change("r3", AddNetwork(Prefix("10.1.0.0/16")))
        converged3.converge()
        context = make_context(converged3, node="r3")
        violations = evaluate(context)
        assert violations
        assert violations[0].fault_class == "operator_mistake"
        assert violations[0].evidence["origin_as"] == 65003
        assert 65001 in violations[0].evidence["owners"]

    def test_victim_side_detection(self, converged3):
        """A node that *selected* the hijacked route flags it too."""
        converged3.apply_change("r3", AddNetwork(Prefix("10.1.0.0/16")))
        converged3.converge()
        # r2 now has two candidates for 10.1/16; whichever it selected,
        # if it selected r3's it must flag it.  Force selection of the
        # hijacked path by checking at a node beyond it.
        context = make_context(converged3, node="r2")
        route = converged3.router("r2").loc_rib.get(Prefix("10.1.0.0/16"))
        violations = evaluate(context)
        if route.origin_as == 65003:
            assert violations
        else:
            assert violations == []

    def test_more_specific_hijack_detected(self, converged3):
        """Announcing a more-specific inside someone's aggregate is the
        classic traffic-attraction hijack."""
        converged3.apply_change("r3", AddNetwork(Prefix("10.1.128.0/17")))
        converged3.converge()
        context = make_context(converged3, node="r3")
        violations = evaluate(context)
        assert violations
        assert violations[0].evidence["prefix"] == "10.1.128.0/17"

    def test_own_aggregate_more_specific_allowed(self, converged3):
        """The owner splitting its own aggregate is not a hijack."""
        converged3.apply_change("r1", AddNetwork(Prefix("10.1.128.0/17")))
        converged3.converge()
        context = make_context(converged3, node="r1")
        assert evaluate(context) == []

    def test_unclaimed_space_not_flagged(self, converged3):
        """Space nobody registered cannot be hijacked (no baseline)."""
        converged3.apply_change("r3", AddNetwork(Prefix("203.0.113.0/24")))
        converged3.converge()
        context = make_context(converged3, node="r3")
        assert evaluate(context) == []

    def test_owner_withdrawal_clears_alarm(self, converged3):
        """If the registered owner no longer originates the space and
        the registry is stale, the live cross-check suppresses the
        alarm only when the owner authorizes; mere withdrawal keeps the
        registry's word (conservative)."""
        from repro.bgp.config import RemoveNetwork

        converged3.apply_change("r1", RemoveNetwork(Prefix("10.1.0.0/16")))
        converged3.apply_change("r3", AddNetwork(Prefix("10.1.0.0/16")))
        converged3.converge()
        context = make_context(converged3, node="r3")
        violations = evaluate(context)
        # Owner no longer claims origination -> cross-check cannot
        # confirm -> no alarm (the space was released).
        assert violations == []

    def test_uses_only_narrow_interface(self, converged3):
        """The check's remote interactions are exactly audited boolean
        queries — no rich data crosses domains."""
        converged3.apply_change("r3", AddNetwork(Prefix("10.1.0.0/16")))
        converged3.converge()
        context = make_context(converged3, node="r3")
        evaluate(context)
        owner_endpoint = context.sharing.endpoint(65001)
        assert owner_endpoint.audit_log, "owner must have been queried"
        for entry in owner_endpoint.audit_log:
            assert entry.check in ("originates", "authorizes_origin")
            assert entry.response_type == "bool"


class TestEndpointConstruction:
    def test_one_endpoint_per_as(self, converged3):
        registry = SharingRegistry()
        build_sharing_endpoints(
            converged3.network, registry, configs_of(converged3.network)
        )
        assert {ep.asn for ep in registry.endpoints()} == {
            65001, 65002, 65003,
        }

    def test_endpoint_checks_registered(self, converged3):
        registry = SharingRegistry()
        build_sharing_endpoints(
            converged3.network, registry, configs_of(converged3.network)
        )
        endpoint = registry.endpoint(65001)
        assert endpoint.names() == ["authorizes_origin", "originates"]

    def test_originates_answers_truthfully(self, converged3):
        registry = SharingRegistry()
        build_sharing_endpoints(
            converged3.network, registry, configs_of(converged3.network)
        )
        assert registry.query(
            65002, 65001, "originates", Prefix("10.1.0.0/16")
        ) is True
        assert registry.query(
            65002, 65001, "originates", Prefix("10.9.0.0/16")
        ) is False
