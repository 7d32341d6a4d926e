"""Tests for the federated origin-authenticity (hijack) check."""

import pytest

from repro.bgp.config import AddNetwork
from repro.bgp.ip import Prefix
from repro.checks import default_property_suite
from repro.checks.hijack import OriginAuthenticity
from repro.core.orchestrator import DiceOrchestrator, OrchestratorConfig
from repro.core.properties import CheckContext, PropertySuite
from repro.core.sharing import ClaimTable, SharingInterface, domains_of


def sharing_over(live):
    """The interface over a live network, asking the hijack check's
    questions, with the claims of the initial configurations."""
    return SharingInterface(
        ClaimTable.from_configs(live.initial_configs),
        domains_of({
            name: process.config
            for name, process in live.network.processes.items()
        }),
        live.network,
        PropertySuite([OriginAuthenticity()]).questions(),
    )


def make_context(live, node="r2"):
    return CheckContext(clone=live.network, node=node, sharing=sharing_over(live))


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
        owner_log = [entry for entry in context.sharing.audit_log
                     if entry.responder_as == 65001]
        assert owner_log, "owner must have been queried"
        for entry in owner_log:
            assert entry.check in ("originates", "authorizes_origin")
            assert entry.response_type == "bool"


class TestEndpointConstruction:
    """A domain is an AS, every router of it; the questions are the
    ones the suite's properties declare."""

    def test_one_endpoint_per_as(self, converged3, two_router_as):
        assert sorted(sharing_over(converged3).domains) == [
            65001, 65002, 65003,
        ]
        domains = sharing_over(two_router_as("b")).domains
        assert sorted(domains) == [65200, 65300, 65400]
        assert list(domains[65200]) == ["a", "b"]

    def test_endpoint_checks_registered(self, converged3):
        sharing = sharing_over(converged3)
        assert sharing.query(
            65002, 65001, "authorizes_origin", Prefix("10.1.0.0/16"), 65001
        ) is True
        # Declared by ExportConsistency, which this suite does not hold.
        with pytest.raises(KeyError):
            sharing.query(65002, 65001, "export_commitment")

    def test_originates_answers_truthfully(self, converged3):
        sharing = sharing_over(converged3)
        assert sharing.query(
            65002, 65001, "originates", Prefix("10.1.0.0/16")
        ) is True
        assert sharing.query(
            65002, 65001, "originates", Prefix("10.9.0.0/16")
        ) is False

    @pytest.mark.parametrize("originator", ["a", "b"])
    def test_a_domain_answers_for_every_router_of_its_as(
        self, two_router_as, originator
    ):
        """AS 65200 originates 10.7.0.0/16 whichever of its routers
        does, and authorizes no other AS to."""
        sharing = sharing_over(two_router_as(originator))
        prefix = Prefix("10.7.0.0/16")
        assert sharing.query(65300, 65200, "originates", prefix) is True
        assert sharing.query(
            65300, 65200, "authorizes_origin", prefix, 65200
        ) is True
        assert sharing.query(
            65300, 65200, "authorizes_origin", prefix, 65400
        ) is False


@pytest.mark.parametrize("originator", ["a", "b"])
def test_hijack_of_a_multi_router_as_is_found(two_router_as, originator):
    """z (AS 65400) starts originating AS 65200's prefix: a campaign at
    z finds the operator mistake whichever router of AS 65200
    originates the prefix, not only when it is the first by name."""
    live = two_router_as(originator)
    live.apply_change("z", AddNetwork(Prefix("10.7.0.0/16")))
    result = DiceOrchestrator(live, default_property_suite()).run_campaign(
        OrchestratorConfig(explorer_nodes=["z"], inputs_per_node=2, seed=2,
                           stop_after_first_fault=True)
    )
    assert {report.fault_class for report in result.reports} == {
        "operator_mistake"
    }
