"""Tests for the route-stability (policy conflict) check."""

from repro.checks import oscillation
from repro.checks.oscillation import RouteStability
from repro.core.live import LiveSystem
from repro.core.properties import CheckContext
from repro.core.sharing import SharingRegistry
from repro.topo.gadgets import (
    GADGET_PREFIX,
    build_good_gadget,
    build_slow_convergence,
)


def make_context(live, node):
    return CheckContext(
        clone=live.network, node=node, sharing=SharingRegistry()
    )


class TestRouteStability:
    def test_converged_system_stable(self, converged3):
        prop = RouteStability()
        context = make_context(converged3, "r2")
        prop.prepare(context)
        converged3.run(until=converged3.network.sim.now + 10)
        assert prop.check(context) == []

    def test_bad_gadget_flagged(self, bad_gadget_live):
        bad_gadget_live.run(until=2)  # sessions up, oscillation starting
        prop = RouteStability()
        context = make_context(bad_gadget_live, "r1")
        prop.prepare(context)
        bad_gadget_live.run(until=bad_gadget_live.network.sim.now + 10)
        violations = prop.check(context)
        assert violations
        assert violations[0].fault_class == "policy_conflict"
        assert violations[0].evidence["prefix"] == str(GADGET_PREFIX)
        assert (violations[0].evidence["transitions"]
                >= oscillation.MAX_TRANSITIONS)

    def test_good_gadget_not_flagged(self):
        configs, links = build_good_gadget()
        live = LiveSystem.build(configs, links, seed=7)
        live.run(until=2)
        prop = RouteStability()
        context = make_context(live, "r1")
        prop.prepare(context)
        live.run(until=live.network.sim.now + 10)
        assert prop.check(context) == []

    def test_baseline_excludes_convergence_churn(self, live3):
        """Changes before prepare() (initial convergence) don't count."""
        live3.converge()
        prop = RouteStability()
        context = make_context(live3, "r2")
        prop.prepare(context)
        assert prop.check(context) == []

    def test_slow_convergence_not_misclassified(self):
        """Regression: many transitions ≠ oscillation.

        The slow-convergence gadget upgrades tail router t's best path
        once per relay — more transitions than MAX_TRANSITIONS, but
        every change is monotone progress toward the final state. The
        revisit heuristic must keep this off the fault list: a policy
        conflict *revisits* states (DPC's cycle of ⊁-related states),
        legitimate convergence never does.
        """
        configs, links = build_slow_convergence(stages=12)
        live = LiveSystem.build(configs, links, seed=9)
        live.run(until=2)  # sessions coming up; upgrades still ahead
        prop = RouteStability()
        context = make_context(live, "t")
        prop.prepare(context)
        live.converge(deadline=600)
        router = live.router("t")
        transitions = sum(
            1 for change in router.loc_rib.recent_changes(256)
            if change.prefix == GADGET_PREFIX
        )
        assert transitions > oscillation.MAX_TRANSITIONS, (
            "gadget must out-churn the threshold for the test to bite"
        )
        assert prop.check(context) == []

    def test_revisits_still_flagged_above_threshold(self, bad_gadget_live):
        """The tightened heuristic must not weaken real detection: the
        BAD GADGET cycles through previously-held states."""
        bad_gadget_live.run(until=2)
        prop = RouteStability()
        context = make_context(bad_gadget_live, "r1")
        prop.prepare(context)
        bad_gadget_live.run(until=bad_gadget_live.network.sim.now + 10)
        violations = prop.check(context)
        assert violations
        assert (violations[0].evidence["revisits"]
                >= oscillation.MIN_REVISITS)

    def test_threshold_configurable(self, converged3, monkeypatch):
        from repro.bgp.config import AddNetwork, RemoveNetwork
        from repro.bgp.ip import Prefix

        monkeypatch.setattr(oscillation, "MAX_TRANSITIONS", 2)
        prop = RouteStability()
        context = make_context(converged3, "r2")
        prop.prepare(context)
        prefix = Prefix("10.60.0.0/16")
        for _ in range(2):
            converged3.apply_change("r1", AddNetwork(prefix))
            converged3.converge()
            converged3.apply_change("r1", RemoveNetwork(prefix))
            converged3.converge()
        violations = prop.check(context)
        assert violations  # legitimate churn trips a too-low threshold
