"""Tests for the crash-freedom property."""

from repro.checks.crash import CrashFreedom
from repro.core.live import bgp_process_factory
from repro.core.properties import CheckContext


def make_context(live, node="r2"):
    return CheckContext(
        clone=live.network, node=node
    )


class TestCrashFreedom:
    def test_clean_run_no_violation(self, converged3):
        prop = CrashFreedom()
        context = make_context(converged3)
        prop.prepare(context)
        assert prop.check(context) == []

    def test_crash_increment_detected(self, converged3):
        prop = CrashFreedom()
        context = make_context(converged3)
        prop.prepare(context)
        router = converged3.router("r2")
        router.crash_count += 1
        router.last_crash = "synthetic"
        violations = prop.check(context)
        assert len(violations) == 1
        assert violations[0].fault_class == "programming_error"
        assert "synthetic" in violations[0].detail

    def test_preexisting_crashes_not_reattributed(self, scarred_live):
        """Crashes before the cut are history, not this input's fault:
        a clone's routers count crashes from their restore."""
        live = scarred_live()
        clone = live.coordinator.capture("r1").clone(
            bgp_process_factory, seed=1
        )
        prop = CrashFreedom()
        context = CheckContext(
            clone=clone, node="r2"
        )
        prop.prepare(context)
        assert clone.processes["r3"].crash_count == 0
        clone.run(until=5.0)
        assert prop.check(context) == []
        assert live.router("r3").crash_count == 1

    def test_neighbor_crash_detected(self, converged3):
        prop = CrashFreedom()
        context = make_context(converged3, node="r2")
        prop.prepare(context)
        neighbor = converged3.router("r3")
        neighbor.crash_count += 1
        neighbor.last_crash = "collateral"
        violations = prop.check(context)
        assert len(violations) == 1
        assert violations[0].node == "r3"
        assert violations[0].evidence["origin_node"] == "r2"

    def test_escaped_exception_reported(self, converged3):
        prop = CrashFreedom()
        context = make_context(converged3)
        prop.prepare(context)
        context.exploration_exception = RuntimeError("boom")
        violations = prop.check(context)
        assert len(violations) == 1
        assert "boom" in violations[0].detail
