"""Tests for the commitment-based export-consistency check."""

from repro.checks.consistency import ExportConsistency, wire_stable_view
from repro.checks.hijack import build_sharing_endpoints
from repro.core.properties import CheckContext
from repro.core.sharing import SharingRegistry
from repro.util.hashing import salted_digest


def configs_of(network):
    """The configuration of every router of a live network, by name."""
    return {
        name: process.config
        for name, process in network.processes.items()
    }


def make_context(live, node="r2"):
    registry = SharingRegistry.from_configs(live.initial_configs)
    configs = configs_of(live.network)
    build_sharing_endpoints(live.network, registry, configs)
    return CheckContext(clone=live.network, node=node, sharing=registry)


class TestWireStableView:
    def test_view_contains_path_and_origin(self, converged3):
        route = converged3.router("r2").loc_rib.get(
            next(iter(converged3.router("r2").adj_rib_in["r1"].prefixes()))
        )
        view = wire_stable_view(route.prefix, route.attributes)
        assert view[0] == str(route.prefix)
        assert view[2] == int(route.attributes.origin)

    def test_view_ignores_local_pref(self, converged3):
        rib = converged3.router("r2").adj_rib_in["r1"]
        route = next(rib.routes())
        tweaked = route.attributes.replace(local_pref=999, med=7)
        assert wire_stable_view(route.prefix, route.attributes) == (
            wire_stable_view(route.prefix, tweaked)
        )


class TestExportConsistency:
    def test_healthy_system_agrees(self, converged3):
        context = make_context(converged3)
        assert ExportConsistency().check(context) == []

    def test_all_nodes_agree(self, converged3):
        for node in ("r1", "r2", "r3"):
            context = make_context(converged3, node=node)
            assert ExportConsistency().check(context) == []

    def test_tampered_route_detected(self, converged3):
        """Corrupt the receive-side AS path: commitments must diverge."""
        from repro.bgp.attributes import AsPath

        r2 = converged3.router("r2")
        rib = r2.adj_rib_in["r1"]
        route = next(rib.routes())
        forged = route.with_attributes(
            route.attributes.replace(
                as_path=AsPath.from_sequence(64999, 64998)
            )
        )
        rib.update(forged)
        context = make_context(converged3)
        violations = ExportConsistency().check(context)
        assert violations
        assert violations[0].fault_class == "programming_error"
        assert violations[0].evidence["peer"] == "r1"

    def test_send_side_amnesia_detected(self, converged3):
        """Sender forgetting its advertisement also mismatches."""
        r1 = converged3.router("r1")
        r1.adj_rib_out["r2"].clear()
        context = make_context(converged3)
        violations = ExportConsistency().check(context)
        prefixes = {v.evidence["prefix"] for v in violations}
        assert "10.1.0.0/16" in prefixes

    def test_commitments_never_reveal_values(self, converged3):
        """Responses crossing the interface are 32-byte digests only."""
        context = make_context(converged3)
        ExportConsistency().check(context)
        for endpoint in context.sharing.endpoints():
            for entry in endpoint.audit_log:
                if entry.check == "export_commitment":
                    assert entry.response_type == "bytes"

    def test_fresh_salt_changes_commitment(self, converged3):
        r2 = converged3.router("r2")
        route = next(r2.adj_rib_in["r1"].routes())
        view = wire_stable_view(route.prefix, route.attributes)
        assert salted_digest(view, b"salt-a") != salted_digest(view, b"salt-b")

    def test_skips_domains_without_commitment_check(self, converged3):
        registry = SharingRegistry.from_configs(converged3.initial_configs)
        # An endpoint for r2's own AS alone: no peer's AS has one to
        # answer a commitment, so the property must skip quietly.
        configs = configs_of(converged3.network)
        build_sharing_endpoints(
            converged3.network, registry, {"r2": configs["r2"]}
        )
        context = CheckContext(
            clone=converged3.network, node="r2", sharing=registry
        )
        assert ExportConsistency().check(context) == []
        assert all(
            entry.check != "export_commitment"
            for endpoint in registry.endpoints()
            for entry in endpoint.audit_log
        )
