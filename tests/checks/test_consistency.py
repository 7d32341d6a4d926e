"""Tests for the commitment-based export-consistency check."""

from repro.checks.consistency import ExportConsistency, wire_stable_view
from repro.core.properties import CheckContext, PropertySuite
from repro.core.sharing import ClaimTable, SharingInterface, domains_of
from repro.util.hashing import salted_digest


def make_context(live, node="r2", routers=None):
    """A context at ``node`` whose interface asks the commitment
    question of the domains of ``routers`` (default: every router)."""
    configs = {
        name: process.config
        for name, process in live.network.processes.items()
        if routers is None or name in routers
    }
    sharing = SharingInterface(
        ClaimTable.from_configs(live.initial_configs),
        domains_of(configs),
        live.network,
        PropertySuite([ExportConsistency()]).questions(),
    )
    return CheckContext(clone=live.network, node=node, sharing=sharing)


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
        assert context.sharing.audit_log
        for entry in context.sharing.audit_log:
            assert entry.check == "export_commitment"
            assert entry.response_type == "bytes"

    def test_fresh_salt_changes_commitment(self, converged3):
        r2 = converged3.router("r2")
        route = next(r2.adj_rib_in["r1"].routes())
        view = wire_stable_view(route.prefix, route.attributes)
        assert salted_digest(view, b"salt-a") != salted_digest(view, b"salt-b")

    def test_skips_domains_without_commitment_check(self, converged3):
        # A domain for r2's own AS alone: no peer's AS has one to
        # answer a commitment, so the property must skip quietly.
        context = make_context(converged3, routers={"r2"})
        assert ExportConsistency().check(context) == []
        assert context.sharing.audit_log == []

    def test_a_multi_router_as_answers_from_the_session_router(
        self, two_router_as
    ):
        """AS 65200's ``a`` originates 10.7.0.0/16 and ``b`` sends it to
        y: the commitment comes from ``b``, which holds the session, so
        the healthy system agrees at y."""
        live = two_router_as("a")
        context = make_context(live, node="y")
        assert ExportConsistency().check(context) == []
        assert [entry.args[:2] for entry in context.sharing.audit_log] == [
            ("b", "y"),
        ]
