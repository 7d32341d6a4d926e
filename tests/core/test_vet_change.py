"""Tests for pre-deployment configuration-change vetting."""

import pytest

from repro.bgp.config import AddFilter, AddNetwork, RemoveNetwork, SetNeighborFilter
from repro.bgp.ip import Prefix
from repro.bgp.policy import Filter
from repro.checks import default_property_suite
from repro.core.orchestrator import DiceOrchestrator


def make_dice(live):
    return DiceOrchestrator(live, default_property_suite())


class TestVetChange:
    def test_hijacking_change_rejected(self, converged3):
        dice = make_dice(converged3)
        reports = dice.vet_change("r3", AddNetwork(Prefix("10.1.0.0/16")))
        assert reports
        assert reports[0].fault_class == "operator_mistake"
        assert "pending config change" in reports[0].input_summary

    def test_clean_change_vets_clean(self, converged3):
        dice = make_dice(converged3)
        reports = dice.vet_change("r3", AddNetwork(Prefix("203.0.113.0/24")))
        assert reports == []

    def test_live_system_untouched_either_way(self, converged3):
        dice = make_dice(converged3)
        before = sorted(
            str(p) for p in converged3.router("r3").config.networks
        )
        dice.vet_change("r3", AddNetwork(Prefix("10.1.0.0/16")))
        dice.vet_change("r3", AddNetwork(Prefix("203.0.113.0/24")))
        after = sorted(
            str(p) for p in converged3.router("r3").config.networks
        )
        assert before == after
        assert converged3.router("r2").loc_rib.get(
            Prefix("10.1.0.0/16")
        ).peer == "r1"

    def test_withdrawal_vets_clean(self, converged3):
        """Removing your own prefix is legitimate (reachability loss is
        the operator's prerogative; no property forbids it)."""
        dice = make_dice(converged3)
        reports = dice.vet_change("r3", RemoveNetwork(Prefix("10.3.0.0/16")))
        assert reports == []

    def test_filter_definition_vets_clean(self, converged3):
        """Defining an (unused) filter has no routing consequence."""
        dice = make_dice(converged3)
        reports = dice.vet_change(
            "r2",
            AddFilter(Filter.compile("filter drop_all { reject; }")),
        )
        assert reports == []

    def test_dangling_filter_reference_is_refused(self, converged3):
        """Pointing a neighbor at a filter the router does not define is
        refused when the change is applied — vetted or live — rather
        than accepted and left to crash the router on its next UPDATE
        as a ``programming_error``."""
        dice = make_dice(converged3)
        change = SetNeighborFilter("r1", "import", "no_such_filter")
        with pytest.raises(KeyError, match="no filter 'no_such_filter'"):
            dice.vet_change("r2", change)
        r2 = converged3.router("r2")
        before = r2.config
        with pytest.raises(KeyError, match="no filter 'no_such_filter'"):
            converged3.apply_change("r2", change)
        assert r2.config is before
        # A new prefix at r1 then reaches r2 through its old filter.
        prefix = Prefix("10.99.0.0/16")
        converged3.apply_change("r1", AddNetwork(prefix))
        converged3.converge()
        assert r2.crash_count == 0
        assert r2.loc_rib.get(prefix) is not None

    def test_snapshot_mode_is_not_a_parameter(self, converged3):
        # Vetting always captures with the marker protocol.
        dice = make_dice(converged3)
        with pytest.raises(TypeError):
            dice.vet_change(
                "r3", AddNetwork(Prefix("10.1.0.0/16")),
                snapshot_mode="atomic",
            )

    def test_vetting_captures_with_the_marker_protocol(
        self, converged3, monkeypatch
    ):
        coordinator = converged3.coordinator
        initiators = []
        capture = coordinator.capture

        def tracked(initiator, *args, **kwargs):
            initiators.append(initiator)
            return capture(initiator, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("vetting never captures atomically")

        monkeypatch.setattr(coordinator, "capture", tracked)
        monkeypatch.setattr(coordinator, "capture_atomic", refuse)
        reports = make_dice(converged3).vet_change(
            "r3", AddNetwork(Prefix("10.1.0.0/16"))
        )
        assert [r.fault_class for r in reports] == ["operator_mistake"]
        assert initiators == ["r3"]

    def test_report_metadata(self, converged3):
        dice = make_dice(converged3)
        reports = dice.vet_change("r3", AddNetwork(Prefix("10.1.0.0/16")))
        report = reports[0]
        assert report.snapshot_id
        assert report.wall_time_s > 0
        assert report.evidence["prefix"] == "10.1.0.0/16"
