"""The reference oracle against the live simulator.

The oracle re-derives route propagation independently; these tests pin
both halves of its contract — agreement with the simulator on every
built-in topology, and the ability to *catch* a seeded simulator bug
(the whole point of a differential oracle).
"""

import pytest

from repro.bgp import faults
from repro.bgp.config import NeighborConfig, RouterConfig
from repro.bgp.ip import IPv4Address, Prefix
from repro.bgp.policy import Filter
from repro.core.live import LiveSystem
from repro.differential.canonical import BLAME_FIELDS
from repro.differential.extract import (
    capture_canonical_ribs,
    network_settled,
    oracle_for_live,
    settle_live,
)
from repro.differential.reference import ReferenceBackend, ReferenceOracle
from repro.net.link import LinkProfile
from repro.topo.gadgets import GADGETS

SETTLED_GADGETS = [name for name in GADGETS if name != "bad-gadget"]


def _verify(live) -> list:
    return oracle_for_live(live).verify_fixpoint(capture_canonical_ribs(live))


class TestFixpointAgreement:
    def test_quickstart_verifies_clean(self, converged3):
        assert _verify(converged3) == []

    @pytest.mark.slow
    def test_demo27_verifies_clean(self, demo27_topology):
        live = LiveSystem.build(
            demo27_topology.configs, demo27_topology.links, seed=3
        )
        settle_live(live, deadline=300.0)
        assert network_settled(live)
        assert _verify(live) == []

    @pytest.mark.parametrize("name", SETTLED_GADGETS)
    def test_gadgets_verify_clean(self, name):
        configs, links = GADGETS[name]()
        live = LiveSystem.build(configs, links, seed=11)
        settle_live(live, deadline=120.0)
        assert network_settled(live), f"{name} did not settle"
        assert _verify(live) == [], f"{name} diverged from the oracle"

    def test_bad_gadget_oracle_also_fails_to_converge(self):
        configs, links = GADGETS["bad-gadget"]()
        outcome = ReferenceBackend().converged_ribs(configs, links)
        assert not outcome.converged

    def test_demo27_constructs_same_fixpoint(self, demo27_topology):
        outcome = ReferenceBackend().converged_ribs(
            demo27_topology.configs, demo27_topology.links
        )
        assert outcome.converged
        live = LiveSystem.build(
            demo27_topology.configs, demo27_topology.links, seed=3
        )
        settle_live(live, deadline=300.0)
        oracle = ReferenceOracle(demo27_topology.configs,
                                 links=demo27_topology.links)
        from repro.differential.canonical import RibDiff

        assert RibDiff().diff(
            outcome.ribs, capture_canonical_ribs(live)
        ) == []


def two_path_system(enabled_bugs: frozenset = frozenset()) -> LiveSystem:
    """Origin o; r hears the prefix via a (lp 200) and b (lp 100).

    The minimal topology where an inverted LOCAL_PREF comparison
    changes the outcome — shared with the campaign-layer tests.
    ``enabled_bugs`` are r's injected bugs.
    """
    prefix = Prefix("10.77.0.0/16")
    o = RouterConfig(
        name="o", local_as=65200,
        router_id=IPv4Address("172.16.9.100"),
        networks=(prefix,),
        neighbors=(
            NeighborConfig(peer="a", peer_as=65201),
            NeighborConfig(peer="b", peer_as=65202),
        ),
    )
    relay = [
        RouterConfig(
            name=name, local_as=asn,
            router_id=IPv4Address(f"172.16.9.{index}"),
            neighbors=(
                NeighborConfig(peer="o", peer_as=65200),
                NeighborConfig(peer="r", peer_as=65203),
            ),
        )
        for index, (name, asn) in enumerate(
            (("a", 65201), ("b", 65202)), start=1
        )
    ]
    pref_a = Filter.compile(
        "filter via_a { bgp_local_pref = 200; accept; }"
    )
    pref_b = Filter.compile(
        "filter via_b { bgp_local_pref = 100; accept; }"
    )
    r = RouterConfig(
        name="r", local_as=65203,
        router_id=IPv4Address("172.16.9.200"),
        neighbors=(
            NeighborConfig(peer="a", peer_as=65201,
                           import_filter="via_a"),
            NeighborConfig(peer="b", peer_as=65202,
                           import_filter="via_b"),
        ),
        filters={"via_a": pref_a, "via_b": pref_b},
        enabled_bugs=enabled_bugs,
    )
    wire = LinkProfile.wan(latency_ms=1.0, jitter_ms=0.0)
    links = [("o", "a", wire), ("o", "b", wire),
             ("a", "r", wire), ("b", "r", wire)]
    return LiveSystem.build([o, *relay, r], links, seed=5)


class TestSeededMutationCaught:
    """The acceptance criterion: a wrong decision process is flagged."""

    def test_healthy_system_verifies_clean(self):
        live = two_path_system()
        settle_live(live)
        assert _verify(live) == []

    def test_inverted_local_pref_caught_with_blame(self):
        live = two_path_system(
            frozenset({faults.BUG_INVERTED_LOCAL_PREF})
        )
        settle_live(live)
        divergences = _verify(live)
        assert divergences, "mutated simulator escaped the oracle"
        at_r = [d for d in divergences if d.router == "r"]
        assert at_r, "blame should land on the router that chose wrongly"
        fields = {d.field for d in at_r}
        assert fields <= set(BLAME_FIELDS) | {"route"}
        # The wrong choice is visible as attribute-level blame: r picked
        # the lp-100 path via b where the oracle expects lp 200 via a.
        assert {"via", "local_pref"} & fields
        blamed = next(d for d in at_r if d.field in ("via", "local_pref"))
        assert blamed.expected != blamed.actual


class TestIndependence:
    """The oracle must not lean on the model it is checking.

    ``repro/__init__.py`` imports the whole simulator for its public
    API, so a runtime sys.modules check cannot isolate the oracle; the
    enforceable contract is the ``oracle-independence`` import contract
    in :mod:`repro.analysis.contracts`, checked (transitively) by the
    ISO001 lint rule.  This test pins the contract to this package: the
    declaration must exist, the current tree must satisfy it, and a
    synthetic violation must be caught — so the lint gate, not this
    file, is where the allowlist now lives.
    """

    def _iso_findings(self, paths):
        from repro.analysis.engine import lint_paths

        report = lint_paths(paths)
        return [f for f in report.findings if f.rule == "ISO001"]

    def test_oracle_contract_is_declared(self):
        from repro.analysis.contracts import IMPORT_CONTRACTS

        contract = next(
            c for c in IMPORT_CONTRACTS if c.name == "oracle-independence"
        )
        assert set(contract.roots) == {
            "repro.differential.canonical",
            "repro.differential.reference",
        }
        # The machinery under test must stay forbidden however many
        # import hops away.
        assert {
            "repro.bgp.decision", "repro.bgp.router", "repro.bgp.rib",
        } <= set(contract.forbid)

    def test_oracle_modules_satisfy_the_contract(self):
        import repro.differential as package
        from pathlib import Path

        findings = self._iso_findings([Path(package.__file__).parent])
        oracle_findings = [
            f
            for f in findings
            if f.path.endswith(("canonical.py", "reference.py"))
        ]
        assert not oracle_findings, (
            "oracle modules violate the independence contract: "
            + "; ".join(f.message for f in oracle_findings)
        )

    def test_contract_catches_a_synthetic_violation(self, tmp_path):
        """Doctor a copy of the oracle to import the decision process
        and assert ISO001 flags it — the gate must not be vacuous."""
        import repro
        from pathlib import Path
        import shutil

        src_root = Path(repro.__file__).parent
        copy_root = tmp_path / "repro"
        shutil.copytree(src_root, copy_root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        reference = copy_root / "differential" / "reference.py"
        reference.write_text(
            "from repro.bgp import decision\n" + reference.read_text()
        )
        findings = self._iso_findings([copy_root / "differential"])
        assert any(
            f.path.endswith("reference.py") and "decision" in f.message
            for f in findings
        ), "doctored oracle import escaped the ISO001 contract check"

    def test_oracle_runs_without_simulator_state(self):
        """The oracle produces its fixpoint from configs alone — no
        network, no routers, no clock."""
        configs, links = GADGETS["good-gadget"]()
        outcome = ReferenceOracle(
            configs, links=links
        ).stable_state()
        assert outcome.converged
        assert all(table for table in outcome.ribs.values())

    def test_oracle_handles_unestablished_sessions(self):
        """An adjacency restriction drops routes that would need the
        missing session — no phantom expectations."""
        configs, links = GADGETS["good-gadget"]()
        oracle = ReferenceOracle(
            configs, adjacency={cfg.name: () for cfg in configs}
        )
        outcome = oracle.stable_state()
        assert outcome.converged
        for name, table in outcome.ribs.items():
            for route in table.values():
                assert route.kind == "static", (
                    f"{name} learned {route} without any session"
                )
