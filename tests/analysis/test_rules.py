"""Per-rule fixture tests: known-bad must flag, known-good must pass.

The DET rules run on standalone fixture files; the contract-driven
rules (ISO001, HRM001/2, WIRE001) run on miniature package trees under
``fixtures/*/repro/`` with the :mod:`repro.analysis.contracts` tables
monkeypatched to point at them — the linter only parses the trees, so
a fixture package named ``repro`` never shadows the real one.
"""

from pathlib import Path

import pytest

from repro.analysis import contracts
from repro.analysis.contracts import ImportContract
from repro.analysis.engine import lint_paths
from repro.analysis.registry import all_rules, rule_ids

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(rule: str, *paths) -> list:
    report = lint_paths([Path(p) for p in paths])
    return [f for f in report.findings if f.rule == rule]


class TestRegistry:
    def test_every_documented_rule_is_registered(self):
        assert set(rule_ids()) == {
            "DET001", "DET002", "DET003", "DET004",
            "ISO001", "HRM001", "HRM002", "WIRE001",
            "SUP001",
        }

    def test_rules_carry_their_invariant(self):
        for rule in all_rules():
            assert rule.summary, rule.id
            assert rule.invariant, rule.id


class TestDeterminismFixtures:
    @pytest.mark.parametrize("rule,expected_bad", [
        ("DET001", 2),  # for-loop over a set param, join over a set literal
        ("DET002", 2),  # os.listdir loop, list(glob.glob(...))
        ("DET003", 4),  # random.random, time.time, uuid4, bare Random()
        ("DET004", 2),  # id() and hash() outside __hash__
    ])
    def test_bad_fixture_flags(self, rule, expected_bad):
        stem = rule.lower()
        found = findings_for(rule, FIXTURES / f"{stem}_bad.py")
        assert len(found) == expected_bad, [f.render() for f in found]

    @pytest.mark.parametrize(
        "rule", ["DET001", "DET002", "DET003", "DET004"]
    )
    def test_good_fixture_passes(self, rule):
        stem = rule.lower()
        assert not findings_for(rule, FIXTURES / f"{stem}_good.py")

    def test_findings_carry_position_and_line_text(self):
        found = findings_for("DET004", FIXTURES / "det004_bad.py")
        assert all(f.line > 0 and f.line_text.strip() for f in found)
        assert any("id(obj)" in f.line_text for f in found)


@pytest.fixture
def iso_contract(monkeypatch):
    monkeypatch.setattr(contracts, "IMPORT_CONTRACTS", (
        ImportContract(
            name="fixture-oracle",
            rationale="the oracle must never reach the engine",
            roots=("repro.oracle",),
            allow_direct=("repro.helper",),
            allow_transitive=("repro.helper",),
            forbid=("repro.engine",),
        ),
    ))


class TestImportContractFixtures:
    def test_transitive_leak_flags(self, iso_contract):
        found = findings_for("ISO001", FIXTURES / "iso_bad")
        assert found
        # The leak is transitive: oracle -> helper -> engine.  Blame
        # lands on the importing module so the fix is actionable.
        assert any("engine" in f.message for f in found)
        assert any(f.path.endswith("helper.py") for f in found)

    def test_clean_tree_passes(self, iso_contract):
        assert not findings_for("ISO001", FIXTURES / "iso_good")


class TestWireDataclassFixtures:
    def test_bad_wire_shapes_flag(self, monkeypatch):
        monkeypatch.setattr(contracts, "WIRE_DATACLASSES", {
            "repro.wire": ("Task", "Outcome", "Missing"),
        })
        found = findings_for("HRM001", FIXTURES / "hrm001_bad")
        messages = "\n".join(f.message for f in found)
        assert "socket" in messages  # unpicklable annotation
        assert "scratch" in messages  # unannotated mutable class level
        assert "not a\n@dataclass" in messages or "not a" in messages
        assert "Missing" in messages  # inventory entry without a class
        assert len(found) == 4

    def test_clean_wire_shape_passes(self, monkeypatch):
        monkeypatch.setattr(contracts, "WIRE_DATACLASSES", {
            "repro.wire": ("Task",),
        })
        assert not findings_for("HRM001", FIXTURES / "hrm001_good")


class TestWorkerHermeticityFixtures:
    def test_transitively_reachable_state_flags(self, monkeypatch):
        monkeypatch.setattr(contracts, "WORKER_ROOTS", ("repro.parallel",))
        found = findings_for("HRM002", FIXTURES / "hrm002_bad")
        messages = "\n".join(f.message for f in found)
        # All three hermeticity violations, found one import hop away
        # from the entry point.
        assert "global rebinding" in messages
        assert "os.environ" in messages
        assert "_CALLS.append" in messages
        assert all(f.path.endswith("state.py") for f in found)

    def test_hermetic_worker_passes(self, monkeypatch):
        monkeypatch.setattr(contracts, "WORKER_ROOTS", ("repro.parallel",))
        assert not findings_for("HRM002", FIXTURES / "hrm002_good")


class TestWireProtocolFixtures:
    def test_raw_send_and_outside_socket_flag(self, monkeypatch):
        monkeypatch.setattr(contracts, "WIRE_MODULES", ("repro.remote",))
        found = findings_for("WIRE001", FIXTURES / "wire_bad")
        assert len(found) == 2
        by_path = {f.path.rsplit("/", 1)[-1]: f for f in found}
        assert "pickle" in by_path["remote.py"].line_text
        assert "socket imported outside" in by_path["outsider.py"].message

    def test_encoder_fed_sends_pass(self, monkeypatch):
        monkeypatch.setattr(contracts, "WIRE_MODULES", ("repro.remote",))
        assert not findings_for("WIRE001", FIXTURES / "wire_good")


class TestSuppressionFixtures:
    def test_bare_and_unknown_pragmas_flag(self):
        report = lint_paths([FIXTURES / "sup_bad.py"])
        sup = [f for f in report.findings if f.rule == "SUP001"]
        assert len(sup) == 2
        # The bare pragma suppressed nothing: DET003 still fails.
        assert any(f.rule == "DET003" for f in report.findings)
        assert not report.suppressed

    def test_reasoned_pragma_suppresses_and_records_reason(self):
        report = lint_paths([FIXTURES / "sup_good.py"])
        assert report.ok
        assert len(report.suppressed) == 1
        finding, pragma = report.suppressed[0]
        assert finding.rule == "DET003"
        assert pragma.reason == "wall-clock display only"
