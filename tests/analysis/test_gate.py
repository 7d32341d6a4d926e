"""The lint gate end to end: self-check, CLI, and the negative smoke.

The negative smoke test is the gate's own integrity check: inject a
violation into a scratch copy of the tree and assert
``scripts/check_invariants.py`` actually fails — a gate that cannot
fail is decoration, not CI.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.engine import lint_paths
from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[2]
GATE = REPO_ROOT / "scripts" / "check_invariants.py"
SRC_REPRO = Path(repro.__file__).parent


class TestSelfCheck:
    def test_linter_is_clean_on_its_own_package(self):
        report = lint_paths([SRC_REPRO / "analysis"])
        assert report.ok, report.render_human()
        # And clean without leaning on waivers: the linter holds itself
        # to the strictest reading of its own rules.
        assert not report.suppressed


class TestLintCli:
    def test_lint_subcommand_is_wired(self):
        args = build_parser().parse_args(["lint", "--list-rules"])
        assert args.handler is not None
        assert args.list_rules

    def test_lint_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("VALUE = 1\n")
        code = main(["lint", str(tmp_path)])
        assert code == 0
        assert "OK —" in capsys.readouterr().out

    def test_lint_dirty_tree_exits_one_and_writes_json(self, tmp_path,
                                                       capsys):
        (tmp_path / "bad.py").write_text(
            "import time\n\n\ndef f():\n    return time.time()\n"
        )
        out = tmp_path / "report.json"
        code = main([
            "lint", str(tmp_path), "--json", str(out),
        ])
        assert code == 1
        assert "DET003" in capsys.readouterr().out
        assert json.loads(out.read_text())["ok"] is False

    def test_lint_missing_path_exits_two(self, tmp_path):
        assert main(["lint", str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize("flags", [
        ["--baseline", "invariants-baseline.json"],
        ["--no-baseline"],
        ["--write-baseline"],
    ])
    def test_ledger_flags_are_usage_errors(self, tmp_path, flags):
        # A reasoned pragma is the one waiver; there is no ledger to
        # name, skip or write.
        (tmp_path / "ok.py").write_text("VALUE = 1\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", str(tmp_path), *flags])
        assert exit_info.value.code == 2

    def test_a_ledger_file_waives_nothing(self, tmp_path, monkeypatch,
                                          capsys):
        """An ``invariants-baseline.json`` in the working directory that
        lists the finding, in the format earlier versions read, is not
        read: the finding still fails."""
        monkeypatch.chdir(tmp_path)
        line = "    return time.time()"
        Path("clocky.py").write_text(
            f"import time\n\n\ndef f():\n{line}\n"
        )
        out = tmp_path / "report.json"
        assert main(["lint", "clocky.py", "--json", str(out)]) == 1
        finding = json.loads(out.read_text())["findings"][0]
        payload = "\x1f".join(
            (finding["rule"], finding["path"], line.strip(), "0")
        )
        Path("invariants-baseline.json").write_text(json.dumps({
            "version": 1,
            "entries": [{
                "fingerprint":
                    hashlib.sha256(payload.encode()).hexdigest()[:16],
                "rule": finding["rule"],
                "path": finding["path"],
                "reason": "accepted in a ledger",
            }],
        }))
        capsys.readouterr()
        assert main(["lint", "clocky.py"]) == 1
        assert "DET003" in capsys.readouterr().out


class TestGateScript:
    def run_gate(self, *argv):
        return subprocess.run(
            [sys.executable, str(GATE), *argv],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )

    def test_gate_has_no_baseline_flag(self, tmp_path):
        proc = self.run_gate("--baseline", str(tmp_path / "ledger.json"))
        assert proc.returncode == 2
        assert "--baseline" in proc.stderr

    def test_gate_passes_on_the_committed_tree(self, tmp_path):
        artifact = tmp_path / "report.json"
        proc = self.run_gate("--json", str(artifact))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(artifact.read_text())["ok"] is True

    def test_gate_fails_on_an_injected_violation(self, tmp_path):
        """Negative smoke: doctor a copy, assert the gate goes red."""
        copy = tmp_path / "repro"
        shutil.copytree(SRC_REPRO, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        victim = copy / "bgp" / "ip.py"
        victim.write_text(
            victim.read_text()
            + "\n\ndef _smoke_injected_violation():\n"
            + "    import time\n"
            + "    return time.time()\n"
        )
        artifact = tmp_path / "report.json"
        proc = self.run_gate(
            "--paths", str(tmp_path), "--json", str(artifact),
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "DET003" in proc.stdout
        report = json.loads(artifact.read_text())
        assert report["ok"] is False
        assert any(
            f["rule"] == "DET003" and f["path"].endswith("ip.py")
            for f in report["findings"]
        )
