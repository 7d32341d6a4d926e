"""Every benchmark runs in CI, and every gated name is one CI records.

A ``benchmarks/bench_*.py`` that no step of ``.github/workflows/ci.yml``
runs checks nothing: a regression in what it asserts goes unnoticed.
A name in ``GATED_METRICS`` or ``GATED_FLAGS`` of
``scripts/check_bench_regression.py`` that no CI-run benchmark records
gates nothing.  A step runs a benchmark when the workflow names its
path outside a comment; a benchmark records a name when the name is a
string literal in its source.
"""

from __future__ import annotations

import ast
import os
import re

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(".github", "workflows", "ci.yml")
GATE_SCRIPT = os.path.join("scripts", "check_bench_regression.py")
GATES = ("GATED_METRICS", "GATED_FLAGS")
BENCH_PATH = re.compile(r"benchmarks/(bench_\w+\.py)")


def benches(root: str) -> list[str]:
    return sorted(name for name in os.listdir(os.path.join(root, "benchmarks"))
                  if name.startswith("bench_") and name.endswith(".py"))


def ci_benches(root: str) -> set[str]:
    """The benchmark files a workflow step names."""
    with open(os.path.join(root, WORKFLOW), encoding="utf-8") as handle:
        return {name for line in handle
                for name in BENCH_PATH.findall(line.split("#", 1)[0])}


def unrun_benches(root: str = REPO_ROOT) -> list[str]:
    run = ci_benches(root)
    return [name for name in benches(root) if name not in run]


def gated_names(root: str) -> list[str]:
    """The metric and flag names the regression gate reads, in order."""
    with open(os.path.join(root, GATE_SCRIPT), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = []
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id in GATES
                        for target in node.targets)):
            names.extend(ast.literal_eval(node.value))
    return names


def string_literals(path: str) -> set[str]:
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def unrecorded_gates(root: str = REPO_ROOT) -> list[str]:
    recorded: set[str] = set()
    for name in ci_benches(root) & set(benches(root)):
        recorded |= string_literals(os.path.join(root, "benchmarks", name))
    return [name for name in gated_names(root) if name not in recorded]


def benchmark_only_benches(root: str) -> set[str]:
    """The benchmark files a workflow step runs with ``--benchmark-only``,
    under which pytest-benchmark skips every test that takes no
    ``benchmark`` fixture."""
    with open(os.path.join(root, WORKFLOW), encoding="utf-8") as handle:
        steps = re.split(r"\n\s*- name:", handle.read())
    found: set[str] = set()
    for step in steps:
        text = "\n".join(line.split("#", 1)[0] for line in step.splitlines())
        if "--benchmark-only" in text:
            found |= set(BENCH_PATH.findall(text))
    return found


def skipped_recorders(root: str = REPO_ROOT) -> list[str]:
    """Tests that record metrics in a benchmark CI runs with
    ``--benchmark-only`` but take no ``benchmark`` fixture: CI skips
    them, so what they record never reaches the gate."""
    skipped = []
    for name in sorted(benchmark_only_benches(root) & set(benches(root))):
        with open(os.path.join(root, "benchmarks", name),
                  encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=name)
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("test_")
                    and "benchmark" not in {a.arg for a in node.args.args}
                    and any(isinstance(call, ast.Call)
                            and "record" in (getattr(call.func, "attr", None),
                                             getattr(call.func, "id", None))
                            for call in ast.walk(node))):
                skipped.append(f"{name}::{node.name}")
    return skipped


def test_every_bench_is_run_by_ci():
    assert unrun_benches() == [], (
        "benchmarks no CI step runs; run each from a ci.yml step, fold "
        "its claim into a tier-1 test, or delete it"
    )


def test_every_recording_test_runs_under_benchmark_only():
    assert skipped_recorders() == [], (
        "tests that record metrics but take no benchmark fixture, in a "
        "benchmark CI runs with --benchmark-only, which skips them; take "
        "the fixture (benchmark.pedantic for one round)"
    )


def test_every_gated_name_is_recorded_by_a_ci_bench():
    assert unrecorded_gates() == [], (
        "names check_bench_regression.py gates that no CI-run benchmark "
        "records; record each, or drop it from the gate"
    )


def write_tree(root, benches: dict[str, str], workflow: str,
               gates: str) -> str:
    (root / "benchmarks").mkdir()
    for name, source in benches.items():
        (root / "benchmarks" / name).write_text(source)
    (root / ".github" / "workflows").mkdir(parents=True)
    (root / WORKFLOW).write_text(workflow)
    (root / "scripts").mkdir()
    (root / GATE_SCRIPT).write_text(gates)
    return str(root)


WORKFLOW_SAMPLE = (
    "jobs:\n"
    "  bench-smoke:\n"
    "    steps:\n"
    "      - name: A\n"
    "        # not benchmarks/bench_b.py, which is informational\n"
    "        run: python -m pytest benchmarks/bench_a.py -q\n"
)


def test_guard_flags_a_bench_no_step_runs(tmp_path):
    root = write_tree(
        tmp_path,
        {"bench_a.py": "", "bench_b.py": "", "benchlib.py": ""},
        WORKFLOW_SAMPLE, "GATED_METRICS = {}\nGATED_FLAGS = ()\n",
    )
    assert unrun_benches(root) == ["bench_b.py"]


def test_guard_flags_a_gate_no_ci_bench_records(tmp_path):
    root = write_tree(
        tmp_path,
        {"bench_a.py": "record({'a_metric': 1, 'a_flag': True})\n",
         "bench_b.py": "record({'b_metric': 1})\n"},
        WORKFLOW_SAMPLE,
        "GATED_METRICS = {'a_metric': 'higher', 'b_metric': 'lower'}\n"
        "GATED_FLAGS = ('a_flag', 'c_flag')\n",
    )
    # b_metric is recorded only by a bench no step runs.
    assert unrecorded_gates(root) == ["b_metric", "c_flag"]


def test_guard_flags_a_recording_test_benchmark_only_skips(tmp_path):
    workflow = WORKFLOW_SAMPLE.replace("-q\n", "-q --benchmark-only\n")
    root = write_tree(
        tmp_path,
        {"bench_a.py": "def test_x(benchmark):\n    record({'m': 1})\n"
                       "def test_y():\n    benchlib.record({'m': 1})\n"
                       "def test_z():\n    pass\n",
         "bench_b.py": "def test_y():\n    record({'m': 1})\n"},
        workflow, "GATED_METRICS = {}\nGATED_FLAGS = ()\n",
    )
    assert skipped_recorders(root) == ["bench_a.py::test_y"]
