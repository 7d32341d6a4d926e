"""Smoke test of the campaign benchmark's interface (quick mode).

Runs every workload both ways through the real command line with
``--quick`` — one repetition of shrunken campaigns — and holds the
output to ``BENCHMARK.json``: every named metric present with its
unit, none unnamed, output checks passing.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--quick"],
        stdout=subprocess.PIPE, text=True, check=False, timeout=120,
    )
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    # Longest first (traced runs hold two repetitions), so that the two
    # lanes finish together.
    jobs = [(w, 1, 0) for w in reversed(WORKLOADS)]
    jobs.append(("demo27-serial", 1, 1))
    jobs += [(w, 0, 0) for w in reversed(WORKLOADS)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(jobs, pool.map(lambda job: _run(*job), jobs)))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_exactly_the_named_metrics(results, workload, trace, section):
    result = results[workload, trace, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == named
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_work_does_not_depend_on_the_network_seed(results):
    """--seed reaches the live network only: inputs, clones, solver
    queries and sessions are the same work on every seed."""
    work = ("concolic.run_once.count", "snapshot.clone.count",
            "solver.solve.count", "explorer.session.count", "campaign.count")

    def counts(seed):
        metrics = results["demo27-serial", 1, seed]["metrics"]
        return {name: metrics[name]["value"] for name in work}

    assert counts(0) == counts(1)
    assert all(value > 0 for value in counts(0).values())
