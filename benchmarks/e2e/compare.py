"""Judge one set of benchmark runs against another.

    python3 benchmarks/e2e/compare.py A.json B.json

A and B are files written by ``run.py --out``; A is the parent (or the
first set), B the change (or the second set).  Each (workload,
end-to-end metric) pair gets one row, judged by the metric's direction
and bound from ``BENCHMARK.json``:

* ``better``       — B's median reads better than A's;
* ``within-bound`` — B's median is worse by no more than the bound;
* ``regressed``    — B's median is worse by more than the bound;
* ``unresolved``   — worse by more than the bound, but A's own runs
  spread (first to third quartile, as a share of their median) wider
  than the bound, so the runs cannot tell.

Failed operations and failed output checks are compared exactly: any in
B that A did not have is a regression.  Exit status is non-zero when
any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import load_spec


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(runs: list[dict]) -> dict[str, dict[str, dict]]:
    """{workload: {metric: {n, q1, median, q3}}} over the un-traced runs."""
    samples: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        if run["trace"]:
            continue
        metrics = samples.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    summary: dict[str, dict[str, dict]] = {}
    for workload, metrics in samples.items():
        summary[workload] = {}
        for name, values in metrics.items():
            q1, median, q3 = quartiles(values)
            summary[workload][name] = {
                "n": len(values), "q1": q1, "median": median, "q3": q3,
            }
    return summary


def failures(runs: list[dict]) -> dict[str, tuple[int, int]]:
    """{workload: (failed operations, runs whose checks failed)}."""
    counts: dict[str, tuple[int, int]] = {}
    for run in runs:
        failed, incorrect = counts.get(run["workload"], (0, 0))
        counts[run["workload"]] = (
            failed + run["failed"], incorrect + (not run["correct"])
        )
    return counts


def judge(metric: dict, a: dict, b: dict) -> tuple[str, float]:
    """(verdict, B's relative worsening) for one metric on one workload."""
    change = (b["median"] - a["median"]) / a["median"]
    worse = change if metric["better"] == "lower" else -change
    if worse < 0:
        return "better", worse
    if worse <= metric["bound"]:
        return "within-bound", worse
    if (a["q3"] - a["q1"]) / a["median"] > metric["bound"]:
        return "unresolved", worse
    return "regressed", worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = load_spec()
    sets = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle)["runs"])
    summary_a, summary_b = (summarise(runs) for runs in sets)
    failures_a, failures_b = (failures(runs) for runs in sets)

    regressed = False
    print(f"{'workload':<18}{'metric':<22}{'A median':>12}{'B median':>12}"
          f"{'worse by':>10}{'bound':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in summary_a or workload not in summary_b:
            continue
        for metric in spec["end_to_end"]:
            a = summary_a[workload][metric["name"]]
            b = summary_b[workload][metric["name"]]
            verdict, worse = judge(metric, a, b)
            regressed |= verdict == "regressed"
            print(f"{workload:<18}{metric['name']:<22}{a['median']:>12.4f}"
                  f"{b['median']:>12.4f}{worse:>+10.1%}"
                  f"{metric['bound']:>7.0%}  {verdict}")
        verdict = "regressed" if any(
            b > a for a, b in zip(failures_a[workload], failures_b[workload])
        ) else "equal"
        regressed |= verdict == "regressed"
        print(f"{workload:<18}{'failed ops, bad runs':<22}"
              f"{str(failures_a[workload]):>12}{str(failures_b[workload]):>12}"
              f"{'':>17}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
