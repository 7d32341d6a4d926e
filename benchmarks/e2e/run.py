"""The campaign benchmark's one command.

One workload, as the benchmark driver calls it::

    python3 benchmarks/e2e/run.py --workload demo27-serial --seed 0 \
        --seconds 30 --trace 0

runs whole repetitions until the next would overrun ``--seconds``
(never fewer than three), checks the outputs, prints the metrics by
name and unit, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` gives the end-to-end metrics, timed from
outside the program with nothing wrapped; ``--trace 1`` gives the
per-layer metrics from repetitions that alternate traced and clean.

Without ``--workload`` it runs every workload both ways, each in its
own process, once per ``--seeds`` value, and ``--out FILE`` keeps the
set for ``compare.py``.

Exit status is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
MIN_REPETITIONS = 3

# Per-layer metrics that are a sum of span work counts, not of spans.
WORK_METRICS = {
    "snapshot.channel_msgs": "snapshot.capture",
    "snapshot.pickle.bytes": "snapshot.pickle",
    "net.events": "net.run",
    "checks.violations": "checks.check_all",
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def peak_rss_mib() -> float:
    """Of this (repetition) process; no workload starts another."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(reps: list) -> dict[str, float]:
    """Timings are the best repetition's, not the median's.

    Noise here is one-sided: for minutes at a time the shared host runs
    work with a large working set (clone, capture) 30-60% slower, and
    never faster than the code allows.  On a quiet host the fastest of
    a run's repetitions spreads 3-8% between the quartiles of ten runs,
    so the minimum is what can resolve a change.  Sizes and memory
    repeat to within 1% either way.
    """
    stalls = [ms for rep in reps for ms in rep.stall_ms]
    sizes = [size for rep in reps for size in rep.snapshot_bytes]
    return {
        "setup_s": min(rep.setup_s for rep in reps),
        "inputs_per_s": max(rep.inputs / rep.campaign_s for rep in reps),
        "campaign_s": min(rep.campaign_s for rep in reps),
        "capture_stall_ms": min(stalls),
        "snapshot_kib": statistics.median(sizes) / 1024.0,
        "peak_rss_mib": max(rep.peak_rss_mib for rep in reps),
    }


def per_layer(names: list[str], rep, layers: dict) -> dict[str, float]:
    """One traced repetition's value for each named per-layer metric."""
    results = rep.results
    queries = sum(r.solver_queries for r in results)
    lookups = sum(r.solver_cache_hits + r.solver_cache_misses
                  for r in results)
    sat = sum(n.solver_sat for r in results for n in r.node_reports)
    own = {
        "solver.sat_ratio": sat / queries if queries else 0.0,
        "solver.cache_hit_ratio": (
            sum(r.solver_cache_hits for r in results) / lookups
            if lookups else 0.0
        ),
        "pipeline.hidden_share": statistics.fmean(
            r.capture_hidden_fraction() for r in results
        ),
        "parallel.cache_bytes": sum(r.cache_bytes_shipped() for r in results),
        "trace.spans": sum(layer.count for layer in layers.values()),
    }
    values = {}
    for name in names:
        if name in own:
            values[name] = own[name]
        elif name in WORK_METRICS:
            values[name] = layers[WORK_METRICS[name]].work
        else:
            span, stat = name.rsplit(".", 1)
            values[name] = layers[span].stat(stat)
    return values


def in_child(function, *args):
    """``function(*args)`` in a forked child; its return value.

    Every repetition gets a process of its own, because that is how a
    campaign runs for a user, and because a second repetition in one
    process measures the first one's leftovers: on a heap the first has
    churned, clones and captures run 20-30% slower and far less
    steadily.  Fork (not spawn) so that no repetition pays the imports;
    it is safe here because this process never starts a thread.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def target():
        sender.send(function(*args))

    child = context.Process(target=target)
    child.start()
    sender.close()
    try:
        return receiver.recv()
    except EOFError:
        raise SystemExit("a benchmark child process died") from None
    finally:
        child.join()


def one_repetition(workload, seed: int, quick: bool, repetition: int,
                   traced: bool):
    """Child side: run, measure memory, then the un-timed checks."""
    import spans
    import verify
    from workloads import run_repetition

    recorder = spans.Recorder(repetition)
    if traced:
        recorder.install()
    try:
        rep = run_repetition(workload, seed, quick)
    finally:
        recorder.remove()
    rep.peak_rss_mib = peak_rss_mib()
    rep.spans = recorder.spans
    rep.problems = (
        verify.check_repetition(workload, rep, quick)
        + verify.check_round_trip(rep)
    )
    if traced:
        rep.problems += verify.check_span_counts(
            workload, rep, spans.fold(rep.spans)
        )
    rep.last_capture = None  # checked; not worth the pipe
    return rep


def run_workload(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans
    import verify
    from workloads import WORKLOADS

    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    workload = WORKLOADS[args.workload]
    minimum = 1 if args.quick else MIN_REPETITIONS
    if args.trace:
        minimum = 2  # one traced, one clean

    # The un-timed serial reference runs first, inside the time budget,
    # and is the warm-up for what is timed.
    began = time.perf_counter()
    reference = in_child(verify.serial_reference, workload, args.seed,
                         args.quick)
    reps = []
    slowest = 0.0
    while True:
        elapsed = time.perf_counter() - began
        # Whole repetitions until the next one would overrun the budget.
        if len(reps) >= minimum and (
            args.quick or elapsed + slowest > args.seconds
        ):
            break
        # Traced and clean repetitions alternate so that drift in the
        # machine's speed is not read as tracing overhead.
        traced = bool(args.trace) and len(reps) % 2 == 0
        started = time.perf_counter()
        reps.append(in_child(one_repetition, workload, args.seed,
                             args.quick, len(reps), traced))
        slowest = max(slowest, time.perf_counter() - started)

    if args.trace:
        # The overhead ratio is the one metric of the run, not of a
        # repetition.
        names = [m["name"] for m in spec["per_layer"]
                 if m["name"] != "trace.overhead_ratio"]
        per_rep = [per_layer(names, rep, spans.fold(rep.spans))
                   for rep in reps if rep.spans]
        metrics = {
            name: statistics.median(values[name] for values in per_rep)
            for name in names
        }
        metrics["trace.overhead_ratio"] = (
            statistics.median(r.wall_s for r in reps if r.spans)
            / statistics.median(r.wall_s for r in reps if not r.spans)
        )
        if args.trace_out:
            spans.write_chrome_trace(
                args.trace_out, [s for rep in reps for s in rep.spans]
            )
    else:
        metrics = end_to_end(reps)

    run_problems = (
        verify.check_stability(reps)
        + verify.check_serial_reference(workload, reference, reps[0])
    )
    attempted = sum(rep.operations for rep in reps)
    failed = attempted if run_problems else sum(
        rep.operations for rep in reps if rep.problems
    )
    problems = run_problems + [p for rep in reps for p in rep.problems]

    print(f"{workload.name}  seed={args.seed}  repetitions={len(reps)}  "
          f"captures={sum(len(r.stall_ms) for r in reps)}  "
          f"operations={attempted}  failed={failed}")
    print("  campaign_s of each repetition: "
          + " ".join(f"{rep.campaign_s:.3f}" for rep in reps))
    for name, value in metrics.items():
        print(f"  {name:<28}{value:>14.4f} {units[name]}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if problems else 0


def run_everything(args) -> int:
    """Every workload in a process of its own: un-traced once per seed,
    traced once (on the first seed)."""
    from compare import summarise

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    status = 0
    for seed in args.seeds:
        for workload in spec["workloads"]:
            for trace in (0, 1) if seed == args.seeds[0] else (0,):
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", workload["name"], "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                ] + (["--quick"] if args.quick else [])
                done = subprocess.run(command, stdout=subprocess.PIPE,
                                      text=True, check=False)
                status = status or done.returncode
                *table, last = done.stdout.splitlines() or [""]
                try:
                    result = json.loads(last)
                except ValueError:  # crashed before its result line
                    print(done.stdout, flush=True)
                    status = status or 1
                    continue
                print("\n".join(table), flush=True)
                repetitions = re.search(r"repetitions=(\d+)", table[0])
                runs.append({"workload": workload["name"], "seed": seed,
                             "trace": trace,
                             "repetitions": int(repetitions.group(1)),
                             **result})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "run_seconds": seconds,
                "summary": summarise(runs),
                "runs": runs,
            }, handle, indent=1)
            handle.write("\n")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, "
                        "in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")],
                        default=[0], help="comma-separated, without "
                        "--workload: one set of runs per seed")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measuring time of one run (default: "
                        "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="FILE",
                        help="with --trace 1: write Chrome trace-event JSON")
    parser.add_argument("--quick", action="store_true",
                        help="one repetition of shrunken campaigns "
                        "(smoke test)")
    parser.add_argument("--out", metavar="FILE",
                        help="without --workload: save every run's result")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_everything(args)
    args.seconds = args.seconds or load_spec()["run_seconds"]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
