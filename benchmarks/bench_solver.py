"""EXP-SOLVER — solver throughput on realistic BGP path conditions.

Records real path conditions by running the BGP decoder over symbolic
grammar-generated UPDATEs, then benchmarks the solver on the flip
queries the engine would issue, issued as the engine issues them:
every flip of one path through that path's one incremental path
condition.  This isolates the concolic layer's cost centre (the repro
band notes it is "simplified/slow" compared to Oasis — this measures
exactly how slow).

Besides the outcome counters it records ``constraint_visits_per_query``:
calls to the refutation pre-pass's ``_reach`` plus calls to
``Constraint.holds``, per query — the solver's work, counted rather
than timed, by wrapping the two functions here as
``benchmarks/e2e/spans.py`` wraps its layers.

Run:  pytest benchmarks/bench_solver.py --benchmark-only -s
"""

import random
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest

import benchlib

from repro.bgp.errors import BGPError
from repro.bgp.messages import decode_message
from repro.concolic import path as pathmod
from repro.concolic import solver as solver_module
from repro.concolic.expr import Constraint
from repro.concolic.grammar import UpdateGrammar
from repro.concolic.solver import Solver
from repro.concolic.symbolic import PathRecorder


def record_path_conditions(count=20, seed=3):
    """Run the decoder over ``count`` symbolic messages; return all
    (branches, hint) pairs."""
    grammar = UpdateGrammar(rng=random.Random(seed))
    recorded = []
    for index in range(count):
        generated = grammar.generate()
        sym_input = generated.symbolic(prefix=f"m{index}_")
        with PathRecorder() as recorder:
            try:
                decode_message(sym_input)
            except BGPError:
                pass
        hint = {
            var.name: generated.data[offset]
            for offset, var in sym_input.variables().items()
        }
        recorded.append((recorder.branches, hint))
    return recorded


def solve_all(recorded):
    """Ask every flip of every recorded path, in order, through the
    path's one path condition; return the solver and the solved count."""
    solver = Solver(seed=1)
    solved = 0
    for branches, hint in recorded:
        for condition in pathmod.flip_conditions(
                branches, range(len(branches)), hint):
            if solver.solve(condition) is not None:
                solved += 1
    return solver, solved


@contextmanager
def counted_visits():
    """Count `_reach` and `Constraint.holds` calls inside the block."""
    counts = Counter()
    reach, holds = solver_module._reach, Constraint.holds

    def counted_reach(expr):
        counts["reach"] += 1
        return reach(expr)

    def counted_holds(constraint, assignment):
        counts["holds"] += 1
        return holds(constraint, assignment)

    with mock.patch.object(solver_module, "_reach", counted_reach), \
            mock.patch.object(Constraint, "holds", counted_holds):
        yield counts


@pytest.fixture(scope="module")
def recorded():
    return record_path_conditions()


def test_solver_throughput_on_decoder_paths(benchmark, recorded):
    """Solve every flip query from 20 decoder runs."""
    solver, solved = benchmark.pedantic(
        solve_all, args=(recorded,), rounds=3, iterations=1)
    # One more pass, untimed, to count the work.
    with counted_visits() as visits:
        counted, _ = solve_all(recorded)
    assert counted.stats == solver.stats
    stats = solver.stats
    rate = solved / max(1, stats.queries)
    visits_per_query = (visits["reach"] + visits["holds"]) / max(
        1, stats.queries)
    print(
        f"\n  queries={stats.queries} solved={solved} ({rate:.0%}) "
        f"refuted={stats.refuted} exhausted={stats.exhausted} "
        f"repair rounds={stats.repair_rounds} "
        f"constraint visits/query={visits_per_query:.2f}"
    )
    benchlib.record(
        "solver",
        metrics={"queries": stats.queries, "solved": solved,
                 "sat_rate": round(rate, 4),
                 "refuted": stats.refuted,
                 "exhausted": stats.exhausted,
                 "repair_rounds": stats.repair_rounds,
                 "constraint_visits_per_query": round(visits_per_query, 2)},
        config={"decoder_runs": 20, "seed": 1},
    )
    # Decoder constraints are the solver's home turf: most queries with
    # a reachable other arm must be solved.
    assert rate > 0.5


def test_solver_single_query_latency(benchmark, recorded):
    """Median single-query latency: the last flip of the longest path,
    asked as a plain list (folded into a path condition per call)."""
    branches, hint = max(recorded, key=lambda item: len(item[0]))
    longest = pathmod.flip_at(branches, len(branches) - 1)

    def solve_one():
        return Solver(seed=2).solve(longest, hint=hint)

    benchmark(solve_one)
    print(f"\n  longest path condition: {len(longest)} constraints")
