"""EXP-SOLVER — solver throughput on realistic BGP path conditions.

Records real path conditions by running the BGP decoder over symbolic
grammar-generated UPDATEs, then benchmarks the solver on the flip
queries the engine would issue.  This isolates the concolic layer's
cost centre (the repro band notes it is "simplified/slow" compared to
Oasis — this measures exactly how slow).

Run:  pytest benchmarks/bench_solver.py --benchmark-only -s
"""

import random
import time

import pytest

import benchlib

from repro.bgp.errors import BGPError
from repro.bgp.messages import decode_message
from repro.concolic import path as pathmod
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


def flip_queries(recorded):
    queries = []
    for branches, hint in recorded:
        for index in range(len(branches)):
            queries.append((pathmod.flip_at(branches, index), hint))
    return queries


@pytest.fixture(scope="module")
def queries():
    return flip_queries(record_path_conditions())


def test_solver_throughput_on_decoder_paths(benchmark, queries):
    """Solve every flip query from 20 decoder runs."""

    def solve_all():
        solver = Solver(seed=1)
        solved = 0
        for constraints, hint in queries:
            if solver.solve(constraints, hint=hint) is not None:
                solved += 1
        return solver, solved

    solver, solved = benchmark.pedantic(solve_all, rounds=3, iterations=1)
    rate = solved / max(1, solver.stats.queries)
    stats = solver.stats
    print(
        f"\n  queries={stats.queries} solved={solved} ({rate:.0%}) "
        f"refuted={stats.refuted} exhausted={stats.exhausted} "
        f"repair rounds={stats.repair_rounds}"
    )
    benchlib.record(
        "solver",
        metrics={"queries": stats.queries, "solved": solved,
                 "sat_rate": round(rate, 4),
                 "refuted": stats.refuted,
                 "exhausted": stats.exhausted,
                 "repair_rounds": stats.repair_rounds},
        config={"decoder_runs": 20, "seed": 1},
    )
    # Decoder constraints are the solver's home turf: most queries with
    # a reachable other arm must be solved.
    assert rate > 0.5


def test_solver_single_query_latency(benchmark, queries):
    """Median single-query latency (the engine's inner loop cost)."""
    longest = max(queries, key=lambda item: len(item[0]))

    def solve_one():
        return Solver(seed=2).solve(longest[0], hint=longest[1])

    benchmark(solve_one)
    print(f"\n  longest path condition: {len(longest[0])} constraints")
