"""Tests for the concolic exploration engine."""

import random

import pytest

from path_oracle import flip_signature

from repro.concolic import solver as solver_module
from repro.concolic.engine import ConcolicEngine
from repro.concolic.expr import Constraint
from repro.concolic.frontier import Frontier, plan_round
from repro.concolic.path import flip_at, flip_signatures, held_path, signature
from repro.concolic.solver import Solver
from repro.concolic.symbolic import MAX_BRANCHES, SymBytes
from repro.core.explorer import random_mutations


def branchy_program(sym):
    """A small program with a nested branch structure and a rare crash."""
    if sym[0] > 100:
        if sym[1] == 77:
            raise ValueError("crash path")
        return "high"
    if sym[0] > 50:
        return "mid"
    if sym[1] & 0x01:
        return "low-odd"
    return "low-even"


def looping_program(sym):
    """One branch on ``sym[0] > 1``, taken past the branch cap."""
    for _ in range(MAX_BRANCHES + 5):
        bool(sym[0] > 1)
    return "done"


class TestRunOnce:
    def test_records_path(self):
        engine = ConcolicEngine(branchy_program)
        execution = engine.run_once(SymBytes.mark_all(b"\x00\x00"))
        assert execution.result == "low-even"
        assert len(execution.branches) == 3
        assert not execution.crashed

    def test_long_run_records_at_most_max_branches(self):
        engine = ConcolicEngine(looping_program)
        execution = engine.run_once(SymBytes.mark_all(b"\x00"))
        assert execution.result == "done"
        assert len(execution.branches) == MAX_BRANCHES

    def test_expanding_the_longest_run_visits_each_branch_a_few_times(
            self, monkeypatch):
        """Every flip of a path is asked against one path condition, so
        expanding it costs work linear in its length: each branch's
        sides are bounded and its truth evaluated a constant number of
        times, however many flips share its prefix.  Counted, not
        timed; asked one fresh list each, these 20 000 flips would
        visit about 2 * 10^8 constraints."""
        visits = {"reach": 0, "holds": 0}
        reach, holds = solver_module._reach, Constraint.holds

        def counted_reach(expr):
            visits["reach"] += 1
            return reach(expr)

        def counted_holds(constraint, assignment):
            visits["holds"] += 1
            return holds(constraint, assignment)

        monkeypatch.setattr(solver_module, "_reach", counted_reach)
        monkeypatch.setattr(Constraint, "holds", counted_holds)
        solver = Solver(seed=1)
        engine = ConcolicEngine(looping_program, solver)
        execution = engine.run_once(SymBytes.mark_all(b"\x00"))
        children = engine._expand(execution, Frontier())
        # `b0 > 1` is reachable at the first flip only: every later one
        # contradicts the held `b0 <= 1` before it.
        assert [child.input.concrete for child in children] == [b"\x02"]
        assert solver.stats.queries == MAX_BRANCHES
        assert solver.stats.refuted == MAX_BRANCHES - 1
        assert visits["reach"] <= 4 * MAX_BRANCHES
        assert visits["holds"] <= 2 * MAX_BRANCHES

    def test_captures_crash(self):
        engine = ConcolicEngine(branchy_program)
        execution = engine.run_once(SymBytes.mark_all(bytes([200, 77])))
        assert execution.crashed
        assert isinstance(execution.exception, ValueError)

    def test_harness_errors_propagate(self):
        def bad(sym):
            raise KeyboardInterrupt

        engine = ConcolicEngine(bad)
        with pytest.raises(KeyboardInterrupt):
            engine.run_once(SymBytes.mark_all(b"\x00"))


class TestExplore:
    def test_discovers_all_paths(self):
        engine = ConcolicEngine(branchy_program)
        result = engine.explore([SymBytes.mark_all(b"\x00\x00")], 40)
        # Paths: high-crash, high-ok, mid, low-odd, low-even = 5.
        assert result.unique_paths == 5
        assert result.frontier_exhausted

    def test_finds_rare_crash(self):
        engine = ConcolicEngine(branchy_program)
        result = engine.explore([SymBytes.mark_all(b"\x00\x00")], 40)
        assert len(result.crashes) == 1
        crash_input = result.crashes[0].input.concrete
        assert crash_input[0] > 100
        assert crash_input[1] == 77

    def test_explore_is_bfs_from_the_seeds(self):
        seeds = [SymBytes.mark_all(b"\x00\x00")]
        explored = ConcolicEngine(branchy_program, Solver(seed=2)).explore(
            seeds, 4
        )
        frontier = Frontier.from_seeds(seeds)
        sharded = ConcolicEngine(branchy_program, Solver(seed=2)).run_shard(
            frontier, 4
        )
        assert ((explored.executions, explored.unique_paths,
                 explored.branch_coverage, explored.solver_queries)
                == (sharded.executions, sharded.unique_paths,
                    sharded.branch_coverage, sharded.solver_queries))

    def test_stop_at_first_fault_on_a_crash(self):
        engine = ConcolicEngine(branchy_program, stop_at_first_fault=True)
        result = engine.explore([SymBytes.mark_all(bytes([200, 77]))], 100)
        assert result.crashes
        assert result.executions == 1

    def test_stop_at_first_fault_on_a_violation_count(self):
        """A non-zero return is a fault: the run ends there, before its
        branches are negated."""

        def violations(sym):
            return 1 if sym[0] > 100 else 0

        def run(stop):
            engine = ConcolicEngine(violations, stop_at_first_fault=stop)
            frontier = Frontier.from_seeds([SymBytes.mark_all(b"\xff")])
            return engine.run_shard(frontier, 10), frontier

        full, _ = run(False)
        assert (full.executions, full.solver_queries) == (2, 1)
        stopped, frontier = run(True)
        assert (stopped.executions, stopped.solver_queries) == (1, 0)
        assert not stopped.crashes
        assert not frontier.entries  # no child was queued

    def test_run_each_stops_at_first_fault(self):
        engine = ConcolicEngine(
            lambda sym: int(sym.concrete[0] == 3), stop_at_first_fault=True
        )
        inputs = (SymBytes(bytes([value]), {}) for value in range(10))
        assert engine.run_each(inputs, Frontier()).executions == 4

    def test_budget_respected(self):
        engine = ConcolicEngine(branchy_program)
        result = engine.explore([SymBytes.mark_all(b"\x00\x00")], 3)
        assert result.executions == 3

    def test_budget_below_one_rejected(self):
        engine = ConcolicEngine(branchy_program)
        with pytest.raises(ValueError, match="budget"):
            engine.explore([SymBytes.mark_all(b"\x00\x00")], 0)

    def test_no_marks_no_children(self):
        engine = ConcolicEngine(branchy_program)
        result = engine.explore([SymBytes(b"\x00\x00", {})], 10)
        assert result.executions == 1
        assert result.unique_paths == 1

    def test_deterministic_given_seeded_solver(self):
        def run():
            engine = ConcolicEngine(branchy_program, solver=Solver(seed=5))
            result = engine.explore([SymBytes.mark_all(b"\x00\x00")], 30)
            return (result.executions, result.unique_paths,
                    len(result.crashes))

        assert run() == run()


class TestPathHelpers:
    def _branches(self, data):
        engine = ConcolicEngine(branchy_program)
        return engine.run_once(SymBytes.mark_all(data)).branches

    def test_held_path_satisfied_by_input(self):
        branches = self._branches(bytes([10, 2]))
        for constraint in held_path(branches):
            assert constraint.holds({"b0": 10, "b1": 2})

    def test_flip_at_negates_index(self):
        branches = self._branches(bytes([10, 2]))
        flipped = flip_at(branches, 0)
        # Original first branch: b0 > 100 was False; negation: b0 > 100.
        assert not flipped[0].holds({"b0": 10, "b1": 2})
        assert flipped[0].holds({"b0": 200, "b1": 2})

    def test_flip_at_bounds(self):
        branches = self._branches(bytes([10, 2]))
        with pytest.raises(IndexError):
            flip_at(branches, 99)

    def test_signature_stable(self):
        a = self._branches(bytes([10, 2]))
        b = self._branches(bytes([12, 2]))
        assert signature(a) == signature(b)  # same path

    def test_flip_signature_distinct_per_index(self):
        branches = self._branches(bytes([10, 2]))
        sigs = list(flip_signatures(branches))
        assert sigs == [flip_signature(branches, i)
                        for i in range(len(branches))]
        assert len(set(sigs)) == len(branches)


class TestRandomBaseline:
    """The random strategy: seed mutations run feedback-free."""

    def run_random(self, seeds, rng_seed, budget, seen=None):
        engine = ConcolicEngine(branchy_program)
        return engine.run_each(
            random_mutations(seeds, random.Random(rng_seed), budget),
            Frontier() if seen is None else seen,
        )

    def test_explores_some_paths(self):
        seen = Frontier()
        result = self.run_random([SymBytes.mark_all(b"\x00\x00")], 1, 60,
                                 seen)
        assert result.executions == 60
        assert result.unique_paths == len(seen.seen_paths) >= 2
        assert result.branch_coverage == len(seen.seen_constraints)

    def test_concolic_beats_random_on_narrow_condition(self):
        """The EXP-EXPLORE shape: the nested b1 == 77 crash is a 1/256
        target random mutation rarely hits, while concolic solves it."""
        budget = 30
        concolic = ConcolicEngine(branchy_program)
        concolic_result = concolic.explore(
            [SymBytes.mark_all(b"\x00\x00")], budget
        )
        random_result = self.run_random(
            [SymBytes.mark_all(b"\x00\x00")], 9, budget
        )
        assert concolic_result.unique_paths >= random_result.unique_paths
        assert concolic_result.crashes

    def test_unmarked_input_returns_same(self):
        unmarked = SymBytes(b"\x00\x00", {})
        mutations = list(random_mutations([unmarked], random.Random(1), 5))
        assert mutations == [unmarked] * 5
        assert self.run_random([unmarked], 1, 5).executions == 5

    def test_mutations_cycle_through_the_seeds_and_draw_lazily(self):
        seeds = [SymBytes.mark_all(b"\x00\x00"), SymBytes(b"\x07", {})]
        rng = random.Random(4)
        mutations = random_mutations(seeds, rng, 4)
        first = next(mutations)
        state = rng.getstate()
        assert next(mutations) is seeds[1]  # unmarked: passed through
        assert rng.getstate() == state  # ... drawing nothing
        assert [len(m.concrete) for m in (first, *mutations)] == [2, 2, 1]


def explore_in_rounds(engine, seeds, budget, max_shards):
    """The campaign's shard rounds, composed from the same primitives:
    deal the entries by position, run each shard under its budget
    slice, merge first-writer-wins, repeat over the leftovers."""
    merged = Frontier.from_seeds(seeds)
    crashes = 0
    while (plan := plan_round(len(merged), budget, max_shards)) is not None:
        shards = merged.split(plan.count)
        for shard, slice_ in zip(shards, plan.budgets, strict=True):
            result = engine.run_shard(shard, slice_)
            budget -= result.executions
            crashes += len(result.crashes)
        merged = Frontier.merge(shards)
    return merged, crashes


class TestShardedExploration:
    def test_sharded_explore_finds_every_path(self):
        engine = ConcolicEngine(branchy_program)
        final, crashes = explore_in_rounds(
            engine, [SymBytes.mark_all(b"\x00\x00")], 40, 4
        )
        assert len(final.seen_paths) == 5
        assert crashes == 1
        assert not final.entries  # exhausted

    def test_shard_count_does_not_change_the_outcome(self):
        def summary(shards):
            engine = ConcolicEngine(branchy_program, solver=Solver(seed=3))
            final, crashes = explore_in_rounds(
                engine, [SymBytes.mark_all(b"\x00\x00")], 40, shards
            )
            return (len(final.seen_paths), len(final.seen_constraints),
                    len(final.seen_shapes), crashes, len(final))

        assert summary(1) == summary(2) == summary(4)

    def test_run_shard_respects_budget_and_mutates_the_frontier(self):
        engine = ConcolicEngine(branchy_program)
        frontier = Frontier.from_seeds([SymBytes.mark_all(b"\x00\x00")])
        result = engine.run_shard(frontier, budget=1)
        assert result.executions == 1
        assert frontier.seen_paths  # dedup state accumulated in place
        assert frontier.entries  # solved children queued for the next round
        leftover = engine.run_shard(frontier, budget=100)
        assert leftover.executions >= 1
        assert result.unique_paths + leftover.unique_paths == 5

    def test_shard_results_report_solver_stats_as_deltas(self):
        """Shards share one engine/solver here; summing per-shard
        counters must equal the totals, never double-count."""
        engine = ConcolicEngine(branchy_program)
        frontier = Frontier.from_seeds([SymBytes.mark_all(b"\x00\x00")])
        first = engine.run_shard(frontier, budget=2)
        second = engine.run_shard(frontier, budget=100)
        total = first.solver_queries + second.solver_queries
        assert total == engine._solver.stats.queries
