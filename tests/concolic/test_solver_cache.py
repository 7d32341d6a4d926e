"""Tests for the solver's constraint-system memoization cache.

The cache's soundness contract mirrors the solver's: every model it
hands back is re-verified against the *current* full constraint set, so
a stale or colliding entry can cost a miss but never a wrong answer.
"""

from repro.concolic.expr import BinOp, Const, Constraint, Var
from repro.concolic.solver import Solver, SolverCache


def byte(name):
    return Var(name, 0, 255)


def eq(var, value):
    return Constraint("eq", var, Const(value))


def system():
    """A small satisfiable decoder-style system."""
    a, b = byte("a"), byte("b")
    return [
        Constraint("eq", BinOp("or", BinOp("shl", a, Const(8)), b),
                   Const(0x1234)),
        Constraint("le", b, Const(0x80)),
    ]


class TestCacheHits:
    def test_second_identical_query_hits(self):
        solver = Solver(seed=1)
        first = solver.solve(system())
        assert first is not None
        second = solver.solve(system())
        assert second == first
        assert solver.stats.cache_hits == 1
        assert solver.stats.cache_misses == 1
        assert solver.stats.queries == 2
        assert solver.stats.sat == 2

    def test_key_is_order_insensitive(self):
        constraints = system()
        solver = Solver(seed=1)
        assert solver.solve(constraints) is not None
        assert solver.solve(list(reversed(constraints))) is not None
        assert solver.stats.cache_hits == 1

    def test_cached_model_verifies_against_full_constraint_set(self):
        """The satellite-task contract: a cache hit is re-verified.

        Poison the cache with a model that does NOT satisfy the system;
        the solver must fall through to a real solve and return a model
        that satisfies every constraint.
        """
        constraints = system()
        cache = SolverCache()
        cache.store_model(cache.key(constraints), {"a": 0, "b": 0})
        solver = Solver(seed=1, cache=cache)
        model = solver.solve(constraints)
        assert model is not None
        assert all(constraint.holds(model) for constraint in constraints)
        assert solver.stats.cache_hits == 0

    def test_cached_model_missing_variable_is_a_miss(self):
        constraints = [eq(byte("x"), 7)]
        cache = SolverCache()
        cache.store_model(cache.key(constraints), {"y": 7})
        solver = Solver(seed=1, cache=cache)
        assert solver.solve(constraints) == {"x": 7}

    def test_failure_cached_per_hint(self):
        unsat = [eq(byte("x"), 1), eq(byte("x"), 2)]
        solver = Solver(seed=1, max_repair_rounds=5, max_restarts=2)
        assert solver.solve(unsat, hint={"x": 1}) is None
        assert solver.solve(unsat, hint={"x": 1}) is None
        assert solver.stats.cache_hits == 1
        # A different hint is a genuinely different search; no hit.
        assert solver.solve(unsat, hint={"x": 2}) is None
        assert solver.stats.cache_hits == 1

    def test_failure_cached_per_budget(self):
        """A low-budget solver's failure must not suppress a bigger
        solver sharing the cache — its search might succeed."""
        unsat = [eq(byte("x"), 1), eq(byte("x"), 2)]
        cache = SolverCache()
        small = Solver(seed=1, max_repair_rounds=5, max_restarts=2,
                       cache=cache)
        assert small.solve(unsat, hint={"x": 1}) is None
        big = Solver(seed=1, cache=cache)
        assert big.solve(unsat, hint={"x": 1}) is None
        # The big solver searched for itself: miss, not a cached hit.
        assert big.stats.cache_hits == 0
        assert big.stats.cache_misses == 1

    def test_cache_shareable_across_solvers(self):
        cache = SolverCache()
        first = Solver(seed=1, cache=cache)
        model = first.solve(system())
        assert model is not None
        second = Solver(seed=99, cache=cache)
        assert second.solve(system()) == model
        assert second.stats.cache_hits == 1


class TestCacheControls:
    def test_disabled_cache_never_counts(self):
        solver = Solver(seed=1, enable_cache=False)
        assert solver.cache is None
        assert solver.solve(system()) is not None
        assert solver.solve(system()) is not None
        assert solver.stats.cache_hits == 0
        assert solver.stats.cache_misses == 0

    def test_non_positive_bound_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="max_entries"):
            SolverCache(max_entries=0)
        with pytest.raises(ValueError, match="max_entries"):
            SolverCache(max_entries=-1)

    def test_eviction_bounds_entries(self):
        cache = SolverCache(max_entries=4)
        solver = Solver(seed=1, cache=cache)
        for value in range(10):
            assert solver.solve([eq(byte("x"), value)]) == {"x": value}
        assert cache.models_cached <= 4

    def test_hit_rate(self):
        solver = Solver(seed=1)
        assert solver.stats.cache_hit_rate() == 0.0
        solver.solve(system())
        solver.solve(system())
        assert solver.stats.cache_hit_rate() == 0.5


class TestDeltaProtocol:
    """Journal, delta shipping, replay, and cross-node merge."""

    def warm(self, values, max_entries=4096, seed=1):
        cache = SolverCache(max_entries=max_entries)
        solver = Solver(seed=seed, cache=cache)
        for value in values:
            solver.solve([eq(byte("x"), value)])
        return cache

    def test_take_delta_drains_journal(self):
        cache = self.warm(range(3))
        delta = cache.take_delta("n1")
        assert len(delta) == 3
        assert delta.node == "n1"
        assert delta.base_generation == 0
        assert len(cache.take_delta("n1")) == 0  # journal drained

    def test_replay_reproduces_state_exactly(self):
        cache = self.warm(range(5))
        mirror = SolverCache()
        mirror.replay_delta(cache.take_delta("n1"))
        assert mirror.state_fingerprint() == cache.state_fingerprint()
        assert mirror.generation == cache.generation

    def test_replay_reproduces_fifo_eviction(self):
        cache = self.warm(range(10), max_entries=3)
        assert cache.models_cached <= 3
        mirror = SolverCache(max_entries=3)
        mirror.replay_delta(cache.take_delta("n1"))
        assert mirror.state_fingerprint() == cache.state_fingerprint()

    def test_replay_includes_failures(self):
        unsat = [eq(byte("x"), 1), eq(byte("x"), 2)]
        cache = SolverCache()
        solver = Solver(seed=1, max_repair_rounds=3, max_restarts=1,
                        cache=cache)
        assert solver.solve(unsat, hint={"x": 1}) is None
        mirror = SolverCache()
        mirror.replay_delta(cache.take_delta("n1"))
        assert mirror.is_failure(
            mirror.key(unsat), {"x": 1}, (3, 1)
        )

    def test_replay_onto_wrong_generation_rejected(self):
        import pytest

        cache = self.warm(range(2))
        delta = cache.take_delta("n1")
        stale = SolverCache()
        stale.store_model((1,), {"x": 0})  # generation now 1, not 0
        with pytest.raises(ValueError, match="generation"):
            stale.replay_delta(delta)

    def test_merge_is_first_writer_wins(self):
        ours = SolverCache()
        key = ours.key([eq(byte("x"), 7)])
        ours.store_model(key, {"x": 7})
        foreign = (("m", key, (("x", 99),)),)
        added = ours.merge_delta(foreign)
        assert added == 0  # present entries never replaced
        assert ours.lookup_model(key) == {"x": 7}
        assert not ours.is_merged(key)

    def test_merge_adds_missing_entries_and_marks_them(self):
        ours = SolverCache()
        theirs = self.warm([5], seed=2)
        delta = theirs.take_delta("n2")
        assert ours.merge_delta(delta.events) == 1
        key = ours.key([eq(byte("x"), 5)])
        assert ours.lookup_model(key) == {"x": 5}
        assert ours.is_merged(key)
        # A cross-node hit is counted as such by a solver using ours.
        solver = Solver(seed=3, cache=ours)
        assert solver.solve([eq(byte("x"), 5)]) == {"x": 5}
        assert solver.stats.cache_merged_hits == 1

    def test_locally_resolved_entry_loses_merged_mark(self):
        ours = SolverCache()
        key = ours.key([eq(byte("x"), 5)])
        ours.merge_delta((("m", key, (("x", 5),)),))
        assert ours.is_merged(key)
        ours.store_model(key, {"x": 5})
        assert not ours.is_merged(key)

    def test_merge_advances_generation_even_when_skipping(self):
        """Every replica must agree on sync points, so skipped events
        still count."""
        ours = SolverCache()
        key = ours.key([eq(byte("x"), 1)])
        ours.store_model(key, {"x": 1})
        before = ours.generation
        ours.merge_delta((("m", key, (("x", 1),)),))
        assert ours.generation == before + 1

    def test_merged_entries_are_not_rejournalled(self):
        ours = SolverCache()
        theirs = self.warm([5])
        ours.merge_delta(theirs.take_delta("n2").events)
        assert len(ours.take_delta("n1")) == 0

    def test_delta_is_compact_and_picklable(self):
        import pickle

        cache = self.warm(range(50))
        cache.take_delta("n1")
        solver = Solver(seed=1, cache=cache)
        for value in range(50, 55):
            solver.solve([eq(byte("x"), value)])
        delta = cache.take_delta("n1")
        assert pickle.loads(pickle.dumps(delta)) == delta
        assert len(delta) == 5
        # A delta is O(new entries), not O(cache size).
        assert len(pickle.dumps(delta)) < len(pickle.dumps(cache)) / 5

    def test_state_fingerprint_tracks_content(self):
        a = self.warm(range(3))
        b = self.warm(range(3))
        assert a.state_fingerprint() == b.state_fingerprint()
        c = self.warm(range(4))
        assert a.state_fingerprint() != c.state_fingerprint()
