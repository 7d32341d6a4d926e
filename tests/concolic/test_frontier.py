"""Frontier object semantics and the engine's frontier disciplines.

Two layers: :class:`~repro.concolic.frontier.Frontier` as plain data
(pop orders, lineage partitioning, round-robin splitting, the
deterministic first-writer-wins merge, picklability) and the
disciplines driven end-to-end through :class:`ConcolicEngine`.
"""

import pickle

import pytest

from repro.concolic.engine import ConcolicEngine
from repro.concolic.frontier import (
    Frontier,
    FrontierDiscipline,
    FrontierEntry,
    plan_round,
    resolve_discipline,
    seed_key,
)
from repro.concolic.symbolic import SymBytes


def entry(key, *, lineage=0, novel=True, novelty_key=None, bound=0):
    return FrontierEntry(
        input=SymBytes(b"\x00", {}), bound=bound, novel=novel,
        lineage=lineage, key=key, novelty_key=novelty_key,
    )


def frontier_with(keys, discipline=FrontierDiscipline.BFS, **entry_kwargs):
    frontier = Frontier(discipline=resolve_discipline(discipline))
    for key in keys:
        frontier.push(entry(key, **entry_kwargs))
    return frontier


class TestDisciplineResolution:
    def test_enum_members_pass_through(self):
        for member in FrontierDiscipline:
            assert resolve_discipline(member) is member

    def test_legacy_strings_resolve(self):
        assert resolve_discipline("bfs") is FrontierDiscipline.BFS
        assert resolve_discipline("coverage") is FrontierDiscipline.COVERAGE

    def test_unknown_value_rejected(self):
        with pytest.raises(ValueError, match="spiral"):
            resolve_discipline("spiral")
        # A shard count is not a pop order.
        with pytest.raises(ValueError, match="unknown frontier discipline"):
            resolve_discipline("sharded")

    def test_str_is_the_wire_value(self):
        assert str(FrontierDiscipline.COVERAGE) == "coverage"

    def test_shards_pop_by_the_session_discipline(self):
        """A shard pops by its session's discipline, every round: the
        slices of a split and the merge of a round keep it."""
        first, second = frontier_with([1, 2, 3], FrontierDiscipline.DFS).split(2)
        assert [first.pop().key for _ in range(2)] == [3, 1]
        merged = Frontier.merge([first, second])
        assert merged.discipline is FrontierDiscipline.DFS
        assert all(shard.discipline is FrontierDiscipline.DFS
                   for shard in merged.partition(2))


class TestPopOrder:
    def test_bfs_is_fifo(self):
        frontier = frontier_with([1, 2, 3], FrontierDiscipline.BFS)
        assert [frontier.pop().key for _ in range(3)] == [1, 2, 3]

    def test_dfs_is_lifo(self):
        frontier = frontier_with([1, 2, 3], FrontierDiscipline.DFS)
        assert [frontier.pop().key for _ in range(3)] == [3, 2, 1]

    def test_coverage_serves_novel_entries_first(self):
        frontier = Frontier(discipline=FrontierDiscipline.COVERAGE)
        frontier.push(entry(1, novel=False))
        frontier.push(entry(2, novel=True))
        frontier.push(entry(3, novel=False))
        assert frontier.pop().key == 2

    def test_coverage_dead_novelty_degrades_to_fifo(self):
        """Once no queued flip promises an unseen constraint the
        discipline must fall back to oldest-first, explicitly — the
        historical behaviour silently depended on a generator
        default."""
        frontier = Frontier(discipline=FrontierDiscipline.COVERAGE)
        for key in (1, 2, 3):
            frontier.push(entry(key, novel=False))
        assert [frontier.pop().key for _ in range(3)] == [1, 2, 3]


class TestSeeding:
    def test_from_seeds_assigns_lineage_and_flip_keys(self):
        seeds = [SymBytes(b"\x00", {}), SymBytes(b"\x01", {})]
        frontier = Frontier.from_seeds(seeds, FrontierDiscipline.BFS)
        assert [e.lineage for e in frontier.entries] == [0, 1]
        assert frontier.seen_flips == {seed_key(0), seed_key(1)}
        assert all(e.novel for e in frontier.entries)

    def test_seed_keys_are_process_stable(self):
        # Plain values, no salted hash(): the same lineage must map to
        # the same key in any process.
        assert seed_key(0) == seed_key(0)
        assert seed_key(0) != seed_key(1)


class TestPartitionAndSplit:
    def test_partition_routes_by_lineage(self):
        frontier = Frontier(discipline=FrontierDiscipline.BFS)
        for lineage in range(6):
            frontier.push(entry(10 + lineage, lineage=lineage))
        shards = frontier.partition(2)
        assert [e.lineage for e in shards[0].entries] == [0, 2, 4]
        assert [e.lineage for e in shards[1].entries] == [1, 3, 5]

    def test_split_deals_round_robin_by_position(self):
        # All entries share one hot lineage; split must still spread
        # them — that is the whole point of the round barrier.
        frontier = frontier_with([1, 2, 3, 4, 5],
                                 FrontierDiscipline.BFS, lineage=7)
        shards = frontier.split(2)
        assert [e.key for e in shards[0].entries] == [1, 3, 5]
        assert [e.key for e in shards[1].entries] == [2, 4]

    def test_shards_get_private_dedup_sets(self):
        frontier = frontier_with([1], FrontierDiscipline.BFS)
        frontier.seen_paths.add(99)
        shards = frontier.split(2)
        shards[0].seen_paths.add(100)
        assert 100 not in frontier.seen_paths
        assert 100 not in shards[1].seen_paths
        assert 99 in shards[1].seen_paths


class TestMerge:
    def test_inherited_leftovers_all_survive(self):
        """Regression: every shard inherits the parent's full flip set,
        its siblings' queued entry keys included.  A merge that dedups
        against ``seen_flips`` would silently drop every un-run
        leftover held by shards after the first."""
        parent = frontier_with([1, 2], FrontierDiscipline.BFS)
        parent.seen_flips |= {1, 2}
        first, second = parent.split(2)
        ran = first.pop()  # shard 0 executes its entry...
        assert ran.key == 1
        first.push(entry(10))  # ...and solves one child flip.
        first.seen_flips.add(10)
        merged = Frontier.merge([first, second])
        # Shard 1 never ran its entry (key 2); it must survive even
        # though shard 0's inherited seen_flips contains key 2.
        assert [e.key for e in merged.entries] == [10, 2]

    def test_duplicate_pushes_keep_the_earlier_shard_copy(self):
        first = frontier_with([], FrontierDiscipline.BFS)
        second = frontier_with([], FrontierDiscipline.BFS)
        first.push(entry(7, bound=1))
        second.push(entry(7, bound=2))
        second.push(entry(8))
        merged = Frontier.merge([first, second])
        assert [(e.key, e.bound) for e in merged.entries] == [(7, 1), (8, 0)]

    def test_merge_unions_dedup_state(self):
        first = frontier_with([], FrontierDiscipline.BFS)
        second = frontier_with([], FrontierDiscipline.BFS)
        first.seen_paths.add(1)
        second.seen_paths.add(2)
        first.seen_constraints.add(3)
        second.seen_shapes.add(4)
        merged = Frontier.merge([first, second])
        assert merged.seen_paths == {1, 2}
        assert merged.seen_constraints == {3}
        assert merged.seen_shapes == {4}

    def test_merge_refreshes_stale_novelty(self):
        """Shard A queues a flip promising constraint 42; shard B saw
        constraint 42 this round.  After the merge the entry must not
        still claim novelty."""
        first = frontier_with([], FrontierDiscipline.BFS)
        first.push(entry(7, novel=True, novelty_key=42))
        second = frontier_with([], FrontierDiscipline.BFS)
        second.seen_constraints.add(42)
        merged = Frontier.merge([first, second])
        assert merged.entries[0].novel is False

    def test_copy_shares_no_mutable_state(self):
        frontier = frontier_with([1, 2])
        frontier.seen_paths.add(9)
        clone = frontier.copy()
        assert clone == frontier
        clone.pop()
        clone.seen_paths.add(10)
        assert [e.key for e in frontier.entries] == [1, 2]
        assert frontier.seen_paths == {9}

    def test_root_seeds_stay_novel_through_merge(self):
        first = frontier_with([], FrontierDiscipline.BFS)
        first.push(entry(seed_key(0), novel=True, novelty_key=None))
        merged = Frontier.merge([first])
        assert merged.entries[0].novel is True


class TestPickling:
    def test_frontier_round_trips(self):
        frontier = Frontier.from_seeds(
            [SymBytes(b"\x05\x06", {})], FrontierDiscipline.BFS
        )
        frontier.seen_paths.add(11)
        frontier.seen_constraints.add(12)
        loaded = pickle.loads(pickle.dumps(frontier))
        assert loaded.discipline is FrontierDiscipline.BFS
        assert [e.key for e in loaded.entries] == [seed_key(0)]
        assert bytes(loaded.entries[0].input) == b"\x05\x06"
        assert loaded.seen_paths == frontier.seen_paths
        assert loaded.seen_constraints == frontier.seen_constraints


class TestPlanRound:
    def test_done_when_no_entries_or_no_budget(self):
        assert plan_round(0, 10, 4) is None
        assert plan_round(5, 0, 4) is None

    def test_never_plans_more_shards_than_entries(self):
        plan = plan_round(2, 10, 4)
        assert plan.count == 2
        assert plan.budgets == (5, 5)

    def test_never_plans_more_shards_than_budget(self):
        plan = plan_round(10, 3, 8)
        assert plan.count == 3
        assert plan.budgets == (1, 1, 1)

    def test_budgets_are_near_equal_and_sum_to_the_budget(self):
        plan = plan_round(10, 11, 4)
        assert plan.count == 4
        assert plan.budgets == (3, 3, 3, 2)
        assert sum(plan.budgets) == 11
        assert min(plan.budgets) >= 1


# -- disciplines through the engine -------------------------------------------


def deep_program(sym):
    """A chain of equality gates: depth rewards depth-first search."""
    depth = 0
    for index in range(6):
        if sym[index] == index + 1:
            depth += 1
        else:
            break
    if depth == 6:
        raise ValueError("bottom of the chain")
    return depth


def explore_deep(frontier, budget, program=deep_program, **engine_kwargs):
    """Run ``program`` from an all-zero seed under ``frontier``."""
    return ConcolicEngine(program, **engine_kwargs).run_shard(
        Frontier.from_seeds([SymBytes.mark_all(b"\x00" * 6)], frontier),
        budget,
    )


class TestDisciplines:
    def test_unknown_discipline_rejected(self):
        with pytest.raises(ValueError, match="spiral"):
            Frontier.from_seeds([SymBytes.mark_all(b"\x00")], "spiral")

    @pytest.mark.parametrize("frontier", ["bfs", "dfs", "coverage"])
    def test_all_disciplines_reach_the_bottom(self, frontier):
        result = explore_deep(frontier, 60)
        assert result.crashes, f"{frontier} missed the deep crash"

    @pytest.mark.parametrize("frontier", ["bfs", "dfs", "coverage"])
    def test_path_accounting_consistent(self, frontier):
        result = explore_deep(frontier, 40)
        assert result.unique_paths <= result.executions
        assert result.branch_coverage > 0

    def test_dfs_reaches_depth_in_fewer_executions(self):
        """On a depth-gated program DFS needs no more runs than BFS."""

        def crash_only(sym):
            deep_program(sym)
            return 0  # no violation: only the crash is a fault

        def crash_execution_index(frontier):
            result = explore_deep(frontier, 120, crash_only,
                                  stop_at_first_fault=True)
            assert result.crashes
            return result.executions

        assert crash_execution_index("dfs") <= crash_execution_index("bfs")
