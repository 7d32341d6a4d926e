"""Frontier object semantics and the engine's breadth-first search.

Two layers: :class:`~repro.concolic.frontier.Frontier` as plain data
(FIFO pops, round-robin splitting, the deterministic first-writer-wins
merge, picklability) and generational search driven end-to-end
through :class:`ConcolicEngine`.
"""

import dataclasses
import pickle

from repro.concolic.engine import ConcolicEngine
from repro.concolic.frontier import (
    Frontier,
    FrontierEntry,
    plan_round,
    seed_key,
)
from repro.concolic.symbolic import SymBytes


def entry(key, *, bound=0):
    return FrontierEntry(input=SymBytes(b"\x00", {}), bound=bound, key=key)


def frontier_with(keys):
    frontier = Frontier()
    for key in keys:
        frontier.push(entry(key))
    return frontier


class TestPopOrder:
    def test_bfs_is_fifo(self):
        frontier = frontier_with([1, 2, 3])
        assert [frontier.pop().key for _ in range(3)] == [1, 2, 3]

    def test_interleaved_pushes_queue_behind_earlier_entries(self):
        # A generation's children run after every entry already queued.
        frontier = frontier_with([1, 2])
        assert frontier.pop().key == 1
        frontier.push(entry(10))
        frontier.push(entry(11))
        assert [frontier.pop().key for _ in range(3)] == [2, 10, 11]


class TestSeeding:
    def test_from_seeds_assigns_flip_keys_by_position(self):
        seeds = [SymBytes(b"\x00", {}), SymBytes(b"\x01", {})]
        frontier = Frontier.from_seeds(seeds)
        assert [e.key for e in frontier.entries] == [seed_key(0), seed_key(1)]
        assert frontier.seen_flips == {seed_key(0), seed_key(1)}

    def test_seed_keys_are_process_stable(self):
        # Plain values, no salted hash(): the same seed position must
        # map to the same key in any process.
        assert seed_key(0) == seed_key(0)
        assert seed_key(0) != seed_key(1)


class TestSplit:
    def test_split_of_a_root_frontier_deals_seed_i_to_shard_i_mod_k(self):
        """Round 0's rule: shard ``j`` of ``k`` keeps exactly the seeds
        ``i`` with ``i % k == j``, in seed order."""
        seeds = [SymBytes(bytes([i]), {}) for i in range(7)]
        for count in (1, 2, 3, 7):
            shards = Frontier.from_seeds(seeds).split(count)
            for index, shard in enumerate(shards):
                assert [e.key for e in shard.entries] == [
                    seed_key(i) for i in range(7) if i % count == index
                ]
                assert [bytes(e.input) for e in shard.entries] == [
                    bytes([i]) for i in range(7) if i % count == index
                ]

    def test_split_deals_round_robin_by_position(self):
        # Leftovers may all descend from one hot seed; split spreads
        # them by position — that is the whole point of the round
        # barrier.
        frontier = frontier_with([1, 2, 3, 4, 5])
        shards = frontier.split(2)
        assert [e.key for e in shards[0].entries] == [1, 3, 5]
        assert [e.key for e in shards[1].entries] == [2, 4]

    def test_shards_get_private_dedup_sets(self):
        frontier = frontier_with([1])
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
        parent = frontier_with([1, 2])
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
        first = frontier_with([])
        second = frontier_with([])
        first.push(entry(7, bound=1))
        second.push(entry(7, bound=2))
        second.push(entry(8))
        merged = Frontier.merge([first, second])
        assert [(e.key, e.bound) for e in merged.entries] == [(7, 1), (8, 0)]

    def test_merge_unions_dedup_state(self):
        first = frontier_with([])
        second = frontier_with([])
        first.seen_paths.add(1)
        second.seen_paths.add(2)
        first.seen_constraints.add(3)
        second.seen_shapes.add(4)
        merged = Frontier.merge([first, second])
        assert merged.seen_paths == {1, 2}
        assert merged.seen_constraints == {3}
        assert merged.seen_shapes == {4}

    def test_copy_shares_no_mutable_state(self):
        frontier = frontier_with([1, 2])
        frontier.seen_paths.add(9)
        clone = frontier.copy()
        assert clone == frontier
        clone.pop()
        clone.seen_paths.add(10)
        assert [e.key for e in frontier.entries] == [1, 2]
        assert frontier.seen_paths == {9}


class TestPickling:
    def test_frontier_round_trips(self):
        frontier = Frontier.from_seeds([SymBytes(b"\x05\x06", {})])
        frontier.seen_paths.add(11)
        frontier.seen_constraints.add(12)
        loaded = pickle.loads(pickle.dumps(frontier))
        assert [e.key for e in loaded.entries] == [seed_key(0)]
        assert bytes(loaded.entries[0].input) == b"\x05\x06"
        assert loaded.seen_paths == frontier.seen_paths
        assert loaded.seen_constraints == frontier.seen_constraints

    def test_an_entry_ships_input_bound_and_key_only(self):
        assert [f.name for f in dataclasses.fields(FrontierEntry)] == [
            "input", "bound", "key",
        ]


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


# -- generational search through the engine ---------------------------------


def deep_program(sym):
    """A chain of equality gates, crashing at the bottom."""
    depth = 0
    for index in range(6):
        if sym[index] == index + 1:
            depth += 1
        else:
            break
    if depth == 6:
        raise ValueError("bottom of the chain")
    return depth


def explore_deep(budget):
    """Run ``deep_program`` from an all-zero seed."""
    return ConcolicEngine(deep_program).run_shard(
        Frontier.from_seeds([SymBytes.mark_all(b"\x00" * 6)]), budget,
    )


class TestGenerationalSearch:
    def test_reaches_the_bottom(self):
        assert explore_deep(60).crashes, "missed the deep crash"

    def test_path_accounting_consistent(self):
        result = explore_deep(40)
        assert result.unique_paths <= result.executions
        assert result.branch_coverage > 0
