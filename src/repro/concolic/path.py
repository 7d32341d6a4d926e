"""Path-condition helpers shared by the engine and its tests.

``held_path`` and ``flip_at`` state, as plain lists, what a path and
the flip of one of its branches require.  The engine never builds those
lists: :func:`flip_conditions` asks every flip of a path against one
incremental :class:`~repro.concolic.solver.PathCondition`, and
:func:`flip_signatures` digests every flip in one walk, so expanding a
path costs time linear in its length.

Path and flip identities are process-stable 64-bit digests built from
the expression-layer fingerprints (``Constraint.fp``), *not* Python's
salted ``hash()``: frontier shards ship their dedup state between
processes, so two workers (and the orchestrator) must agree on every
identity bit-for-bit.  Compactness matters too — a path can hold tens
of thousands of branches, and a digest travels as one integer instead
of one tuple element per branch.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.concolic.expr import Constraint, _fp_mix, _fp_name
from repro.concolic.solver import PathCondition

Branch = tuple[Constraint, bool]

_SIG_EMPTY = _fp_name("path:empty")
_SIG_STEP = _fp_name("path:step")


def held_constraint(branch: Branch) -> Constraint:
    """The constraint that actually held at this branch."""
    constraint, taken = branch
    return constraint if taken else constraint.negated()


def held_path(branches: list[Branch]) -> list[Constraint]:
    """The full conjunction the execution satisfied."""
    return [held_constraint(branch) for branch in branches]


def flip_at(branches: list[Branch], index: int) -> list[Constraint]:
    """Constraints characterizing 'same path up to ``index``, then the
    other arm' — the generational-search child query."""
    if not 0 <= index < len(branches):
        raise IndexError(f"flip index {index} outside path of {len(branches)}")
    prefix = [held_constraint(branch) for branch in branches[:index]]
    prefix.append(held_constraint(branches[index]).negated())
    return prefix


def flip_conditions(branches: list[Branch], indices: Iterable[int],
                    hint: dict[str, int] | None) -> Iterator[PathCondition]:
    """The path condition of the flip at each of the ascending
    ``indices`` — what ``flip_at`` lists — for :meth:`Solver.solve`.

    One condition serves every flip: the held path is pushed into it
    once, only as far as the last index, and each flip is pushed,
    yielded and negated back into the held path.  Use each before
    asking for the next.
    """
    condition = PathCondition(hint)
    for index in indices:
        while len(condition) < index:
            condition.push(held_constraint(branches[len(condition)]))
        constraint, taken = branches[index]
        condition.push(constraint.negated() if taken else constraint)
        yield condition
        condition.negate_last()


def signature(branches: list[Branch]) -> int:
    """Process-stable 64-bit identity of a path."""
    acc = _SIG_EMPTY
    for constraint, taken in branches:
        acc = _fp_mix(_SIG_STEP, acc, constraint.fp, int(taken))
    return acc


def flip_signatures(branches: list[Branch]) -> Iterator[int]:
    """The identity of every *flip attempt*, in one walk, for
    deduplication across executions.

    Item ``i`` digests "the path prefix up to ``i`` with branch ``i``
    inverted" — exactly the child the generational search would queue —
    in O(1) from the running digest of the prefix.
    """
    acc = _SIG_EMPTY
    for constraint, taken in branches:
        yield _fp_mix(_SIG_STEP, acc, constraint.fp, int(not taken))
        acc = _fp_mix(_SIG_STEP, acc, constraint.fp, int(taken))
