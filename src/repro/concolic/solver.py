"""Constraint solver for recorded path conditions.

The solver answers: *given the constraints C1..Cn (all of which must
hold), find integer values for the symbolic variables within their
domains* — or report failure.  It is built for the constraint shapes a
protocol decoder produces:

* single-byte tests (``b17 == 2``, ``b0 & 0x10 != 0``),
* multi-byte big-endian combinations (``(b16 << 8) | b17 == 45``),
* range checks (``length <= 32``), and
* masked comparisons from prefix matching.

Strategy, in order of escalation:

1. **refutation pre-pass** — one step per constraint bounds both sides
   by an interval *and* a mask of the bits that may be set (so
   ``x & ~mask`` over bytes the mask already covers is seen to be the
   constant 0), then intersects what the constraints so far say about
   the same term (``x == c`` beside ``x != c``).  It answers only when
   no assignment inside the variables' domains can satisfy the system —
   a dead branch arm, the common case when flipping a parser's sanity
   checks.  The steps are taken as constraints are pushed into a
   :class:`PathCondition`, so a flip query on a path whose prefix is
   already folded costs one step;
2. **hint-guided repair** — start from the previous concrete input (so
   most constraints already hold), repeatedly pick the first violated
   constraint and *invert* it algebraically onto one of its variables.
   Inversion understands affine forms, shifts, masks and byte
   concatenations.  The path condition knows which constraints the start
   assignment violates, so a round evaluates only the constraints that
   mention a variable the repair has moved;
3. **randomized search** — bounded random restarts over the variables of
   still-violated constraints.

Every model returned is verified against the full constraint set, so a
non-``None`` result is always sound.  ``None`` has two meanings, told
apart in :class:`SolverStats`: *refuted* is a proof that the system is
unsatisfiable; *exhausted* means steps 2 and 3 spent their whole budget
(:data:`MAX_REPAIR_ROUNDS` rounds, then :data:`MAX_RESTARTS` restarts
of as many) without a model — possibly unsat, possibly just hard.

Every query is solved; no answer is remembered between queries.  The
concolic engine never asks the same flip twice in a session (its
frontier dedups flips by digest), and the refutation pre-pass answers a
dead branch in microseconds, so a memo would have nothing left to save.
What the flips of one path share is their prefix's *facts*, not their
answers: the :class:`PathCondition` is per path and dies with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.concolic.expr import BinOp, Const, Constraint, Expr, UnOp, Var

_INF = float("inf")

# The search budget of one query: repair rounds per pass, and random
# restarts after the hint-guided pass exhausts.
MAX_REPAIR_ROUNDS = 200
MAX_RESTARTS = 40


@dataclass
class SolverStats:
    """Counters for the EXP-SOLVER benchmark.

    Every query ends in exactly one outcome — ``refuted`` (proved
    unsatisfiable before any search), ``repaired`` (the hint-guided
    repair found a model), ``random_search`` (a restart did) or
    ``exhausted`` (the budget ran out) — so the four sum to
    ``queries``.
    """

    queries: int = 0
    sat: int = 0
    unknown: int = 0
    refuted: int = 0
    repaired: int = 0
    random_search: int = 0
    exhausted: int = 0
    repair_rounds: int = 0
    random_restarts: int = 0


def _interval(expr: Expr) -> tuple[float, float]:
    """Conservative bounds for an expression over variable domains."""
    if isinstance(expr, Const):
        return (expr.value, expr.value)
    if isinstance(expr, Var):
        return (expr.lo, expr.hi)
    if isinstance(expr, UnOp):
        return _unop_interval(expr.op, *_interval(expr.operand))
    assert isinstance(expr, BinOp)
    return _binop_interval(
        expr.op, *_interval(expr.left), *_interval(expr.right)
    )


def _unop_interval(op: str, lo: float, hi: float) -> tuple[float, float]:
    if op == "neg":
        return (-hi, -lo)
    return (-hi - 1, -lo - 1)  # ~x == -x - 1


def _binop_interval(op: str, a_lo: float, a_hi: float,
                    b_lo: float, b_hi: float) -> tuple[float, float]:
    """Bounds of ``a <op> b`` from the bounds of ``a`` and ``b``."""
    if op == "add":
        return (a_lo + b_lo, a_hi + b_hi)
    if op == "sub":
        return (a_lo - b_hi, a_hi - b_lo)
    if op == "mul":
        if _INF in (a_hi, b_hi) or -_INF in (a_lo, b_lo):
            return (-_INF, _INF)  # inf * 0 is nan, which compares false
        corners = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
        return (min(corners), max(corners))
    if op == "shl":
        if b_lo < 0 or b_hi > 64:
            return (-_INF, _INF)
        corners = (
            a_lo * (1 << int(b_lo)),
            a_lo * (1 << int(b_hi)),
            a_hi * (1 << int(b_lo)),
            a_hi * (1 << int(b_hi)),
        )
        return (min(corners), max(corners))
    if op == "shr":
        if a_lo >= 0 and b_lo >= 0 and b_hi <= 64:
            return (a_lo >> int(b_hi), a_hi >> int(b_lo))
        return (-_INF, _INF)
    if a_lo < 0 or b_lo < 0:
        return (-_INF, _INF)
    if op == "and":
        return (0, min(a_hi, b_hi))
    bound = _next_pow2_minus1(int(a_hi) | int(b_hi))
    if op == "or":
        return (max(a_lo, b_lo), bound)
    return (0, bound)  # xor


def _next_pow2_minus1(value: int) -> int:
    if value <= 0:
        return 0
    return (1 << value.bit_length()) - 1


# -- refutation pre-pass -------------------------------------------------------


def _reach(expr: Expr) -> tuple[float, float, int]:
    """Sound ``(lo, hi, bits)`` for an expression over variable domains.

    ``bits`` masks the bits that *may* be set, in Python's unbounded
    two's complement: every value ``v`` the expression can take has
    ``v & ~bits == 0``.  A non-negative mask therefore proves the
    expression non-negative and at most the mask; a negative one (a
    negative constant stands for itself, ``-1`` says nothing) still
    narrows whatever it is ``and``-ed with.  Bounds and mask tighten
    each other on the way up, which is what sees through
    ``(x << 16) & ~0xFFFF0000`` — an interval alone gives up on the
    negative operand.
    """
    if isinstance(expr, Const):
        return (expr.value, expr.value, expr.value)
    if isinstance(expr, Var):
        lo, hi, bits = expr.lo, expr.hi, -1
    elif isinstance(expr, UnOp):
        lo, hi, _ = _reach(expr.operand)
        lo, hi = _unop_interval(expr.op, lo, hi)
        bits = -1
    else:
        assert isinstance(expr, BinOp)
        a_lo, a_hi, a_bits = _reach(expr.left)
        b_lo, b_hi, b_bits = _reach(expr.right)
        op = expr.op
        lo, hi = _binop_interval(op, a_lo, a_hi, b_lo, b_hi)
        if op == "and":
            bits = a_bits & b_bits
        elif op in ("or", "xor"):
            bits = a_bits | b_bits
        elif op == "shl" and 0 <= b_lo == b_hi <= 64:
            bits = a_bits << b_lo
        elif op == "shr" and 0 <= b_lo == b_hi <= 64:
            bits = a_bits >> b_lo
        else:  # add, sub, mul, variable shifts: only the width below
            bits = -1
    if lo >= 0 and hi != _INF:
        bits &= _next_pow2_minus1(int(hi))
    if bits >= 0:
        lo, hi = max(lo, 0), min(hi, bits)
    return (lo, hi, bits)


def _feasible(op: str, a_lo: float, a_hi: float,
              b_lo: float, b_hi: float) -> bool:
    """False only when the bounds *prove* ``a <op> b`` cannot hold."""
    if op == "eq":
        return not (a_hi < b_lo or a_lo > b_hi)
    if op == "ne":
        return not (a_lo == a_hi == b_lo == b_hi)
    if op == "lt":
        return a_lo < b_hi
    if op == "le":
        return a_lo <= b_hi
    if op == "gt":
        return a_hi > b_lo
    return a_hi >= b_lo


class PathCondition:
    """A conjunction of constraints and what the solver knows about it,
    folded in once per constraint.

    :meth:`push` appends one constraint and folds in its facts, in time
    linear in its size: its variables join the first-appearance order,
    each starting at its ``hint`` value when that lies in its domain and
    at its lower bound otherwise; its truth under that start assignment
    is recorded; and the refutation pre-pass takes one step
    (:meth:`_narrow`).  :meth:`negate_last` turns the last constraint
    into its negation in O(1).  A generational search pushes the held
    path one branch at a time and asks the flip of branch ``i`` as
    push(flipped), :meth:`Solver.solve`, :meth:`negate_last` — after
    which the condition is the held path through ``i`` — so every
    query on one path shares the facts of its prefix (KLEE's per-path
    solver state) and expanding a path costs time linear in its length.
    A plain list handed to :meth:`Solver.solve` is pushed the same way.
    """

    def __init__(self, hint: dict[str, int] | None = None):
        self.hint = hint
        self.constraints: list[Constraint] = []
        # Per constraint: the distinct names it mentions, in order.
        self.names: list[tuple[str, ...]] = []
        # Ascending positions of the constraints `start` violates.
        self.false_at: list[int] = []
        # Per variable name: ascending positions of the constraints
        # that mention it.
        self.occurs: dict[str, list[int]] = {}
        # First-appearance order; `start` has the same keys in order.
        self.variables: dict[str, Var] = {}
        self.start: dict[str, int] = {}
        # Position of the first constraint the pre-pass refutes.
        self.refuted_at: int | None = None
        # The pre-pass state up to `refuted_at` (see `_narrow`).
        self._terms: dict[int, tuple] = {}
        # What `negate_last` needs of the last constraint's pre-pass
        # step: the reach of its two sides (None when no step was
        # taken), and the (fp, entry) it replaced in `_terms`.
        self._last_reach: tuple[tuple, tuple] | None = None
        self._replaced: tuple[int, tuple | None] | None = None

    def __len__(self) -> int:
        return len(self.constraints)

    def push(self, constraint: Constraint) -> None:
        """Append ``constraint`` and fold in its facts."""
        index = len(self.constraints)
        hint, occurs = self.hint, self.occurs
        names = []
        for var in constraint.variables():
            name = var.name
            positions = occurs.get(name)
            if positions is None:
                occurs[name] = [index]
                self.variables[name] = var
                self.start[name] = (
                    hint[name] if hint is not None and name in hint
                    and var.lo <= hint[name] <= var.hi else var.lo
                )
            elif positions[-1] != index:
                positions.append(index)
            else:
                continue  # mentioned twice
            names.append(name)
        self.names.append(tuple(names))
        self.constraints.append(constraint)
        if not constraint.holds(self.start):
            self.false_at.append(index)
        self._last_reach = None
        if self.refuted_at is None:
            self._last_reach = (_reach(constraint.left),
                                _reach(constraint.right))
            self._narrow()

    def negate_last(self) -> None:
        """Replace the last constraint by its negation: the facts that
        do not depend on the comparison stay, its truth under the start
        assignment inverts, and the pre-pass step is taken again."""
        index = len(self.constraints) - 1
        self.constraints[index] = self.constraints[index].negated()
        if self.false_at and self.false_at[-1] == index:
            self.false_at.pop()
        else:
            self.false_at.append(index)
        if self._last_reach is not None:
            if self._replaced is not None:
                fp, entry = self._replaced
                if entry is None:
                    del self._terms[fp]
                else:
                    self._terms[fp] = entry
            self.refuted_at = None
            self._narrow()

    def _narrow(self) -> None:
        """The refutation pre-pass's step for the last constraint: set
        `refuted_at` when it proves the conjunction so far
        unsatisfiable — a proof, never a guess.

        The constraint is tested on the :func:`_reach` of its two sides;
        constraints that compare the same term with a constant are then
        intersected in `_terms` (``eq`` pins, ``lt``/``le``/``gt``/``ge``
        narrow, ``ne`` excludes points), which catches ``x == c`` beside
        ``x != c``.  Terms are grouped by fingerprint, so a 2^-64
        collision could at worst suppress one search.  An entry is
        replaced, never mutated, so `negate_last` can put it back.
        """
        index = len(self.constraints) - 1
        constraint = self.constraints[index]
        self._replaced = None
        (a_lo, a_hi, a_bits), (b_lo, b_hi, b_bits) = self._last_reach
        op = constraint.op
        if not _feasible(op, a_lo, a_hi, b_lo, b_hi):
            self.refuted_at = index
            return
        if b_lo == b_hi:
            term, value = constraint.left, b_lo
            lo, hi, bits = a_lo, a_hi, a_bits
        elif a_lo == a_hi:
            term, value, op = constraint.right, a_lo, _swap_op(op)
            lo, hi, bits = b_lo, b_hi, b_bits
        else:
            return
        lo, hi, excluded = self._terms.get(term.fp) or (lo, hi, frozenset())
        refuted = False
        if op == "eq":
            refuted = bool(value & ~bits)  # a bit the term never sets
            lo, hi = max(lo, value), min(hi, value)
        elif op == "ne":
            excluded = excluded | {value}
        elif op == "lt":
            hi = min(hi, value - 1)
        elif op == "le":
            hi = min(hi, value)
        elif op == "gt":
            lo = max(lo, value + 1)
        else:
            lo = max(lo, value)
        if refuted or lo > hi or (hi - lo < len(excluded) and all(
                point in excluded for point in range(lo, hi + 1))):
            self.refuted_at = index
            return
        self._replaced = (term.fp, self._terms.get(term.fp))
        self._terms[term.fp] = (lo, hi, excluded)

    def first_violated(self, assignment: dict[str, int],
                       false_at: list[int], moved: set[str]) -> int | None:
        """Position of the first constraint ``assignment`` violates.

        ``assignment`` differs from some base assignment at the
        variables ``moved`` only, and ``false_at`` lists, ascending, the
        constraints the base violates.  A constraint that mentions no
        moved variable is as the base left it, so only those that
        mention one are evaluated.
        """
        limit = len(self.constraints)
        for index in false_at:
            if moved.isdisjoint(self.names[index]):
                limit = index
                break
        touched = {index for name in moved for index in self.occurs[name]
                   if index < limit}
        for index in sorted(touched):
            if not self.constraints[index].holds(assignment):
                return index
        return limit if limit < len(self.constraints) else None


# -- byte-concatenation recognition ------------------------------------------


def _concat_terms(expr: Expr) -> list[tuple[Var, int]] | None:
    """Recognize ``(v0 << s0) | (v1 << s1) | ... | vk`` patterns.

    Returns [(var, shift)] with strictly decreasing, disjoint shifts, or
    None when the expression is not a clean concatenation.  ``add`` is
    accepted in place of ``or`` (decoders use both).
    """
    terms: list[tuple[Var, int]] = []

    def walk(node: Expr) -> bool:
        if isinstance(node, BinOp) and node.op in ("or", "add"):
            return walk(node.left) and walk(node.right)
        if isinstance(node, BinOp) and node.op == "shl":
            if isinstance(node.left, Var) and isinstance(node.right, Const):
                terms.append((node.left, node.right.value))
                return True
            return False
        if isinstance(node, Var):
            terms.append((node, 0))
            return True
        return False

    if not walk(expr):
        return None
    terms.sort(key=lambda item: -item[1])
    # Shifts must be multiples of 8, disjoint for byte-domain variables,
    # and each variable must appear once.
    seen_names = set()
    for index, (var, shift) in enumerate(terms):
        if shift % 8 != 0 or var.hi > 255 or var.lo < 0:
            return None
        if var.name in seen_names:
            return None
        seen_names.add(var.name)
        if index > 0 and terms[index - 1][1] - shift != 8:
            return None
    return terms


def _decompose_concat(
    terms: list[tuple[Var, int]], value: int
) -> dict[str, int] | None:
    """Split ``value`` into per-variable bytes; None when out of domain."""
    assignment = {}
    total_bits = terms[0][1] + 8
    if value < 0 or value >= (1 << total_bits):
        return None
    for var, shift in terms:
        byte = (value >> shift) & 0xFF
        if not var.lo <= byte <= var.hi:
            return None
        assignment[var.name] = byte
    return assignment


class Solver:
    """See module docstring."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self.stats = SolverStats()

    # -- public API --

    def solve(
        self,
        constraints: list[Constraint] | PathCondition,
        hint: dict[str, int] | None = None,
    ) -> dict[str, int] | None:
        """Find a verified model, starting near ``hint`` when given.

        ``constraints`` is a list, folded here into a
        :class:`PathCondition` with ``hint``, or a path condition
        already folded with its own hint (and then ``hint`` is None).
        """
        if isinstance(constraints, PathCondition):
            if hint is not None:
                raise ValueError("a PathCondition carries its own hint")
            condition = constraints
        else:
            condition = PathCondition(hint)
            for constraint in constraints:
                condition.push(constraint)
        self.stats.queries += 1
        if condition.refuted_at is not None:
            self.stats.refuted += 1
            self.stats.unknown += 1
            return None
        model = self._repair(condition, condition.start, condition.false_at)
        if model is not None:
            self.stats.repaired += 1
        else:
            model = self._random_search(condition)
            if model is None:
                self.stats.exhausted += 1
                self.stats.unknown += 1
                return None
            self.stats.random_search += 1
        self.stats.sat += 1
        return model

    # -- internals --

    def _repair(
        self, condition: PathCondition, base: dict[str, int],
        false_at: list[int],
    ) -> dict[str, int] | None:
        """Repair ``base`` (violating the constraints at ``false_at``)
        into a model, one violated constraint per round."""
        assignment = dict(base)
        # Variables whose value differs from base's.
        moved: set[str] = set()
        recently_fixed: list[Constraint] = []
        for _ in range(MAX_REPAIR_ROUNDS):
            index = condition.first_violated(assignment, false_at, moved)
            if index is None:
                return assignment
            self.stats.repair_rounds += 1
            violated = condition.constraints[index]
            # Cycle guard: if the same constraint keeps reappearing,
            # shake a random variable it mentions.
            if recently_fixed.count(violated) >= 3:
                self._shake(violated, assignment)
                recently_fixed.clear()
            else:
                recently_fixed.append(violated)
                if len(recently_fixed) > 8:
                    recently_fixed.pop(0)
                if not self._fix_constraint(violated, assignment):
                    self._shake(violated, assignment)
            # A fix or a shake only moves variables of the constraint.
            for name in condition.names[index]:
                if assignment[name] == base[name]:
                    moved.discard(name)
                else:
                    moved.add(name)
        return None

    def _shake(self, constraint: Constraint,
               assignment: dict[str, int]) -> None:
        variables = list({var.name: var for var in constraint.variables()}.values())
        if not variables:
            return
        var = self._rng.choice(variables)
        assignment[var.name] = self._rng.randint(var.lo, var.hi)

    def _fix_constraint(
        self, constraint: Constraint, assignment: dict[str, int]
    ) -> bool:
        """Try to make ``constraint`` hold by inverting onto one side."""
        left_vars = list(constraint.left.variables())
        right_vars = list(constraint.right.variables())
        # Prefer inverting the side with variables against the concrete
        # value of the other side.
        attempts = []
        if left_vars:
            target = constraint.right.evaluate(assignment)
            attempts.append((constraint.left, constraint.op, target))
        if right_vars:
            target = constraint.left.evaluate(assignment)
            attempts.append(
                (constraint.right, _swap_op(constraint.op), target)
            )
        self._rng.shuffle(attempts)
        for expr, op, target in attempts:
            if self._invert(expr, op, int(target), assignment):
                if constraint.holds(assignment):
                    return True
        return False

    def _invert(self, expr: Expr, op: str, target: int,
                assignment: dict[str, int]) -> bool:
        """Adjust variables inside ``expr`` so that ``expr op target``."""
        desired = self._desired_value(expr, op, target, assignment)
        if desired is None:
            return False
        return self._force_value(expr, desired, assignment)

    def _desired_value(self, expr: Expr, op: str, target: int,
                       assignment: dict[str, int]) -> int | None:
        """Pick a concrete value for ``expr`` satisfying ``op target``."""
        lo, hi = _interval(expr)
        if op == "eq":
            value = target
        elif op == "ne":
            current = expr.evaluate(assignment)
            if current != target:
                return current
            value = target + 1 if target + 1 <= hi else target - 1
        elif op == "lt":
            value = target - 1
        elif op == "le":
            value = target
        elif op == "gt":
            value = target + 1
        else:  # ge
            value = target
        if lo != -_INF and value < lo:
            if op in ("gt", "ge", "ne"):
                value = int(lo)
            else:
                return None
        if hi != _INF and value > hi:
            if op in ("lt", "le", "ne"):
                value = int(hi)
            else:
                return None
        return int(value)

    def _force_value(self, expr: Expr, value: int,
                     assignment: dict[str, int]) -> bool:
        """Make ``expr`` evaluate to exactly ``value`` (best effort).

        Handles: Var, affine wrappers (add/sub with constant), shifts by
        constants, masks, and byte concatenations.  Returns False when
        the shape is not invertible; the caller falls back to shaking.
        """
        if isinstance(expr, Var):
            if expr.lo <= value <= expr.hi:
                assignment[expr.name] = value
                return True
            return False
        if isinstance(expr, Const):
            return expr.value == value
        if isinstance(expr, UnOp):
            if expr.op == "neg":
                return self._force_value(expr.operand, -value, assignment)
            return self._force_value(expr.operand, ~value, assignment)
        assert isinstance(expr, BinOp)
        concat = _concat_terms(expr)
        if concat is not None:
            decomposed = _decompose_concat(concat, value)
            if decomposed is None:
                return False
            assignment.update(decomposed)
            return True
        left, right, op = expr.left, expr.right, expr.op
        left_const = isinstance(left, Const)
        right_const = isinstance(right, Const)
        if op == "add":
            if right_const:
                return self._force_value(left, value - right.value, assignment)
            if left_const:
                return self._force_value(right, value - left.value, assignment)
            # Split between sides: keep the right side at its current
            # value, push the remainder to the left.
            current_right = right.evaluate(assignment)
            return self._force_value(left, value - current_right, assignment)
        if op == "sub":
            if right_const:
                return self._force_value(left, value + right.value, assignment)
            if left_const:
                return self._force_value(right, left.value - value, assignment)
            current_right = right.evaluate(assignment)
            return self._force_value(left, value + current_right, assignment)
        if op == "mul":
            if right_const and right.value != 0 and value % right.value == 0:
                return self._force_value(left, value // right.value, assignment)
            if left_const and left.value != 0 and value % left.value == 0:
                return self._force_value(right, value // left.value, assignment)
            return False
        if op == "shl" and right_const:
            shift = right.value
            if value % (1 << shift) == 0:
                return self._force_value(left, value >> shift, assignment)
            return False
        if op == "shr" and right_const:
            shift = right.value
            return self._force_value(left, value << shift, assignment)
        if op == "and" and (right_const or left_const):
            mask = right.value if right_const else left.value
            operand = left if right_const else right
            if value & ~mask:
                return False  # impossible: bits outside the mask
            current = operand.evaluate(assignment)
            merged = (current & ~mask) | value
            return self._force_value(operand, merged, assignment)
        if op == "or" and (right_const or left_const):
            fixed = right.value if right_const else left.value
            operand = left if right_const else right
            if (value & fixed) != fixed:
                return False  # fixed bits cannot be cleared
            return self._force_value(operand, value & ~fixed, assignment)
        if op == "xor" and (right_const or left_const):
            fixed = right.value if right_const else left.value
            operand = left if right_const else right
            return self._force_value(operand, value ^ fixed, assignment)
        return False

    def _random_search(
        self, condition: PathCondition
    ) -> dict[str, int] | None:
        hint = condition.hint
        for _ in range(MAX_RESTARTS):
            self.stats.random_restarts += 1
            assignment = {}
            for name, var in condition.variables.items():
                choices = [var.lo, var.hi, self._rng.randint(var.lo, var.hi)]
                if hint is not None and name in hint:
                    choices.append(max(var.lo, min(var.hi, hint[name])))
                assignment[name] = self._rng.choice(choices)
            false_at = [
                index for index, constraint in enumerate(condition.constraints)
                if not constraint.holds(assignment)
            ]
            model = self._repair(condition, assignment, false_at)
            if model is not None:
                return model
        return None


def _swap_op(op: str) -> str:
    """Mirror a comparison when swapping its sides."""
    return {"eq": "eq", "ne": "ne", "lt": "gt", "gt": "lt",
            "le": "ge", "ge": "le"}[op]
