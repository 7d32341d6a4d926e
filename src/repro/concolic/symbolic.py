"""Symbolic proxy values and the branch recorder.

The heart of the concolic integration: :class:`SymInt` behaves exactly
like the concrete integer it shadows — arithmetic, bit operations,
hashing, indexing — so unmodified handler code runs normally.  The two
departures from ``int``:

* operations on a SymInt produce SymInts carrying the symbolic
  expression alongside the concrete result;
* evaluating a comparison's truth value (``if length > 32:``) records a
  :class:`~repro.concolic.expr.Constraint` with the active
  :class:`PathRecorder` and then returns the *concrete* outcome.

Concretization policy (standard concolic practice, as in SAGE/CREST):
``__hash__``, ``__index__`` and ``int()`` silently use the concrete
value without pinning a constraint.  Execution may then diverge from the
recorded path on re-runs — divergences are detected and tolerated by the
engine, not prevented.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator

from repro.concolic.expr import (
    Const,
    Constraint,
    Expr,
    Var,
    make_binop,
    make_unop,
)

_ACTIVE = threading.local()

# Branches one execution may record; later ones are dropped.  The
# longest path a benchmarked campaign records is 46 branches.
MAX_BRANCHES = 20_000


def _active_recorder() -> "PathRecorder | None":
    return getattr(_ACTIVE, "recorder", None)


class PathRecorder:
    """Collects the sequence of branch constraints of one execution.

    Used as a context manager::

        with PathRecorder() as recorder:
            handler(symbolic_input)
        path = recorder.branches

    Nested recorders are not allowed (exploration never nests runs).
    """

    def __init__(self):
        self.branches: list[tuple[Constraint, bool]] = []

    def record(self, constraint: Constraint, taken: bool) -> None:
        """Append one branch observation (up to :data:`MAX_BRANCHES`)."""
        if len(self.branches) < MAX_BRANCHES:
            self.branches.append((constraint, taken))

    def path_signature(self) -> int:
        """A process-stable identity for the executed path."""
        from repro.concolic import path as pathmod

        return pathmod.signature(self.branches)

    def __enter__(self) -> "PathRecorder":
        if _active_recorder() is not None:
            raise RuntimeError("nested PathRecorder")
        # repro: allow[HRM002] thread-local recording context, scoped to
        # one with-block per exploration; never outlives the task
        _ACTIVE.recorder = self
        return self

    def __exit__(self, *exc_info) -> None:
        # repro: allow[HRM002] restores the thread-local cleared above
        _ACTIVE.recorder = None


def _record_branch(constraint: Constraint, taken: bool) -> None:
    recorder = _active_recorder()
    if recorder is not None:
        recorder.record(constraint, taken)


def _lift(value: Any) -> tuple[Expr, int] | None:
    """Coerce an operand to (expression, concrete) or None if impossible."""
    if isinstance(value, SymInt):
        return value.expr, value.concrete
    if isinstance(value, bool):
        return Const(int(value)), int(value)
    if isinstance(value, int):
        return Const(value), value
    return None


class SymBool:
    """A boolean shadowed by a branch constraint."""

    __slots__ = ("constraint", "concrete")

    def __init__(self, constraint: Constraint, concrete: bool):
        self.constraint = constraint
        self.concrete = bool(concrete)

    def __bool__(self) -> bool:
        _record_branch(self.constraint, self.concrete)
        return self.concrete

    def __repr__(self) -> str:
        return f"SymBool({self.constraint!r}, {self.concrete})"


class SymInt:
    """An integer shadowed by a symbolic expression."""

    __slots__ = ("expr", "concrete")

    def __init__(self, expr: Expr, concrete: int):
        self.expr = expr
        self.concrete = int(concrete)

    # -- conversions: silent concretization --

    def __int__(self) -> int:
        return self.concrete

    def __index__(self) -> int:
        return self.concrete

    def __hash__(self) -> int:
        return hash(self.concrete)

    def __bool__(self) -> bool:
        constraint = Constraint("ne", self.expr, Const(0))
        taken = self.concrete != 0
        _record_branch(constraint, taken)
        return taken

    def __repr__(self) -> str:
        return f"SymInt({self.expr!r}={self.concrete})"

    def __format__(self, spec: str) -> str:
        return format(self.concrete, spec)

    # -- arithmetic / bitwise --

    def _binary(self, other: Any, op: str, pyop, reflected: bool = False):
        lifted = _lift(other)
        if lifted is None:
            return NotImplemented
        other_expr, other_concrete = lifted
        if reflected:
            expr = make_binop(op, other_expr, self.expr)
            value = pyop(other_concrete, self.concrete)
        else:
            expr = make_binop(op, self.expr, other_expr)
            value = pyop(self.concrete, other_concrete)
        return SymInt(expr, value)

    def __add__(self, other):
        return self._binary(other, "add", lambda a, b: a + b)

    def __radd__(self, other):
        return self._binary(other, "add", lambda a, b: a + b, reflected=True)

    def __sub__(self, other):
        return self._binary(other, "sub", lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, "sub", lambda a, b: a - b, reflected=True)

    def __mul__(self, other):
        return self._binary(other, "mul", lambda a, b: a * b)

    def __rmul__(self, other):
        return self._binary(other, "mul", lambda a, b: a * b, reflected=True)

    def __and__(self, other):
        return self._binary(other, "and", lambda a, b: a & b)

    def __rand__(self, other):
        return self._binary(other, "and", lambda a, b: a & b, reflected=True)

    def __or__(self, other):
        return self._binary(other, "or", lambda a, b: a | b)

    def __ror__(self, other):
        return self._binary(other, "or", lambda a, b: a | b, reflected=True)

    def __xor__(self, other):
        return self._binary(other, "xor", lambda a, b: a ^ b)

    def __rxor__(self, other):
        return self._binary(other, "xor", lambda a, b: a ^ b, reflected=True)

    def __lshift__(self, other):
        return self._binary(other, "shl", lambda a, b: a << b)

    def __rlshift__(self, other):
        return self._binary(other, "shl", lambda a, b: a << b, reflected=True)

    def __rshift__(self, other):
        return self._binary(other, "shr", lambda a, b: a >> b)

    def __rrshift__(self, other):
        return self._binary(other, "shr", lambda a, b: a >> b, reflected=True)

    def __neg__(self):
        return SymInt(make_unop("neg", self.expr), -self.concrete)

    def __invert__(self):
        return SymInt(make_unop("not", self.expr), ~self.concrete)

    # Integer division/modulo concretize the divisor side: protocol code
    # divides by constants (e.g. length // 4), and the dividend expression
    # is preserved only when the division is exact at runtime; otherwise
    # we fall back to a concrete result (sound for concolic purposes).

    def __floordiv__(self, other):
        divisor = int(other) if not isinstance(other, SymInt) else other.concrete
        result = self.concrete // divisor
        if divisor != 0 and self.concrete % divisor == 0 and divisor > 0:
            # Representable as a shift only for powers of two.
            if divisor & (divisor - 1) == 0:
                shift = divisor.bit_length() - 1
                return SymInt(
                    make_binop("shr", self.expr, Const(shift)), result
                )
        return result

    def __mod__(self, other):
        divisor = int(other) if not isinstance(other, SymInt) else other.concrete
        result = self.concrete % divisor
        if divisor > 0 and divisor & (divisor - 1) == 0:
            return SymInt(
                make_binop("and", self.expr, Const(divisor - 1)), result
            )
        return result

    # -- comparisons --

    def _compare(self, other: Any, op: str, outcome: bool) -> Any:
        lifted = _lift(other)
        if lifted is None:
            return NotImplemented
        other_expr, _ = lifted
        return SymBool(Constraint(op, self.expr, other_expr), outcome)

    def __eq__(self, other):
        lifted = _lift(other)
        if lifted is None:
            return NotImplemented
        return self._compare(other, "eq", self.concrete == lifted[1])

    def __ne__(self, other):
        lifted = _lift(other)
        if lifted is None:
            return NotImplemented
        return self._compare(other, "ne", self.concrete != lifted[1])

    def __lt__(self, other):
        lifted = _lift(other)
        if lifted is None:
            return NotImplemented
        return self._compare(other, "lt", self.concrete < lifted[1])

    def __le__(self, other):
        lifted = _lift(other)
        if lifted is None:
            return NotImplemented
        return self._compare(other, "le", self.concrete <= lifted[1])

    def __gt__(self, other):
        lifted = _lift(other)
        if lifted is None:
            return NotImplemented
        return self._compare(other, "gt", self.concrete > lifted[1])

    def __ge__(self, other):
        lifted = _lift(other)
        if lifted is None:
            return NotImplemented
        return self._compare(other, "ge", self.concrete >= lifted[1])


class SymBytes:
    """A byte buffer with selected offsets shadowed by symbolic variables.

    Indexing a marked offset yields a :class:`SymInt` over that offset's
    variable; unmarked offsets yield plain ints.  Slicing produces a view
    that keeps the marks aligned.  ``len`` is always concrete.
    """

    __slots__ = ("_data", "_vars")

    def __init__(self, data: bytes, variables: dict[int, Var] | None = None):
        self._data = bytes(data)
        self._vars = dict(variables) if variables else {}
        for offset in self._vars:
            if not 0 <= offset < len(self._data):
                raise ValueError(f"mark at {offset} outside buffer")

    @staticmethod
    def mark_all(data: bytes, prefix: str = "b") -> "SymBytes":
        """Shadow every byte (byte-level fuzzing baseline)."""
        variables = {
            offset: Var(f"{prefix}{offset}", 0, 255)
            for offset in range(len(data))
        }
        return SymBytes(data, variables)

    @staticmethod
    def mark_offsets(data: bytes, offsets, prefix: str = "b") -> "SymBytes":
        """Shadow the listed offsets only (grammar-directed marking)."""
        variables = {
            offset: Var(f"{prefix}{offset}", 0, 255) for offset in offsets
        }
        return SymBytes(data, variables)

    @property
    def concrete(self) -> bytes:
        """The underlying concrete buffer."""
        return self._data

    def variables(self) -> dict[int, Var]:
        """Copy of the offset → variable map."""
        return dict(self._vars)

    def with_values(self, assignment: dict[str, int]) -> "SymBytes":
        """A new buffer with marked bytes replaced per ``assignment``."""
        data = bytearray(self._data)
        for offset, var in self._vars.items():
            if var.name in assignment:
                data[offset] = assignment[var.name] & 0xFF
        return SymBytes(bytes(data), self._vars)

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Any]:
        for offset in range(len(self._data)):
            yield self[offset]

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self._data))
            if step != 1:
                raise ValueError("SymBytes slices must be contiguous")
            variables = {
                offset - start: var
                for offset, var in self._vars.items()
                if start <= offset < stop
            }
            return SymBytes(self._data[start:stop], variables)
        offset = key.__index__()
        if offset < 0:
            offset += len(self._data)
        var = self._vars.get(offset)
        if var is None:
            return self._data[offset]
        return SymInt(var, self._data[offset])

    def __repr__(self) -> str:
        return (
            f"SymBytes({self._data!r}, marked={sorted(self._vars)})"
        )


def concrete(value: Any) -> Any:
    """Recursively strip symbolic shadows, returning plain Python values.

    Used at output boundaries (e.g. when a cloned router re-encodes
    attributes for propagation) where wire encoding needs real ints.
    """
    if isinstance(value, SymInt):
        return value.concrete
    if isinstance(value, SymBool):
        return value.concrete
    if isinstance(value, SymBytes):
        return value.concrete
    if isinstance(value, tuple):
        return tuple(concrete(item) for item in value)
    if isinstance(value, list):
        return [concrete(item) for item in value]
    if isinstance(value, dict):
        return {key: concrete(item) for key, item in value.items()}
    return value
