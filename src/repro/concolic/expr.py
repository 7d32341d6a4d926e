"""Expression and constraint AST for the concolic engine.

Expressions are immutable trees over integer-valued symbolic variables.
The vocabulary matches what protocol-parsing code actually does to bytes:
arithmetic (+ - *), bit operations (& | ^ << >>), and negation.  A
:class:`Constraint` is a comparison between two expressions plus the
direction execution took; flipping a constraint is how the engine asks
"what input goes down the other arm?".

Construction goes through the helper methods (``add``, ``bit_and``, …)
which constant-fold eagerly, so concrete subcomputations never bloat the
tree that reaches the solver.

Every node also carries a **structural fingerprint** (``fp``): a 64-bit
digest of the node's exact shape, computed bottom-up at construction
(children are immutable, so a parent's fingerprint is O(1) from its
children's).  Fingerprints are process-stable — they never touch
Python's salted ``hash`` — which makes them usable as identities that
ship across process boundaries: the concolic frontier dedups flips,
paths and covered branches by them (:mod:`repro.concolic.path`,
:mod:`repro.concolic.frontier`), and the solver's refutation pre-pass
groups constraints on the same term by them, instead of ``repr``-ing
whole ASTs.  Like ``repr``, the fingerprint is order-*sensitive*
for commutative operators (``a + b`` and ``b + a`` fingerprint
differently), so it refines structural identity rather than ``__eq__``.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

_COMMUTATIVE = frozenset(("add", "mul", "and", "or", "xor"))

# -- structural fingerprints -------------------------------------------------
#
# A splitmix64-style mixer over stable integer parts.  Strings (variable
# names) enter through a memoized blake2b digest so no salted hash ever
# leaks into a fingerprint; operator tags are fixed odd constants.

_FP_MASK = (1 << 64) - 1

_FP_TAGS = {
    tag: int.from_bytes(
        hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest(), "big"
    )
    for tag in (
        "var", "const", "un:neg", "un:not", "cmp:eq", "cmp:ne", "cmp:lt",
        "cmp:le", "cmp:gt", "cmp:ge", "bin:add", "bin:sub", "bin:mul",
        "bin:and", "bin:or", "bin:xor", "bin:shl", "bin:shr",
    )
}

_FP_NAMES: dict[str, int] = {}


def _fp_name(name: str) -> int:
    """Stable 64-bit digest of a variable name (memoized)."""
    digest = _FP_NAMES.get(name)
    if digest is None:
        digest = int.from_bytes(
            hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest(),
            "big",
        )
        # repro: allow[HRM002] content-addressed memo: the stored value
        # is a pure function of the key, so replay order cannot differ
        _FP_NAMES[name] = digest
    return digest


# The tags of `shape_hash`, one per fingerprint tag.
_SHAPE_TAGS = {tag: _fp_name("shape-" + tag) for tag in _FP_TAGS}


def _fp_mix(tag: int, *parts: int) -> int:
    """Combine a tag and integer parts into one 64-bit fingerprint."""
    acc = tag
    for part in parts:
        acc = (acc ^ (part & _FP_MASK)) * 0x9E3779B97F4A7C15 & _FP_MASK
        acc ^= acc >> 29
        acc = acc * 0xBF58476D1CE4E5B9 & _FP_MASK
        acc ^= acc >> 32
    return acc


def _fp_int(value: int) -> tuple[int, ...]:
    """Encode an arbitrary integer as prefix-decodable mixer parts.

    ``(sign, limb count, limbs...)`` — distinct integers always yield
    distinct part sequences, and concatenations of such sequences stay
    uniquely decodable (the limb count delimits each).  Frontier dedup
    drops a flip whose digest it has seen and the refutation pre-pass
    intersects constraints whose terms share one, both without
    comparing trees, so every integer entering a fingerprint must go
    through this rather than being masked to 64 bits.
    """
    if 0 <= value <= _FP_MASK:
        return (0, 1, value)  # the common case, as the loop encodes it
    magnitude = abs(value)
    limbs = []
    while True:
        limbs.append(magnitude & _FP_MASK)
        magnitude >>= 64
        if not magnitude:
            break
    return (1 if value < 0 else 0, len(limbs), *limbs)

_CMP_NEGATION = {
    "eq": "ne",
    "ne": "eq",
    "lt": "ge",
    "ge": "lt",
    "gt": "le",
    "le": "gt",
}

_CMP_PYTHON = {
    "eq": "==",
    "ne": "!=",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
}


class Expr:
    """Base class for expression nodes.

    ``fp`` is the node's structural fingerprint — a process-stable
    64-bit digest set once in ``__init__`` (see module docstring);
    ``shape`` caches :func:`shape_hash`, None until first asked.
    """

    __slots__ = ("fp", "shape")

    def variables(self) -> Iterator["Var"]:
        """Yield every variable in the tree (with repetition)."""
        raise NotImplementedError

    def evaluate(self, assignment: dict[str, int]) -> int:
        """Evaluate under a full assignment ``{var name: value}``."""
        raise NotImplementedError


class Var(Expr):
    """A bounded integer symbolic variable."""

    __slots__ = ("name", "lo", "hi")

    def __init__(self, name: str, lo: int = 0, hi: int = 255):
        if lo > hi:
            raise ValueError(f"empty domain for {name}: [{lo}, {hi}]")
        self.name = name
        self.lo = lo
        self.hi = hi
        self.fp = _fp_mix(
            _FP_TAGS["var"], _fp_name(name), *_fp_int(lo), *_fp_int(hi)
        )
        self.shape = None

    def variables(self) -> Iterator["Var"]:
        yield self

    def evaluate(self, assignment: dict[str, int]) -> int:
        return assignment[self.name]

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Var", self.name))


class Const(Expr):
    """An integer constant."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = int(value)
        self.fp = _fp_mix(_FP_TAGS["const"], *_fp_int(self.value))
        self.shape = None

    def variables(self) -> Iterator[Var]:
        return iter(())

    def evaluate(self, assignment: dict[str, int]) -> int:
        return self.value

    def __repr__(self) -> str:
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Const", self.value))


class BinOp(Expr):
    """A binary operation node; ``op`` in {add sub mul and or xor shl shr}."""

    __slots__ = ("op", "left", "right")

    OPS = frozenset(("add", "sub", "mul", "and", "or", "xor", "shl", "shr"))

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in self.OPS:
            raise ValueError(f"unknown binary op {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self.fp = _fp_mix(_FP_TAGS["bin:" + op], left.fp, right.fp)
        self.shape = None

    def variables(self) -> Iterator[Var]:
        yield from self.left.variables()
        yield from self.right.variables()

    def evaluate(self, assignment: dict[str, int]) -> int:
        a = self.left.evaluate(assignment)
        b = self.right.evaluate(assignment)
        return _apply(self.op, a, b)

    def __repr__(self) -> str:
        symbol = {
            "add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|",
            "xor": "^", "shl": "<<", "shr": ">>",
        }[self.op]
        return f"({self.left!r} {symbol} {self.right!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinOp) or self.op != other.op:
            return False
        if self.left == other.left and self.right == other.right:
            return True
        if self.op in _COMMUTATIVE:
            return self.left == other.right and self.right == other.left
        return False

    def __hash__(self) -> int:
        if self.op in _COMMUTATIVE:
            child_hash = hash(self.left) ^ hash(self.right)
        else:
            child_hash = hash((hash(self.left), hash(self.right)))
        return hash(("BinOp", self.op, child_hash))


class UnOp(Expr):
    """A unary operation node; ``op`` in {neg, not} (not = bitwise invert)."""

    __slots__ = ("op", "operand")

    OPS = frozenset(("neg", "not"))

    def __init__(self, op: str, operand: Expr):
        if op not in self.OPS:
            raise ValueError(f"unknown unary op {op!r}")
        self.op = op
        self.operand = operand
        self.fp = _fp_mix(_FP_TAGS["un:" + op], operand.fp)
        self.shape = None

    def variables(self) -> Iterator[Var]:
        yield from self.operand.variables()

    def evaluate(self, assignment: dict[str, int]) -> int:
        value = self.operand.evaluate(assignment)
        return -value if self.op == "neg" else ~value

    def __repr__(self) -> str:
        symbol = "-" if self.op == "neg" else "~"
        return f"{symbol}{self.operand!r}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UnOp)
            and self.op == other.op
            and self.operand == other.operand
        )

    def __hash__(self) -> int:
        return hash(("UnOp", self.op, hash(self.operand)))


def _apply(op: str, a: int, b: int) -> int:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return a << b
    if op == "shr":
        return a >> b
    raise AssertionError(op)


def make_binop(op: str, left: Expr, right: Expr) -> Expr:
    """Build a binary node with eager constant folding and identities."""
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(_apply(op, left.value, right.value))
    # Cheap identities that keep decoder-generated trees small.
    if isinstance(right, Const):
        value = right.value
        if value == 0 and op in ("add", "sub", "or", "xor", "shl", "shr"):
            return left
        if value == 0 and op in ("mul", "and"):
            return Const(0)
        if value == 1 and op == "mul":
            return left
    if isinstance(left, Const):
        value = left.value
        if value == 0 and op in ("add", "or", "xor"):
            return right
        if value == 0 and op in ("mul", "and", "shl", "shr"):
            return Const(0)
        if value == 1 and op == "mul":
            return right
    return BinOp(op, left, right)


def make_unop(op: str, operand: Expr) -> Expr:
    """Build a unary node with constant folding."""
    if isinstance(operand, Const):
        value = operand.value
        return Const(-value if op == "neg" else ~value)
    if isinstance(operand, UnOp) and operand.op == op:
        return operand.operand  # double negation / double invert
    return UnOp(op, operand)


def shape_hash(node: "Expr | Constraint") -> int:
    """A process-stable 64-bit hash that ignores variable identity.

    Two constraints recorded at the same program branch on different
    input offsets (e.g. the per-NLRI ``length <= 32`` check) differ in
    variable names but share their *shape*; counting distinct shapes
    approximates code-site branch coverage, which is comparable across
    exploration strategies that mark different offsets.

    Built on the same salted-hash-free mixer as ``fp`` so shape sets can
    be shipped between processes (frontier shards merge their dedup
    state in the orchestrator, which generally runs with a different
    ``PYTHONHASHSEED`` than the workers).

    Derived once per node, bottom-up, and kept in the node's ``shape``
    slot: every branch of an execution that compares a subtree already
    hashed costs one mix.
    """
    shape = node.shape
    if shape is None:
        shape = node.shape = _shape_of(node)
    return shape


def _shape_of(node: "Expr | Constraint") -> int:
    if isinstance(node, BinOp):
        left = shape_hash(node.left)
        right = shape_hash(node.right)
        if node.op in _COMMUTATIVE:
            # XOR keeps commutative operands order-insensitive.
            return _fp_mix(_SHAPE_TAGS["bin:" + node.op], left ^ right)
        return _fp_mix(_SHAPE_TAGS["bin:" + node.op], left, right)
    if isinstance(node, Constraint):
        return _fp_mix(_SHAPE_TAGS["cmp:" + node.op],
                       shape_hash(node.left), shape_hash(node.right))
    if isinstance(node, Const):
        return _fp_mix(_SHAPE_TAGS["const"], *_fp_int(node.value))
    if isinstance(node, Var):
        return _SHAPE_TAGS["var"]
    assert isinstance(node, UnOp)
    return _fp_mix(_SHAPE_TAGS["un:" + node.op], shape_hash(node.operand))


class Constraint:
    """One recorded branch: ``left <op> right`` held (or not) at runtime.

    ``fp`` fingerprints the whole comparison (see module docstring);
    frontier dedup and branch coverage key on it in O(1) per
    constraint instead of rendering ASTs with ``repr``.
    """

    __slots__ = ("op", "left", "right", "fp", "shape")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _CMP_NEGATION:
            raise ValueError(f"unknown comparison {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self.fp = _fp_mix(_FP_TAGS["cmp:" + op], left.fp, right.fp)
        self.shape = None

    def negated(self) -> "Constraint":
        """The constraint for the other branch arm."""
        return Constraint(_CMP_NEGATION[self.op], self.left, self.right)

    def holds(self, assignment: dict[str, int]) -> bool:
        """Evaluate under a full assignment."""
        a = self.left.evaluate(assignment)
        b = self.right.evaluate(assignment)
        if self.op == "eq":
            return a == b
        if self.op == "ne":
            return a != b
        if self.op == "lt":
            return a < b
        if self.op == "le":
            return a <= b
        if self.op == "gt":
            return a > b
        return a >= b

    def variables(self) -> Iterator[Var]:
        """All variables mentioned by either side."""
        yield from self.left.variables()
        yield from self.right.variables()

    def __repr__(self) -> str:
        return f"{self.left!r} {_CMP_PYTHON[self.op]} {self.right!r}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constraint)
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("Constraint", self.op, hash(self.left), hash(self.right)))
