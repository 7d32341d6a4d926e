"""The filter compiler: parsed policies become closures over routes.

The semantics are BIRD's runtime:

* filters run to an explicit ``accept``/``reject``; falling off the end
  rejects the route and flags the filter (BIRD logs the same condition as
  a configuration error) — the operator-mistake checker picks this up;
* community pairs ``(a, b)`` encode as ``a << 16 | b``;
* reading an absent LOCAL_PREF yields the protocol default (100) and an
  absent MED yields 0;
* attribute writes act on a working copy; the route itself is immutable.

As in BIRD, ``Filter(definition)`` compiles a filter once, before any
route reaches it: a closure per statement and expression, community
pairs of constants folded, and an assignment or community method with a
constant operand holds the value, not a step to call for it.  A run
allocates one slotted ``_Frame``, which reads a route field only when
the filter does.  The live system, its checkpoints and every clone
share a filter (invariant 5), so nothing is compiled or written after
``__init__``; it pickles as its definition.

A filter reads the route's own values.  A symbolic one among them, put
in the attribute set by a decoded concolic input or by the explorer,
records a branch wherever the filter forces its truth, so the
*configured policy itself* contributes path constraints — the paper's
"comprehensive of both code and configuration".

The symbolic-order contract.  A symbolic value records a branch each
time its truth is forced (``bool()``).  A compiled filter forces truth
here, in this order, and nowhere else:

* ``if c``: ``c`` once, before either branch runs;
* ``a && b`` / ``a || b``: ``a``, then ``b`` only when ``a`` did not
  decide; ``! a``: ``a``;
* ``net ~ [...]``: member by member up to the first match; per member
  the masked network ``==`` (not for a /0), ``len >= low``, then
  ``len <= high``, moving on at the first false one;
* ``bgp_community ~ v`` and ``.add(v)``: ``c == v`` per community, in
  order, up to the first match; ``.delete(v)``: ``c == v`` for each.

Operands evaluate left before right; assembling the result compares no
symbolic value (``_unchanged``).  ``tests/bgp/test_policy_compiler.py``
checks it, branch for branch, against a tree-walking interpreter.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable

from repro.bgp import policy_lang as lang
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.ip import Prefix
from repro.bgp.route import Route


class PolicyRuntimeError(Exception):
    """A type or name error while evaluating a filter."""


@dataclass
class PolicyResult:
    """Outcome of running one filter over one route.  ``writes`` holds
    the accepted set's ``(field, value)`` pairs that differ from the
    route's, in field order: ``attributes`` is the route's set with them."""

    accepted: bool
    attributes: PathAttributes
    fell_through: bool = False
    writes: tuple = ()

    @property
    def verdict(self) -> str:
        """"accept" or "reject"."""
        return "accept" if self.accepted else "reject"


def community_value(high: int, low: int) -> int:
    """Encode a community pair as its 32-bit wire value."""
    return ((int(high) & 0xFFFF) << 16) | (int(low) & 0xFFFF)


class _AsPathView:
    """``bgp_path`` as a value, where a filter uses it whole."""

    def __init__(self, path: AsPath):
        self.path = path
        self.len = path.length()
        first, last = path.first_as(), path.origin_as()
        self.first = -1 if first is None else first
        self.last = -1 if last is None else last


class _NetView:
    """``net`` as a value: a prefix's network and length."""

    def __init__(self, network: Any, length: Any):
        self.network = network
        self.length = length


Step = Callable[["_Frame"], Any]
_UNSET = object()  # a working value the filter has not written
_OPERATORS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge,
              "+": operator.add, "-": operator.sub}
_ASSIGNABLE = {"bgp_origin": "origin", "bgp_med": "med",
               "bgp_local_pref": "local_pref"}
# Route provenance as an integer: 0 = locally originated (static), 1 =
# eBGP-, 2 = iBGP-learned.  Export policies always announce own prefixes.
_SOURCE_CODE = {"static": 0, "ebgp": 1, "ibgp": 2}


class _Frame:
    """One run: the route, and the values the filter wrote (``_UNSET``,
    or ``None`` for communities and path, until then), and ``net`` and
    ``bgp_path`` as values once the filter uses one whole."""

    __slots__ = ("route", "attrs", "default_lp", "origin", "med",
                 "local_pref", "communities", "path", "views")

    def __init__(self, route: Route, default_lp: int):
        self.route = route
        self.attrs = route.attributes
        self.default_lp = default_lp
        self.origin = self.med = self.local_pref = _UNSET
        self.communities = self.path = self.views = None


def _value(slot: str, unwritten: Step) -> Step:
    """Reads a working value: the write, else the route's."""
    def read(f: _Frame) -> Any:
        value = getattr(f, slot)
        return unwritten(f) if value is _UNSET else value
    return read


def _current(f: _Frame) -> Any:
    """The communities as they stand: the working list, or the route's."""
    return f.attrs.communities if f.communities is None else f.communities


def _view(f: _Frame, index: int) -> Any:
    if f.views is None:
        prefix = f.route.prefix
        f.views = (_NetView(prefix.network, prefix.length),
                   _AsPathView(f.attrs.as_path))
    return f.views[index]


_READERS: dict[str, Step] = {
    "bgp_origin": _value("origin", lambda f: f.attrs.origin),
    "bgp_med": _value("med", lambda f: 0 if f.attrs.med is None else f.attrs.med),
    "bgp_local_pref": _value("local_pref", lambda f: f.default_lp
                             if f.attrs.local_pref is None else f.attrs.local_pref),
    "source": lambda f: _SOURCE_CODE[f.route.source],
    "peer_as": lambda f: 0 if f.route.peer_as is None else f.route.peer_as,
    "bgp_community": lambda f: tuple(_current(f)),
    "net": lambda f: _view(f, 0),
    "bgp_path": lambda f: _view(f, 1),
}
# Fields read straight off the frame, without building a view.
_FIELDS: dict[tuple[str, str], Step] = {
    ("bgp_path", "len"): lambda f: f.attrs.as_path.length(),
}


def _members(right: lang.PrefixSet | Prefix) -> tuple:
    """(mask, or None for a /0; network; low; high) per set member."""
    patterns = (right.patterns if isinstance(right, lang.PrefixSet)
                else (lang.PrefixPattern(right, right.length, 32),))
    return tuple(
        ((0xFFFFFFFF << (32 - p.prefix.length)) & 0xFFFFFFFF
         if p.prefix.length else None, p.prefix.network, p.low, p.high)
        for p in patterns
    )


def _net_in(network: Any, length: Any, members: tuple) -> bool:
    for mask, member, low, high in members:
        covered = mask is None or (network & mask) == member
        if covered and length >= low and length <= high:
            return True
    return False


def _match(left: Any, right: Any) -> bool:
    """``~`` on values: containment tests by operand type."""
    if isinstance(left, _NetView) and isinstance(right, (lang.PrefixSet, Prefix)):
        return _net_in(left.network, left.length, _members(right))
    if isinstance(left, _AsPathView) and isinstance(right, lang.AsSet):
        return any(left.path.contains(int(asn)) for asn in right.asns)
    if isinstance(left, tuple):  # community list ~ value
        return any(community == right for community in left)
    raise PolicyRuntimeError(f"~ not defined between {type(left).__name__}"
                             f" and {type(right).__name__}")


def _field(base: Any, field: str) -> Any:
    if isinstance(base, _AsPathView):
        if field in ("len", "first", "last"):
            return getattr(base, field)
        raise PolicyRuntimeError(f"unknown path field {field!r}")
    if isinstance(base, _NetView):
        if field == "len":
            return base.length
        raise PolicyRuntimeError(f"unknown net field {field!r}")
    raise PolicyRuntimeError(f"no field {field!r} on {base!r}")


def _fails(message: str, *reads: Step) -> Step:
    """A step that evaluates ``reads`` in order, then raises."""
    def fail(f: _Frame) -> Any:
        for read in reads:
            read(f)
        raise PolicyRuntimeError(message)
    return fail


def _constant(node: Any) -> Any:
    """The value of an expression that reads nothing, else ``_UNSET``."""
    kind = type(node)
    if kind is lang.IntLiteral or kind is lang.BoolLiteral:
        return node.value
    if kind is lang.PrefixLiteral:
        return node.prefix
    if kind is lang.PrefixSet or kind is lang.AsSet:
        return node
    if kind is lang.PairLiteral:
        high, low = _constant(node.high), _constant(node.low)
        if type(high) in (int, bool) and type(low) in (int, bool):
            return community_value(high, low)
    return _UNSET


def _expr(node: Any) -> Step:
    """Compile an expression: a step returning its value."""
    value, kind = _constant(node), type(node)
    if value is not _UNSET:
        return lambda f: value
    if kind is lang.AttributeRef:
        return _READERS.get(node.name) or _fails(
            f"unknown attribute {node.name!r}")
    if kind is lang.PairLiteral:
        high, low = _expr(node.high), _expr(node.low)
        return lambda f: community_value(high(f), low(f))
    if kind is lang.FieldRef:
        base, field = node.base, node.field
        if type(base) is lang.AttributeRef and (base.name, field) in _FIELDS:
            return _FIELDS[base.name, field]
        read = _expr(base)
        return lambda f: _field(read(f), field)
    if kind is lang.UnaryOp:
        operand = _expr(node.operand)
        if node.op == "!":
            return lambda f: not operand(f)
        if node.op == "-":
            return lambda f: -operand(f)
        return _fails(f"unknown unary {node.op!r}", operand)
    if kind is not lang.BinaryOp:
        return _fails(f"cannot evaluate {node!r}")
    op, left, right = node.op, _expr(node.left), _expr(node.right)
    if op == "&&":
        return lambda f: bool(right(f)) if left(f) else False
    if op == "||":
        return lambda f: True if left(f) else bool(right(f))
    target = _constant(node.right)
    if op == "~":
        if getattr(node.left, "name", None) == "bgp_community" and type(target) is int:
            return lambda f: target in _current(f)
        return lambda f: _match(left(f), right(f))
    compare = _OPERATORS.get(op)
    if compare is None:
        return _fails(f"unknown operator {op!r}", left, right)
    if target is not _UNSET:
        return lambda f: compare(left(f), target)
    return lambda f: compare(left(f), right(f))


def _block(body: tuple) -> Step:
    """Compile statements up to the first verdict: a step returning True
    or False on ``accept``/``reject``, None when the block falls through."""
    steps, verdict = [], None
    for statement in body:
        if type(statement) in (lang.AcceptStmt, lang.RejectStmt):
            verdict = type(statement) is lang.AcceptStmt
            break
        steps.append(_statement(statement))

    def run(f: _Frame) -> bool | None:
        for step in steps:
            outcome = step(f)
            if outcome is not None:
                return outcome
        return verdict
    return run


def _statement(node: Any) -> Step:
    kind = type(node)
    if kind is lang.IfStmt:
        test = _expr(node.condition)
        then, otherwise = _block(node.then_branch), _block(node.else_branch)
        return lambda f: then(f) if test(f) else otherwise(f)
    if kind is lang.AssignStmt:
        value, slot = _expr(node.value), _ASSIGNABLE.get(node.target)
        if slot is None:
            return _fails(f"cannot assign to {node.target!r}", value)
        constant = _constant(node.value)

        def assign(f: _Frame) -> None:
            setattr(f, slot, value(f))

        def assign_constant(f: _Frame) -> None:
            setattr(f, slot, constant)
        return assign if constant is _UNSET else assign_constant
    if kind is not lang.MethodStmt:
        return _fails(f"unknown statement {node!r}")
    target, method, argument = node.target, node.method, node.argument
    if target == "bgp_path" and method == "prepend":
        if argument is None:
            return _fails("bgp_path.prepend needs an argument")
        asn = _expr(argument)

        def prepend(f: _Frame) -> None:
            path = f.attrs.as_path if f.path is None else f.path
            f.path = path.prepend(int(asn(f)))
        return prepend
    if target != "bgp_community":
        return _fails(f"unknown method {target}.{method}")
    if argument is None:
        return _fails(f"bgp_community.{method} needs an argument")
    value, constant = _expr(argument), _constant(argument)
    folded = constant is not _UNSET
    if method == "delete":
        def delete(f: _Frame) -> None:
            item = constant if folded else value(f)
            f.communities = [c for c in _current(f) if not c == item]
        return delete
    if method != "add":
        return _fails(f"unknown method bgp_community.{method}", value)
    # ``in`` skips ``==`` for an identical object: sound for an int,
    # which no symbolic community is.
    plain = type(constant) is int

    def add(f: _Frame) -> None:
        item, current = constant if folded else value(f), _current(f)
        if not (item in current if plain
                else any(c == item for c in current)):
            f.communities = [*current, item]
    return add


def _writes(f: _Frame) -> tuple:
    """What the accepted route's set changes: each write that differs
    from the route's value, as ``(field, value)``."""
    attrs, changes = f.attrs, {}
    for name, value in (
        ("origin", f.origin), ("med", f.med), ("local_pref", f.local_pref),
        ("communities", _UNSET if f.communities is None
         else tuple(f.communities)),
        ("as_path", _UNSET if f.path is None else f.path),
    ):
        # A write of the value already there leaves the set as it is:
        # one object fewer per evaluated route, one attribute-cache probe.
        if value is not _UNSET and not _unchanged(value, getattr(attrs, name)):
            changes[name] = value
    return tuple(changes.items()) if changes else ()


def _unchanged(new: Any, old: Any) -> bool:
    """True when ``new`` is provably the value ``old``.  Never compares a
    symbolic value (``==`` on one records a branch the filter did not
    take): such a value counts as changed unless it is the same object."""
    if new is old:
        return True
    if type(new) is tuple:
        return (
            type(old) is tuple
            and len(new) == len(old)
            and all(map(_unchanged, new, old))
        )
    return type(new) is int and type(old) is int and new == old


# What each readable name reads of a route, as ``operator.attrgetter``
# paths.
_INPUTS = {
    "bgp_origin": "attributes.origin", "bgp_med": "attributes.med",
    "bgp_local_pref": "attributes.local_pref", "source": "source",
    "peer_as": "peer_as", "bgp_community": "attributes.communities",
    "net": "prefix", "bgp_path": "attributes.as_path",
}


def _names(node: Any) -> set[str]:
    """The names a filter part reads: every ``AttributeRef``, and every
    assignment or method target, since a write is compared with, or works
    on, the value already there."""
    if type(node) is tuple:
        return set().union(*map(_names, node))
    if type(node) is lang.AttributeRef:
        return {node.name}
    if not is_dataclass(node):
        return set()
    names = ({node.target} if type(node) in (lang.AssignStmt, lang.MethodStmt)
             else set())
    for field in fields(node):
        names |= _names(getattr(node, field.name))
    return names


def _no_inputs(route: Route) -> tuple:
    return ()


class Filter:
    """A runnable filter, compiled from its definition when built.

    ``inputs`` maps a route with a concrete attribute set to the values
    the filter reads of it, so two such routes with equal inputs get one
    outcome: the same verdict, the same fall-through and the same
    writes.  It is None for a filter that names anything but the eight
    readable names; such a filter is run on every route, and raises
    where it reads one.
    """

    def __init__(self, definition: lang.FilterDef):
        self.definition = definition
        self.name = definition.name
        self._run = _block(definition.body)
        names = sorted(_names(definition.body))
        if not set(names) <= _INPUTS.keys():
            self.inputs = None
        elif names:
            self.inputs = operator.attrgetter(*map(_INPUTS.get, names))
        else:
            self.inputs = _no_inputs

    def __reduce__(self):
        # Closures do not pickle: the definition does, and compiles again.
        return (Filter, (self.definition,))

    @staticmethod
    def compile(source: str) -> "Filter":
        """Parse and compile a single filter definition."""
        return Filter(lang.parse_single_filter(source))

    def evaluate(self, route: Route, default_local_pref: int = 100) -> PolicyResult:
        """Run the filter over ``route``; never mutates the input."""
        frame = _Frame(route, default_local_pref)
        verdict = self._run(frame)
        if not verdict:
            return PolicyResult(False, route.attributes, verdict is None)
        writes, attrs = _writes(frame), route.attributes
        return PolicyResult(
            True, attrs.replace(**dict(writes)) if writes else attrs, False,
            writes,
        )

    def __repr__(self) -> str:
        return f"Filter({self.name!r})"


ACCEPT_ALL = Filter.compile("filter accept_all { accept; }")
