"""References the policy tests compare against.

``evaluate`` walks a filter's AST for every route, as ``repro.bgp.policy``
did before filters were compiled, and ``tokenize`` is the lexer that took
any Unicode letter or digit for part of a name or number.  Both are kept
here as they were, less the walk's reads of per-route symbolic shadows,
which routes no longer have, as the references: a compiled filter must
reach the walk's verdict, attributes, error and recorded branches, and
the ASCII lexer this lexer's tokens wherever it can.
"""

from __future__ import annotations

from typing import Any

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.ip import Prefix
from repro.bgp.policy import PolicyResult, PolicyRuntimeError, community_value
from repro.bgp.policy_lang import (
    AcceptStmt,
    AsSet,
    AssignStmt,
    AttributeRef,
    BinaryOp,
    BoolLiteral,
    FieldRef,
    FilterDef,
    IfStmt,
    IntLiteral,
    MethodStmt,
    PairLiteral,
    PolicySyntaxError,
    PrefixLiteral,
    PrefixPattern,
    PrefixSet,
    RejectStmt,
    Token,
    UnaryOp,
)
from repro.bgp.route import Route

_KEYWORDS = {
    "filter", "if", "then", "else", "accept", "reject", "true", "false",
}

_PUNCT = (
    "&&", "||", "!=", "<=", ">=", "=", "<", ">", "~", "!", "{", "}", "(",
    ")", "[", "]", ";", ",", ".", "+", "-", "/",
)


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens; ``#`` starts a line comment."""
    tokens: list[Token] = []
    line = 1
    column = 1
    index = 0
    size = len(source)
    while index < size:
        char = source[index]
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if char == "#":
            while index < size and source[index] != "\n":
                index += 1
            continue
        if char.isdigit():
            start = index
            while index < size and source[index].isdigit():
                index += 1
            text = source[start:index]
            tokens.append(Token("int", text, line, column))
            column += len(text)
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < size and (source[index].isalnum() or source[index] == "_"):
                index += 1
            text = source[start:index]
            kind = "keyword" if text in _KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, column))
            column += len(text)
            continue
        for punct in _PUNCT:
            if source.startswith(punct, index):
                tokens.append(Token("punct", punct, line, column))
                index += len(punct)
                column += len(punct)
                break
        else:
            raise PolicySyntaxError(f"unexpected character {char!r}", line, column)
    tokens.append(Token("eof", "", line, column))
    return tokens


class _AsPathView:
    """Read-only view of an AS_PATH for the expression evaluator."""

    def __init__(self, path: AsPath):
        self._path = path

    @property
    def len(self) -> Any:
        return self._path.length()

    @property
    def first(self) -> Any:
        first = self._path.first_as()
        return -1 if first is None else first

    @property
    def last(self) -> Any:
        last = self._path.origin_as()
        return -1 if last is None else last

    def contains(self, asn: int) -> bool:
        return self._path.contains(int(asn))


class _NetView:
    """The ``net`` value: a prefix with possibly-symbolic components."""

    def __init__(self, prefix: Prefix, network: Any, length: Any):
        self.prefix = prefix
        self.network = network
        self.length = length

    def matches(self, pattern: PrefixPattern) -> Any:
        """Evaluate one prefix-set member against this net.

        Works on integers or symbolic integers: mask-and-compare on the
        network plus a range test on the length.
        """
        plen = pattern.prefix.length
        if plen == 0:
            covered = True
        else:
            mask = (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF
            covered = (self.network & mask) == pattern.prefix.network
        if not covered:
            return False
        if not (self.length >= pattern.low):
            return False
        if not (self.length <= pattern.high):
            return False
        return True


class _Evaluator:
    """Evaluates expressions and runs statements for one (filter, route)."""

    def __init__(self, route: Route, default_local_pref: int = 100):
        attrs = route.attributes
        self._route = route
        self._path = attrs.as_path
        self._communities: list[Any] = list(attrs.communities)
        self._values: dict[str, Any] = {
            "bgp_origin": attrs.origin,
            "bgp_med": attrs.med if attrs.med is not None else 0,
            "bgp_local_pref": (
                attrs.local_pref if attrs.local_pref is not None
                else default_local_pref
            ),
            "peer_as": route.peer_as if route.peer_as is not None else 0,
            # Route provenance, readable as an integer: 0 = locally
            # originated (static), 1 = eBGP-learned, 2 = iBGP-learned.
            # Export policies use this to always announce own prefixes.
            "source": {"static": 0, "ebgp": 1, "ibgp": 2}[route.source],
        }
        self._med_was_set = attrs.med is not None
        self._local_pref_was_set = attrs.local_pref is not None
        self._net = _NetView(
            route.prefix, route.prefix.network, route.prefix.length
        )
        self._path_view = _AsPathView(attrs.as_path)
        self._writes: set[str] = set()

    # -- statement execution --

    def run(self, body: tuple) -> bool | None:
        """Run statements; returns True/False on accept/reject, else None."""
        for statement in body:
            verdict = self._run_statement(statement)
            if verdict is not None:
                return verdict
        return None

    def _run_statement(self, statement) -> bool | None:
        if isinstance(statement, AcceptStmt):
            return True
        if isinstance(statement, RejectStmt):
            return False
        if isinstance(statement, IfStmt):
            condition = self._truth(self.eval(statement.condition))
            branch = statement.then_branch if condition else statement.else_branch
            return self.run(branch)
        if isinstance(statement, AssignStmt):
            self._assign(statement.target, self.eval(statement.value))
            return None
        if isinstance(statement, MethodStmt):
            self._call_method(statement)
            return None
        raise PolicyRuntimeError(f"unknown statement {statement!r}")

    def _assign(self, target: str, value: Any) -> None:
        if target not in ("bgp_local_pref", "bgp_med", "bgp_origin"):
            raise PolicyRuntimeError(f"cannot assign to {target!r}")
        self._values[target] = value
        self._writes.add(target)

    def _call_method(self, statement: MethodStmt) -> None:
        target, method = statement.target, statement.method
        if target == "bgp_community":
            if statement.argument is None:
                raise PolicyRuntimeError(f"bgp_community.{method} needs an argument")
            value = self.eval(statement.argument)
            if method == "add":
                if not self._community_contains(value):
                    self._communities.append(value)
                self._writes.add("bgp_community")
                return
            if method == "delete":
                self._communities = [
                    c for c in self._communities if not bool(c == value)
                ]
                self._writes.add("bgp_community")
                return
            raise PolicyRuntimeError(f"unknown method bgp_community.{method}")
        if target == "bgp_path" and method == "prepend":
            if statement.argument is None:
                raise PolicyRuntimeError("bgp_path.prepend needs an argument")
            self._path = self._path.prepend(int(self.eval(statement.argument)))
            self._writes.add("bgp_path")
            return
        raise PolicyRuntimeError(f"unknown method {target}.{method}")

    def _community_contains(self, value: Any) -> bool:
        for community in self._communities:
            if community == value:
                return True
        return False

    # -- expression evaluation --

    def eval(self, expr) -> Any:
        """Evaluate an expression node to a value."""
        if isinstance(expr, IntLiteral):
            return expr.value
        if isinstance(expr, BoolLiteral):
            return expr.value
        if isinstance(expr, PairLiteral):
            return community_value(self.eval(expr.high), self.eval(expr.low))
        if isinstance(expr, PrefixLiteral):
            return expr.prefix
        if isinstance(expr, (PrefixSet, AsSet)):
            return expr
        if isinstance(expr, AttributeRef):
            return self._read_attribute(expr.name)
        if isinstance(expr, FieldRef):
            return self._read_field(expr)
        if isinstance(expr, UnaryOp):
            return self._eval_unary(expr)
        if isinstance(expr, BinaryOp):
            return self._eval_binary(expr)
        raise PolicyRuntimeError(f"cannot evaluate {expr!r}")

    def _read_attribute(self, name: str) -> Any:
        if name == "net":
            return self._net
        if name == "bgp_path":
            return self._path_view
        if name == "bgp_community":
            return tuple(self._communities)
        if name in self._values:
            return self._values[name]
        raise PolicyRuntimeError(f"unknown attribute {name!r}")

    def _read_field(self, expr: FieldRef) -> Any:
        base = self.eval(expr.base)
        if isinstance(base, _AsPathView):
            if expr.field in ("len", "first", "last"):
                return getattr(base, expr.field)
            raise PolicyRuntimeError(f"unknown path field {expr.field!r}")
        if isinstance(base, _NetView):
            if expr.field == "len":
                return base.length
            raise PolicyRuntimeError(f"unknown net field {expr.field!r}")
        raise PolicyRuntimeError(f"no field {expr.field!r} on {base!r}")

    def _eval_unary(self, expr: UnaryOp) -> Any:
        value = self.eval(expr.operand)
        if expr.op == "!":
            return not self._truth(value)
        if expr.op == "-":
            return -value
        raise PolicyRuntimeError(f"unknown unary {expr.op!r}")

    def _eval_binary(self, expr: BinaryOp) -> Any:
        op = expr.op
        if op == "&&":
            if not self._truth(self.eval(expr.left)):
                return False
            return self._truth(self.eval(expr.right))
        if op == "||":
            if self._truth(self.eval(expr.left)):
                return True
            return self._truth(self.eval(expr.right))
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        if op == "~":
            return self._match(left, right)
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        raise PolicyRuntimeError(f"unknown operator {op!r}")

    def _match(self, left: Any, right: Any) -> Any:
        """The ``~`` operator: containment tests by operand type."""
        if isinstance(left, _NetView) and isinstance(right, PrefixSet):
            for pattern in right.patterns:
                if self._truth(left.matches(pattern)):
                    return True
            return False
        if isinstance(left, _AsPathView) and isinstance(right, AsSet):
            return any(left.contains(asn) for asn in right.asns)
        if isinstance(left, tuple):  # community list ~ value
            for community in left:
                if community == right:
                    return True
            return False
        if isinstance(left, _NetView) and isinstance(right, Prefix):
            return self._truth(
                left.matches(PrefixPattern(right, right.length, 32))
            )
        raise PolicyRuntimeError(
            f"~ not defined between {type(left).__name__} and "
            f"{type(right).__name__}"
        )

    @staticmethod
    def _truth(value: Any) -> bool:
        """Force a (possibly symbolic) value to a concrete branch outcome."""
        return bool(value)

    # -- result assembly --

    def result_attributes(self) -> PathAttributes:
        """Build the post-policy attribute set from the working values."""
        attrs = self._route.attributes
        changes: dict[str, Any] = {}
        if "bgp_origin" in self._writes:
            changes["origin"] = self._values["bgp_origin"]
        if "bgp_med" in self._writes or self._med_was_set:
            changes["med"] = self._values["bgp_med"]
        if "bgp_local_pref" in self._writes or self._local_pref_was_set:
            changes["local_pref"] = self._values["bgp_local_pref"]
        if "bgp_community" in self._writes:
            changes["communities"] = tuple(self._communities)
        if "bgp_path" in self._writes:
            changes["as_path"] = self._path
        # A route that merely carries a MED or LOCAL_PREF, or a write of
        # the value already there, leaves the set as it is: one object
        # fewer per evaluated route, and one attribute-cache probe.
        changes = {
            name: value
            for name, value in changes.items()
            if not _unchanged(value, getattr(attrs, name))
        }
        if not changes:
            return attrs
        return attrs.replace(**changes)


def _unchanged(new: Any, old: Any) -> bool:
    """True when ``new`` is provably the value ``old``.

    Never compares a symbolic value: ``==`` on one records a branch the
    filter did not take.  Such a value counts as changed unless it is
    the same object.
    """
    if new is old:
        return True
    if type(new) is tuple:
        return (
            type(old) is tuple
            and len(new) == len(old)
            and all(map(_unchanged, new, old))
        )
    return type(new) is int and type(old) is int and new == old


def evaluate(definition: FilterDef, route: Route,
             default_local_pref: int = 100) -> PolicyResult:
    """``Filter.evaluate`` by walking ``definition``."""
    evaluator = _Evaluator(route, default_local_pref=default_local_pref)
    verdict = evaluator.run(definition.body)
    fell_through = verdict is None
    accepted = bool(verdict)
    return PolicyResult(
        accepted=accepted,
        attributes=evaluator.result_attributes() if accepted else route.attributes,
        fell_through=fell_through,
    )
