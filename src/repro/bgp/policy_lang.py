"""Lexer, parser and AST for the BIRD-style filter language.

DiCE's key observation in section 3 is that instrumenting the router's
*configuration interpreter* makes explored paths "comprehensive of both
code and configuration".  To reproduce that, configuration here is not a
data table but a small programming language — the grammar below is a
faithful subset of BIRD's filter language:

    filter import_peer1 {
        if net ~ [ 10.0.0.0/8{8,24}, 192.168.0.0/16+ ] then reject;
        if bgp_path ~ [ 666 ] then reject;
        if bgp_community ~ (65000, 120) then {
            bgp_local_pref = 50;
            accept;
        }
        if bgp_path.len > 6 then reject;
        bgp_local_pref = 120;
        bgp_community.add((65000, 1));
        accept;
    }

Expressions support integers, pair literals ``(a, b)`` (communities),
prefix literals, prefix sets with BIRD's ``+`` / ``-`` / ``{lo,hi}``
modifiers, AS-path sets (membership of an ASN), attribute reads, ``.len``,
comparison operators including ``~`` (match), and ``&&`` / ``||`` / ``!``.

The compiler lives in :mod:`repro.bgp.policy`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from repro.bgp.ip import Prefix


class PolicySyntaxError(Exception):
    """Raised for lexical or grammatical errors, with location info."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# --------------------------------------------------------------------------
# Tokens
# --------------------------------------------------------------------------

_KEYWORDS = {
    "filter", "if", "then", "else", "accept", "reject", "true", "false",
}

# One token per match; ASCII only, so a letter or digit is A-Z, a-z, _
# or 0-9 and any other character outside a comment is an error.
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>#[^\n]*)"
    r"|(?P<int>[0-9]+)|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>&&|\|\||[!<>]=|[=<>~!{}()\[\];,.+\-/])"
)


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str  # 'int', 'ident', 'keyword', 'punct', 'eof'
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens; ``#`` starts a line comment.

    A comment advances no column: the newline that ends it resets it."""
    tokens: list[Token] = []
    line = column = 1
    index, size = 0, len(source)
    while index < size:
        match = _TOKEN.match(source, index)
        if match is None:
            raise PolicySyntaxError(
                f"unexpected character {source[index]!r}", line, column
            )
        kind, text, index = match.lastgroup, match.group(), match.end()
        if kind == "newline":
            line, column = line + 1, 1
            continue
        if kind == "word":
            kind = "keyword" if text in _KEYWORDS else "ident"
        if kind in ("int", "ident", "keyword", "punct"):
            tokens.append(Token(kind, text, line, column))
        if kind != "comment":
            column += len(text)
    tokens.append(Token("eof", "", line, column))
    return tokens


# --------------------------------------------------------------------------
# AST node types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class IntLiteral:
    """An integer constant."""

    value: int


@dataclass(frozen=True)
class BoolLiteral:
    """``true`` or ``false``."""

    value: bool


@dataclass(frozen=True)
class PairLiteral:
    """A community pair ``(asn, value)``; encodes to asn<<16 | value."""

    high: "Expr"
    low: "Expr"


@dataclass(frozen=True)
class PrefixLiteral:
    """A literal prefix such as ``10.0.0.0/8``."""

    prefix: Prefix


@dataclass(frozen=True)
class PrefixPattern:
    """One member of a prefix set with its length-range modifier.

    ``10.0.0.0/8``        exact
    ``10.0.0.0/8+``       /8 through /32 under 10/8
    ``10.0.0.0/8-``       /0 through /8 covering 10.0.0.0
    ``10.0.0.0/8{9,16}``  lengths 9..16 under 10/8
    """

    prefix: Prefix
    low: int
    high: int


@dataclass(frozen=True)
class PrefixSet:
    """A bracketed list of prefix patterns."""

    patterns: tuple[PrefixPattern, ...]


@dataclass(frozen=True)
class AsSet:
    """A bracketed list of AS numbers for path membership tests."""

    asns: tuple[int, ...]


@dataclass(frozen=True)
class AttributeRef:
    """A readable/assignable name such as ``bgp_local_pref`` or ``net``."""

    name: str


@dataclass(frozen=True)
class FieldRef:
    """A dotted field access, e.g. ``bgp_path.len``."""

    base: "Expr"
    field: str


@dataclass(frozen=True)
class UnaryOp:
    """``!expr`` or ``-expr``."""

    op: str
    operand: "Expr"


@dataclass(frozen=True)
class BinaryOp:
    """A binary operation; ``op`` is one of = != < <= > >= ~ && || + -."""

    op: str
    left: "Expr"
    right: "Expr"


Expr = Any  # union of the node classes above


@dataclass(frozen=True)
class AcceptStmt:
    """Terminate the filter, accepting the route."""


@dataclass(frozen=True)
class RejectStmt:
    """Terminate the filter, rejecting the route."""


@dataclass(frozen=True)
class AssignStmt:
    """``attribute = expr;``"""

    target: str
    value: Expr


@dataclass(frozen=True)
class MethodStmt:
    """``bgp_community.add((a, b));`` / ``.delete`` / ``bgp_path.prepend``."""

    target: str
    method: str
    argument: Expr | None


@dataclass(frozen=True)
class IfStmt:
    """``if cond then stmt [else stmt]`` — branches may be blocks."""

    condition: Expr
    then_branch: tuple
    else_branch: tuple


@dataclass(frozen=True)
class FilterDef:
    """A named filter: the unit of configuration."""

    name: str
    body: tuple


# --------------------------------------------------------------------------
# Parser (recursive descent)
# --------------------------------------------------------------------------


class Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing --

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _check(self, kind: str, text: str | None = None) -> bool:
        token = self._peek()
        if token.kind != kind:
            return False
        return text is None or token.text == text

    def _match(self, kind: str, text: str | None = None) -> Token | None:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: str | None = None) -> Token:
        token = self._peek()
        if not self._check(kind, text):
            wanted = text if text is not None else kind
            raise PolicySyntaxError(
                f"expected {wanted!r}, found {token.text or token.kind!r}",
                token.line,
                token.column,
            )
        return self._advance()

    # -- grammar --

    def parse_filters(self) -> dict[str, FilterDef]:
        """Parse a whole source file of ``filter`` definitions."""
        filters: dict[str, FilterDef] = {}
        while not self._check("eof"):
            definition = self.parse_filter()
            if definition.name in filters:
                token = self._peek()
                raise PolicySyntaxError(
                    f"duplicate filter {definition.name!r}",
                    token.line,
                    token.column,
                )
            filters[definition.name] = definition
        return filters

    def parse_filter(self) -> FilterDef:
        """Parse one ``filter name { ... }``."""
        self._expect("keyword", "filter")
        name = self._expect("ident").text
        body = self._parse_block()
        return FilterDef(name, body)

    def _parse_block(self) -> tuple:
        self._expect("punct", "{")
        statements = []
        while not self._check("punct", "}"):
            statements.append(self._parse_statement())
        self._expect("punct", "}")
        return tuple(statements)

    def _parse_statement(self):
        if self._match("keyword", "accept"):
            self._expect("punct", ";")
            return AcceptStmt()
        if self._match("keyword", "reject"):
            self._expect("punct", ";")
            return RejectStmt()
        if self._check("keyword", "if"):
            return self._parse_if()
        return self._parse_assign_or_method()

    def _parse_if(self) -> IfStmt:
        self._expect("keyword", "if")
        condition = self._parse_expr()
        self._expect("keyword", "then")
        then_branch = self._parse_branch()
        else_branch: tuple = ()
        if self._match("keyword", "else"):
            else_branch = self._parse_branch()
        return IfStmt(condition, then_branch, else_branch)

    def _parse_branch(self) -> tuple:
        if self._check("punct", "{"):
            return self._parse_block()
        return (self._parse_statement(),)

    def _parse_assign_or_method(self):
        token = self._expect("ident")
        target = token.text
        if self._match("punct", "."):
            method = self._expect("ident").text
            self._expect("punct", "(")
            argument = None
            if not self._check("punct", ")"):
                argument = self._parse_expr()
            self._expect("punct", ")")
            self._expect("punct", ";")
            return MethodStmt(target, method, argument)
        self._expect("punct", "=")
        value = self._parse_expr()
        self._expect("punct", ";")
        return AssignStmt(target, value)

    # Expression precedence: || < && < comparison < additive < unary < atom.

    def _parse_expr(self):
        return self._parse_or()

    def _parse_or(self):
        left = self._parse_and()
        while self._match("punct", "||"):
            right = self._parse_and()
            left = BinaryOp("||", left, right)
        return left

    def _parse_and(self):
        left = self._parse_comparison()
        while self._match("punct", "&&"):
            right = self._parse_comparison()
            left = BinaryOp("&&", left, right)
        return left

    def _parse_comparison(self):
        left = self._parse_additive()
        for op in ("=", "!=", "<=", ">=", "<", ">", "~"):
            if self._match("punct", op):
                right = self._parse_additive()
                return BinaryOp(op, left, right)
        return left

    def _parse_additive(self):
        left = self._parse_unary()
        while True:
            if self._match("punct", "+"):
                left = BinaryOp("+", left, self._parse_unary())
            elif self._match("punct", "-"):
                left = BinaryOp("-", left, self._parse_unary())
            else:
                return left

    def _parse_unary(self):
        if self._match("punct", "!"):
            return UnaryOp("!", self._parse_unary())
        if self._match("punct", "-"):
            return UnaryOp("-", self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self):
        expr = self._parse_atom()
        while self._check("punct", ".") and self._tokens[self._pos + 1].kind == "ident":
            self._advance()
            field = self._expect("ident").text
            expr = FieldRef(expr, field)
        return expr

    def _parse_atom(self):
        token = self._peek()
        if token.kind == "int":
            return self._parse_int_or_prefix()
        if self._match("keyword", "true"):
            return BoolLiteral(True)
        if self._match("keyword", "false"):
            return BoolLiteral(False)
        if token.kind == "ident":
            self._advance()
            return AttributeRef(token.text)
        if self._match("punct", "("):
            first = self._parse_expr()
            if self._match("punct", ","):
                second = self._parse_expr()
                self._expect("punct", ")")
                return PairLiteral(first, second)
            self._expect("punct", ")")
            return first
        if self._check("punct", "["):
            return self._parse_set()
        raise PolicySyntaxError(
            f"unexpected token {token.text or token.kind!r}",
            token.line,
            token.column,
        )

    def _parse_int_or_prefix(self):
        token = self._expect("int")
        if not self._check("punct", "."):
            return IntLiteral(int(token.text))
        # A dotted quad: collect three more ".int" groups, then "/len".
        octets = [int(token.text)]
        for _ in range(3):
            self._expect("punct", ".")
            octets.append(int(self._expect("int").text))
        self._expect("punct", "/")
        length = int(self._expect("int").text)
        for octet in octets:
            if octet > 255:
                raise PolicySyntaxError(
                    f"octet {octet} out of range", token.line, token.column
                )
        network = (
            (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
        )
        try:
            prefix = Prefix(network, length)
        except ValueError as exc:
            raise PolicySyntaxError(str(exc), token.line, token.column) from exc
        return PrefixLiteral(prefix)

    def _parse_set(self):
        """Parse ``[ ... ]`` — a prefix set or an AS set, by content."""
        open_token = self._expect("punct", "[")
        patterns: list[PrefixPattern] = []
        asns: list[int] = []
        while not self._check("punct", "]"):
            element = self._parse_int_or_prefix()
            if isinstance(element, IntLiteral):
                asns.append(element.value)
            elif isinstance(element, PrefixLiteral):
                patterns.append(self._parse_pattern_modifier(element.prefix))
            else:  # pragma: no cover - _parse_int_or_prefix returns only those
                raise PolicySyntaxError(
                    "set elements must be ASNs or prefixes",
                    open_token.line,
                    open_token.column,
                )
            if not self._match("punct", ","):
                break
        self._expect("punct", "]")
        if patterns and asns:
            raise PolicySyntaxError(
                "cannot mix prefixes and AS numbers in one set",
                open_token.line,
                open_token.column,
            )
        if asns:
            return AsSet(tuple(asns))
        return PrefixSet(tuple(patterns))

    def _parse_pattern_modifier(self, prefix: Prefix) -> PrefixPattern:
        if self._match("punct", "+"):
            return PrefixPattern(prefix, prefix.length, 32)
        if self._match("punct", "-"):
            return PrefixPattern(prefix, 0, prefix.length)
        if self._match("punct", "{"):
            low = int(self._expect("int").text)
            self._expect("punct", ",")
            high = int(self._expect("int").text)
            close = self._expect("punct", "}")
            if not (0 <= low <= high <= 32):
                raise PolicySyntaxError(
                    f"bad length range {{{low},{high}}}", close.line, close.column
                )
            return PrefixPattern(prefix, low, high)
        return PrefixPattern(prefix, prefix.length, prefix.length)


def parse_filter_source(source: str) -> dict[str, FilterDef]:
    """Parse filter definitions from source text."""
    return Parser(tokenize(source)).parse_filters()


def parse_single_filter(source: str) -> FilterDef:
    """Parse exactly one filter definition."""
    filters = parse_filter_source(source)
    if len(filters) != 1:
        raise PolicySyntaxError(
            f"expected exactly one filter, found {len(filters)}", 1, 1
        )
    return next(iter(filters.values()))
