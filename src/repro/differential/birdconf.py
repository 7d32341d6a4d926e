"""Compiler from simulator configs to BIRD 2.x configuration text.

The BIRD oracle (:mod:`repro.differential.bird`) runs each
:class:`~repro.bgp.config.RouterConfig` as a real BIRD daemon in its own
network namespace.  This module does the translation: policy-language
filter ASTs become BIRD filter blocks, neighbor sessions become
``protocol bgp`` stanzas addressed out of an :class:`AddressPlan`, and
originated networks become blackhole statics.

The compiler is deliberately strict: any construct it cannot map to an
*exactly equivalent* BIRD construct raises :class:`CompileError` rather
than approximating — a differential oracle that silently compiles the
wrong semantics would blame the simulator for its own translation bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.config import NeighborConfig, RouterConfig
from repro.bgp.ip import IPv4Address, Prefix
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
    PrefixLiteral,
    PrefixSet,
    RejectStmt,
    UnaryOp,
)

_ORIGIN_NAMES = {0: "ORIGIN_IGP", 1: "ORIGIN_EGP", 2: "ORIGIN_INCOMPLETE"}

# Links are numbered into /30 point-to-point subnets out of this block;
# it must not collide with any prefix the topologies originate (they use
# 172.16/12 and 10.0-10.199).
SESSION_BLOCK = Prefix("10.200.0.0", 16)


class CompileError(Exception):
    """A simulator construct has no exact BIRD 2.x equivalent."""


@dataclass(frozen=True)
class SessionAddress:
    """One end of a point-to-point session subnet."""

    local: IPv4Address
    remote: IPv4Address
    prefix_len: int = 30


class AddressPlan:
    """Deterministic /30 session addressing for a link list.

    Link ``k`` (in input order) gets the ``k``-th /30 of
    :data:`SESSION_BLOCK`; the lexicographically smaller endpoint name
    takes the first host address.  The plan is a pure function of the
    link list, so every compile of the same topology wires identical
    addresses — configs stay byte-reproducible.
    """

    def __init__(self, links):
        self._sessions: dict[tuple[str, str], SessionAddress] = {}
        base = SESSION_BLOCK.network
        for index, (a, b, _profile) in enumerate(links):
            subnet = base + index * 4
            if not SESSION_BLOCK.contains(Prefix(subnet, 30)):
                raise CompileError(
                    f"link {index} overflows the {SESSION_BLOCK} "
                    "session block"
                )
            first, second = sorted((a, b))
            low = IPv4Address(subnet + 1)
            high = IPv4Address(subnet + 2)
            self._sessions[(first, second)] = SessionAddress(low, high)
            self._sessions[(second, first)] = SessionAddress(high, low)

    def session(self, local: str, remote: str) -> SessionAddress:
        """Addresses for ``local``'s side of its link to ``remote``."""
        try:
            return self._sessions[(local, remote)]
        except KeyError:
            raise CompileError(
                f"no link between {local!r} and {remote!r} in the plan"
            ) from None


# -- filter compilation -------------------------------------------------


def _origin_literal(expr) -> str:
    if isinstance(expr, IntLiteral) and expr.value in _ORIGIN_NAMES:
        return _ORIGIN_NAMES[expr.value]
    raise CompileError(
        "bgp_origin only maps to BIRD against the literals 0/1/2 "
        f"(ORIGIN_*); got {expr!r}"
    )


class _FilterCompiler:
    """One filter definition → one BIRD ``filter { ... }`` block.

    ``peer_as`` has no BIRD filter variable, but the simulator compiles
    filters per-session too — so the neighbor's AS is substituted as a
    literal at compile time, which is exactly equivalent.

    ``accept_prelude`` lines are emitted immediately before every
    ``accept;`` — how the per-session ``export_med`` knob is applied,
    since the simulator stamps it *after* the export filter ran.
    """

    def __init__(self, neighbor: NeighborConfig | None,
                 accept_prelude: tuple[str, ...] = ()):
        self._neighbor = neighbor
        self._accept_prelude = accept_prelude

    def compile(self, definition: FilterDef, rendered_name: str) -> str:
        body = self._block(definition.body, indent=1)
        # The policy language rejects on fall-through; BIRD filters
        # *also* reject on fall-through, but spell it out so the
        # semantics survive readers and BIRD version changes.
        body.append("  reject;")
        return "\n".join([f"filter {rendered_name} {{", *body, "}"])

    def _block(self, statements, indent: int) -> list[str]:
        pad = "  " * indent
        lines: list[str] = []
        for statement in statements:
            lines.extend(
                pad + line for line in self._statement(statement, indent)
            )
        return lines

    def _statement(self, statement, indent: int) -> list[str]:
        if isinstance(statement, AcceptStmt):
            return [*self._accept_prelude, "accept;"]
        if isinstance(statement, RejectStmt):
            return ["reject;"]
        if isinstance(statement, AssignStmt):
            if statement.target == "bgp_origin":
                return [f"bgp_origin = {_origin_literal(statement.value)};"]
            if statement.target in ("bgp_local_pref", "bgp_med"):
                return [
                    f"{statement.target} = "
                    f"{self._expr(statement.value)};"
                ]
            raise CompileError(
                f"no BIRD equivalent for assigning {statement.target!r}"
            )
        if isinstance(statement, MethodStmt):
            return [self._method(statement)]
        if isinstance(statement, IfStmt):
            lines = [f"if {self._expr(statement.condition)} then {{"]
            lines.extend(self._block(statement.then_branch, 1))
            if statement.else_branch:
                lines.append("} else {")
                lines.extend(self._block(statement.else_branch, 1))
            lines.append("}")
            return lines
        raise CompileError(f"unsupported statement {statement!r}")

    def _method(self, statement: MethodStmt) -> str:
        if statement.target == "bgp_community":
            if statement.method in ("add", "delete"):
                return (
                    f"bgp_community.{statement.method}"
                    f"({self._expr(statement.argument)});"
                )
            raise CompileError(
                f"unsupported method bgp_community.{statement.method}"
            )
        if statement.target == "bgp_path" and statement.method == "prepend":
            return f"bgp_path.prepend({self._expr(statement.argument)});"
        raise CompileError(
            f"unsupported method {statement.target}.{statement.method}"
        )

    def _expr(self, expr) -> str:
        if isinstance(expr, IntLiteral):
            return str(expr.value)
        if isinstance(expr, BoolLiteral):
            return "true" if expr.value else "false"
        if isinstance(expr, PairLiteral):
            return f"({self._expr(expr.high)}, {self._expr(expr.low)})"
        if isinstance(expr, PrefixLiteral):
            return str(expr.prefix)
        if isinstance(expr, PrefixSet):
            patterns = ", ".join(
                self._prefix_pattern(pattern) for pattern in expr.patterns
            )
            return f"[{patterns}]"
        if isinstance(expr, AsSet):
            return "[" + ", ".join(str(asn) for asn in expr.asns) + "]"
        if isinstance(expr, AttributeRef):
            return self._attribute(expr.name)
        if isinstance(expr, FieldRef):
            return self._field(expr)
        if isinstance(expr, UnaryOp):
            if expr.op == "!":
                return f"!({self._expr(expr.operand)})"
            if expr.op == "-":
                return f"(0 - {self._expr(expr.operand)})"
            raise CompileError(f"unsupported unary operator {expr.op!r}")
        if isinstance(expr, BinaryOp):
            return self._binary(expr)
        raise CompileError(f"unsupported expression {expr!r}")

    def _attribute(self, name: str) -> str:
        if name in ("net", "bgp_path", "bgp_community",
                    "bgp_local_pref", "bgp_med"):
            return name
        if name == "peer_as":
            if self._neighbor is None:
                raise CompileError(
                    "peer_as used in a filter compiled without a "
                    "neighbor context"
                )
            return str(self._neighbor.peer_as)
        if name == "bgp_origin":
            # Only meaningful against 0/1/2 literals; handled by
            # _binary / AssignStmt, which rewrite both sides.
            return "bgp_origin"
        if name == "source":
            # Only comparisons against the static code (0) map; handled
            # in _binary, which rewrites both sides.
            raise CompileError(
                "the 'source' attribute only maps to BIRD in "
                "'source = 0' / 'source != 0' comparisons"
            )
        raise CompileError(f"unknown attribute {name!r}")

    def _field(self, expr: FieldRef) -> str:
        if (isinstance(expr.base, AttributeRef)
                and expr.base.name == "bgp_path"
                and expr.field in ("len", "first", "last")):
            return f"bgp_path.{expr.field}"
        raise CompileError(f"unsupported field access {expr!r}")

    def _binary(self, expr: BinaryOp) -> str:
        # The policy language and BIRD agree on "=" for equality.
        op = {"=": "=", "!=": "!=", "<": "<", "<=": "<=",
              ">": ">", ">=": ">=", "+": "+", "-": "-",
              "&&": "&&", "||": "||", "~": "~"}.get(expr.op)
        if op is None:
            raise CompileError(f"unsupported operator {expr.op!r}")
        left, right = expr.left, expr.right
        if _mentions_source(left) or _mentions_source(right):
            # The simulator's source codes are 0=static, 1=ebgp,
            # 2=ibgp; BIRD's filter `source` can tell static from BGP
            # (RTS_STATIC vs RTS_BGP) but not eBGP from iBGP, so only
            # the static test compiles.
            literal = right if _mentions_source(left) else left
            if (expr.op in ("=", "!=")
                    and isinstance(literal, IntLiteral)
                    and literal.value == 0):
                return f"source {op} RTS_STATIC"
            raise CompileError(
                "the 'source' attribute only maps to BIRD in "
                "'source = 0' / 'source != 0' comparisons"
            )
        if _mentions_origin(left) or _mentions_origin(right):
            if expr.op not in ("=", "!="):
                raise CompileError(
                    "bgp_origin only supports ==/!= under BIRD"
                )
            rendered_l = ("bgp_origin" if _mentions_origin(left)
                          else _origin_literal(left))
            rendered_r = ("bgp_origin" if _mentions_origin(right)
                          else _origin_literal(right))
            return f"{rendered_l} {op} {rendered_r}"
        return f"{self._expr(left)} {op} {self._expr(right)}"

    def _prefix_pattern(self, pattern) -> str:
        prefix = pattern.prefix
        if pattern.low == prefix.length and pattern.high == prefix.length:
            return str(prefix)
        return f"{prefix}{{{pattern.low},{pattern.high}}}"


def _mentions_origin(expr) -> bool:
    return isinstance(expr, AttributeRef) and expr.name == "bgp_origin"


def _mentions_source(expr) -> bool:
    return isinstance(expr, AttributeRef) and expr.name == "source"


# -- router compilation -------------------------------------------------


def compile_filter(
    definition: FilterDef,
    rendered_name: str,
    neighbor: NeighborConfig | None = None,
    accept_prelude: tuple[str, ...] = (),
) -> str:
    """One policy-language filter as a BIRD filter block."""
    return _FilterCompiler(neighbor, accept_prelude).compile(
        definition, rendered_name
    )


def compile_router(config: RouterConfig, plan: AddressPlan) -> str:
    """The full ``bird.conf`` text for one router's namespace."""
    if config.always_compare_med:
        # BIRD's "med metric" option changes comparison globally per
        # protocol, not per decision like RFC deterministic-MED knobs;
        # refuse rather than diverge subtly.
        raise CompileError(
            "always_compare_med has no per-router BIRD equivalent"
        )
    if config.damping is not None:
        raise CompileError("BIRD 2.x does not implement RFC 2439 damping")
    lines = [
        f"# compiled from RouterConfig {config.name!r} (AS {config.local_as})",
        f"router id {config.router_id};",
        "log stderr all;",
        "protocol device { scan time 10; }",
        "",
    ]
    if config.networks:
        lines.append("protocol static originated {")
        lines.append("  ipv4;")
        for prefix in config.networks:
            lines.append(f"  route {prefix} blackhole;")
        lines.append("}")
        lines.append("")
    rendered_filters: dict[str, str] = {}
    for index, neighbor in enumerate(config.neighbors):
        session = plan.session(config.name, neighbor.peer)
        for direction, filter_name in (
            ("import", neighbor.import_filter),
            ("export", neighbor.export_filter),
        ):
            rendered = f"f_{index}_{direction}"
            definition = _filter_definition(config, filter_name)
            # The simulator stamps export_med after the export filter
            # accepted, so the compiled filter sets it right before
            # each accept — same observable result.
            prelude = ()
            if direction == "export" and neighbor.export_med is not None:
                prelude = (f"bgp_med = {neighbor.export_med};",)
            rendered_filters[rendered] = compile_filter(
                definition, rendered, neighbor, accept_prelude=prelude
            )
        mrai = ""
        if config.mrai:
            mrai = f"\n  # simulator mrai={config.mrai}s (BIRD batches itself)"
        lines.append(
            f"protocol bgp peer_{index} {{{mrai}\n"
            f"  local {session.local} as {config.local_as};\n"
            f"  neighbor {session.remote} as {neighbor.peer_as};\n"
            f"  hold time {neighbor.hold_time};\n"
            f"  ipv4 {{\n"
            f"    import filter f_{index}_import;\n"
            f"    export filter f_{index}_export;\n"
            f"    next hop self;\n"
            f"  }};\n"
            f"}}"
        )
        lines.append("")
    # Filters are referenced before definition in the text above only
    # if we appended them last; BIRD requires define-before-use, so
    # splice them in front of the protocols.
    header, protocols = lines[:5], lines[5:]
    return "\n".join(
        header + list(rendered_filters.values()) + [""] + protocols
    ) + "\n"


def _filter_definition(config: RouterConfig, name: str) -> FilterDef:
    if name == "accept_all" and name not in config.filters:
        from repro.bgp.policy_lang import parse_single_filter

        return parse_single_filter("filter accept_all { accept; }")
    try:
        return config.filters[name].definition
    except KeyError:
        raise CompileError(
            f"router {config.name!r} references unknown filter {name!r}"
        ) from None
