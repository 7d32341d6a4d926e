"""The reference oracle: route propagation re-derived from the RFCs.

This is a deliberately *independent* re-implementation of what the
event-driven simulator computes.  It models converged BGP route
propagation declaratively — each router's best path is a pure function
of its neighbors' best paths (RFC 4271 section 9), iterated to a fixed
point — instead of replaying message exchanges.  Divergence between the
two therefore means a bug in one of them (or a genuinely unstable
policy), which is exactly what differential testing wants.

Independence rule (enforced by a test): this module may import only

* :mod:`repro.bgp.attributes` and :mod:`repro.bgp.ip` (wire-value types),
* :mod:`repro.bgp.config` (the shared configuration schema),
* :mod:`repro.bgp.policy_lang` (the filter *AST* — evaluation is
  re-implemented here),

and never ``repro.bgp.decision`` / ``router`` / ``policy`` / ``rib`` or
anything under ``repro.net`` — those are the subjects under test.

Two entry points:

* :meth:`ReferenceOracle.stable_state` constructs the oracle's own
  converged RIBs from configs + links (Gauss-Seidel iteration, sorted
  router order, bounded rounds; a topology like BAD GADGET that has no
  stable solution comes back ``converged=False``);
* :meth:`ReferenceOracle.verify_fixpoint` checks that a given converged
  state (the simulator's) *is* a fixed point of the independent
  semantics — the right question for topologies with multiple stable
  solutions (DISAGREE, BGP wedgies), where construction from scratch
  could legitimately land on the other one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.bgp.attributes import (
    COMMUNITY_NO_ADVERTISE,
    COMMUNITY_NO_EXPORT,
    SEGMENT_AS_SEQUENCE,
    SEGMENT_AS_SET,
    AsPath,
    PathAttributes,
)
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
    PrefixPattern,
    PrefixSet,
    RejectStmt,
    UnaryOp,
    parse_single_filter,
)
from repro.differential.canonical import (
    KIND_EBGP,
    KIND_IBGP,
    KIND_STATIC,
    CanonicalRib,
    CanonicalRoute,
    Divergence,
    RibDiff,
)


class OracleError(Exception):
    """A configuration the oracle cannot evaluate (bad filter, etc.)."""


@dataclass(frozen=True)
class OracleRoute:
    """The oracle's own route record (never the simulator's Route)."""

    attrs: PathAttributes
    kind: str                      # static / ebgp / ibgp
    via: str | None = None         # peer it was learned from
    via_as: int | None = None
    via_bgp_id: int | None = None

    def canonical(self) -> CanonicalRoute:
        return CanonicalRoute.from_attributes(
            self.attrs,
            kind=self.kind,
            via=self.via,
            via_as=self.via_as,
            via_bgp_id=self.via_bgp_id,
        )


@dataclass(frozen=True)
class OracleOutcome:
    """Result of :meth:`ReferenceOracle.stable_state`."""

    ribs: CanonicalRib
    converged: bool
    rounds: int


# -- policy evaluation, re-implemented over the AST ------------------------

_ACCEPT_ALL_DEF = parse_single_filter("filter accept_all { accept; }")
_SOURCE_CODE = {KIND_STATIC: 0, KIND_EBGP: 1, KIND_IBGP: 2}


def _pair(high: int, low: int) -> int:
    """A community pair's 32-bit wire value."""
    return ((int(high) & 0xFFFF) << 16) | (int(low) & 0xFFFF)


class _Accept(Exception):
    """Control flow: the filter reached an explicit ``accept``."""


class _Reject(Exception):
    """Control flow: explicit ``reject``."""


class _PolicyMachine:
    """Runs one filter definition over one candidate route.

    Same observable semantics as the simulator's compiled filters, reached by
    a different construction: statement execution raises on verdicts
    instead of threading return values, and the working state lives in
    one plain dict.
    """

    def __init__(self, definition: FilterDef, default_local_pref: int):
        self._def = definition
        self._default_lp = default_local_pref

    def run(
        self,
        prefix: Prefix,
        attrs: PathAttributes,
        kind: str,
        peer_as: int | None,
    ) -> tuple[bool, PathAttributes]:
        """Evaluate; returns (accepted, post-policy attributes).

        Falling off the end of the filter body rejects (the simulator
        flags the same condition as an operator mistake; the oracle only
        needs the verdict).
        """
        state = {
            "origin": int(attrs.origin),
            "med": 0 if attrs.med is None else attrs.med,
            "local_pref": (
                self._default_lp
                if attrs.local_pref is None
                else attrs.local_pref
            ),
            "peer_as": 0 if peer_as is None else peer_as,
            "source": _SOURCE_CODE[kind],
        }
        sticky = {
            "med": attrs.med is not None,
            "local_pref": attrs.local_pref is not None,
        }
        work = {
            "prefix": prefix,
            "path": attrs.as_path,
            "communities": list(attrs.communities),
            "state": state,
            "sticky": sticky,
            "written": set(),
        }
        try:
            self._exec_block(self._def.body, work)
            accepted = False       # fell through: reject
        except _Accept:
            accepted = True
        except _Reject:
            accepted = False
        if not accepted:
            return False, attrs
        return True, self._rebuild(attrs, work)

    @staticmethod
    def _rebuild(attrs: PathAttributes, work: dict) -> PathAttributes:
        written, state, sticky = work["written"], work["state"], work["sticky"]
        changes = {}
        if "origin" in written:
            changes["origin"] = state["origin"]
        if "med" in written or sticky["med"]:
            changes["med"] = state["med"]
        if "local_pref" in written or sticky["local_pref"]:
            changes["local_pref"] = state["local_pref"]
        if "communities" in written:
            changes["communities"] = tuple(work["communities"])
        if "path" in written:
            changes["as_path"] = work["path"]
        if not changes:
            return attrs
        return attrs.replace(**changes)

    # statements

    def _exec_block(self, body: tuple, work: dict) -> None:
        for stmt in body:
            self._exec(stmt, work)

    def _exec(self, stmt, work: dict) -> None:
        if isinstance(stmt, AcceptStmt):
            raise _Accept
        if isinstance(stmt, RejectStmt):
            raise _Reject
        if isinstance(stmt, IfStmt):
            taken = (
                stmt.then_branch
                if bool(self._eval(stmt.condition, work))
                else stmt.else_branch
            )
            self._exec_block(taken, work)
            return
        if isinstance(stmt, AssignStmt):
            slot = {
                "bgp_local_pref": "local_pref",
                "bgp_med": "med",
                "bgp_origin": "origin",
            }.get(stmt.target)
            if slot is None:
                raise OracleError(f"cannot assign to {stmt.target!r}")
            work["state"][slot] = self._eval(stmt.value, work)
            work["written"].add(slot)
            return
        if isinstance(stmt, MethodStmt):
            self._exec_method(stmt, work)
            return
        raise OracleError(f"unknown statement {stmt!r}")

    def _exec_method(self, stmt: MethodStmt, work: dict) -> None:
        if stmt.argument is None:
            raise OracleError(f"{stmt.target}.{stmt.method} needs an argument")
        value = self._eval(stmt.argument, work)
        if stmt.target == "bgp_community" and stmt.method == "add":
            if value not in work["communities"]:
                work["communities"].append(value)
            work["written"].add("communities")
            return
        if stmt.target == "bgp_community" and stmt.method == "delete":
            work["communities"] = [
                c for c in work["communities"] if c != value
            ]
            work["written"].add("communities")
            return
        if stmt.target == "bgp_path" and stmt.method == "prepend":
            work["path"] = work["path"].prepend(int(value))
            work["written"].add("path")
            return
        raise OracleError(f"unknown method {stmt.target}.{stmt.method}")

    # expressions

    def _eval(self, expr, work: dict):
        if isinstance(expr, IntLiteral):
            return expr.value
        if isinstance(expr, BoolLiteral):
            return expr.value
        if isinstance(expr, PairLiteral):
            return _pair(self._eval(expr.high, work),
                         self._eval(expr.low, work))
        if isinstance(expr, PrefixLiteral):
            return expr.prefix
        if isinstance(expr, (PrefixSet, AsSet)):
            return expr
        if isinstance(expr, AttributeRef):
            return self._read(expr.name, work)
        if isinstance(expr, FieldRef):
            return self._field(expr, work)
        if isinstance(expr, UnaryOp):
            value = self._eval(expr.operand, work)
            if expr.op == "!":
                return not bool(value)
            if expr.op == "-":
                return -value
            raise OracleError(f"unknown unary {expr.op!r}")
        if isinstance(expr, BinaryOp):
            return self._binary(expr, work)
        raise OracleError(f"cannot evaluate {expr!r}")

    def _read(self, name: str, work: dict):
        if name == "net":
            return work["prefix"]
        if name == "bgp_path":
            return work["path"]
        if name == "bgp_community":
            return tuple(work["communities"])
        mapped = {
            "bgp_origin": "origin",
            "bgp_med": "med",
            "bgp_local_pref": "local_pref",
            "peer_as": "peer_as",
            "source": "source",
        }.get(name)
        if mapped is None:
            raise OracleError(f"unknown attribute {name!r}")
        return work["state"][mapped]

    def _field(self, expr: FieldRef, work: dict):
        base = self._eval(expr.base, work)
        if isinstance(base, AsPath):
            if expr.field == "len":
                return base.length()
            if expr.field == "first":
                first = base.first_as()
                return -1 if first is None else first
            if expr.field == "last":
                last = base.origin_as()
                return -1 if last is None else last
            raise OracleError(f"unknown path field {expr.field!r}")
        if isinstance(base, Prefix):
            if expr.field == "len":
                return base.length
            raise OracleError(f"unknown net field {expr.field!r}")
        raise OracleError(f"no field {expr.field!r} on {base!r}")

    def _binary(self, expr: BinaryOp, work: dict):
        op = expr.op
        if op == "&&":
            return (bool(self._eval(expr.left, work))
                    and bool(self._eval(expr.right, work)))
        if op == "||":
            return (bool(self._eval(expr.left, work))
                    or bool(self._eval(expr.right, work)))
        left = self._eval(expr.left, work)
        right = self._eval(expr.right, work)
        if op == "~":
            return self._match(left, right)
        table = {
            "=": lambda: left == right,
            "!=": lambda: left != right,
            "<": lambda: left < right,
            "<=": lambda: left <= right,
            ">": lambda: left > right,
            ">=": lambda: left >= right,
            "+": lambda: left + right,
            "-": lambda: left - right,
        }
        if op not in table:
            raise OracleError(f"unknown operator {op!r}")
        return table[op]()

    def _match(self, left, right) -> bool:
        if isinstance(left, Prefix) and isinstance(right, PrefixSet):
            return any(
                self._prefix_matches(left, pattern)
                for pattern in right.patterns
            )
        if isinstance(left, AsPath) and isinstance(right, AsSet):
            return any(left.contains(int(asn)) for asn in right.asns)
        if isinstance(left, tuple):
            return any(c == right for c in left)
        if isinstance(left, Prefix) and isinstance(right, Prefix):
            return self._prefix_matches(
                left, PrefixPattern(right, right.length, 32)
            )
        raise OracleError(
            f"~ not defined between {type(left).__name__} and "
            f"{type(right).__name__}"
        )

    @staticmethod
    def _prefix_matches(net: Prefix, pattern: PrefixPattern) -> bool:
        plen = pattern.prefix.length
        if plen > 0:
            mask = (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF
            if (net.network & mask) != pattern.prefix.network:
                return False
        return pattern.low <= net.length <= pattern.high


# -- the decision process, re-derived from RFC 4271 9.1.2.2 ----------------

def _preference_key(route: OracleRoute, default_lp: int):
    """The per-route part of the tie-break chain (criteria 1-3, 5-7).

    Lower tuples are more preferred, so each criterion is negated where
    RFC 4271 says "highest wins".  MED (criterion 4) is conditional on
    the pair being compared and handled separately.
    """
    attrs = route.attrs
    lp = default_lp if attrs.local_pref is None else attrs.local_pref
    return (
        -lp,
        attrs.as_path.length(),
        int(attrs.origin),
        0 if route.kind == KIND_EBGP else 1,
        0 if route.via_bgp_id is None else route.via_bgp_id,
        route.via or "",
    )


def _med_applies(a: OracleRoute, b: OracleRoute,
                 always_compare_med: bool) -> bool:
    """MED is comparable only between routes via the same neighbor AS,
    unless deterministic-MED comparison is configured on."""
    if always_compare_med:
        return True
    first_a = a.attrs.as_path.first_as()
    first_b = b.attrs.as_path.first_as()
    return first_a is not None and first_a == first_b


def _effective_med(route: OracleRoute) -> int:
    return 0 if route.attrs.med is None else route.attrs.med


def _prefer(a: OracleRoute, b: OracleRoute, cfg: RouterConfig) -> bool:
    """True when ``a`` strictly beats ``b`` in the decision process."""
    key_a = _preference_key(a, cfg.default_local_pref)
    key_b = _preference_key(b, cfg.default_local_pref)
    # Criteria 1-3 precede MED; 5-7 follow it.
    if key_a[:3] != key_b[:3]:
        return key_a[:3] < key_b[:3]
    if _med_applies(a, b, cfg.always_compare_med):
        med_a, med_b = _effective_med(a), _effective_med(b)
        if med_a != med_b:
            return med_a < med_b
    return key_a[3:] < key_b[3:]


def _select(candidates: Sequence[OracleRoute],
            cfg: RouterConfig) -> OracleRoute | None:
    """Most-preferred candidate; first wins ties (the chain is total for
    distinct feasible routes, so ties only arise for identical keys)."""
    best: OracleRoute | None = None
    for route in candidates:
        if best is None or _prefer(route, best, cfg):
            best = route
    return best


# -- the propagation model -------------------------------------------------

class ReferenceOracle:
    """Declarative route propagation over a configured topology."""

    def __init__(self, configs: Iterable[RouterConfig],
                 adjacency: dict[str, Sequence[str]] | None = None,
                 links: Iterable[Sequence] | None = None):
        self._configs = {cfg.name: cfg for cfg in configs}
        if adjacency is None:
            if links is None:
                raise OracleError("need adjacency or links")
            adjacency = self._adjacency_from_links(links)
        self._adjacency = {
            name: tuple(sorted(peers))
            for name, peers in adjacency.items()
        }
        self._machines: dict[tuple[str, str], _PolicyMachine] = {}

    # construction helpers

    def _adjacency_from_links(
        self, links: Iterable[Sequence]
    ) -> dict[str, list[str]]:
        """Sessions that can establish: a link plus mutually consistent
        neighbor stanzas (wrong ``peer_as`` would fail the OPEN)."""
        adjacency: dict[str, list[str]] = {
            name: [] for name in self._configs
        }
        for link in links:
            a, b = link[0], link[1]
            if self._session_ok(a, b) and self._session_ok(b, a):
                adjacency[a].append(b)
                adjacency[b].append(a)
        return adjacency

    def _session_ok(self, local: str, peer: str) -> bool:
        cfg = self._configs.get(local)
        peer_cfg = self._configs.get(peer)
        if cfg is None or peer_cfg is None:
            return False
        neighbor = self._neighbor(cfg, peer)
        return neighbor is not None and neighbor.peer_as == peer_cfg.local_as

    @staticmethod
    def _neighbor(cfg: RouterConfig, peer: str) -> NeighborConfig | None:
        for neighbor in cfg.neighbors:
            if neighbor.peer == peer:
                return neighbor
        return None

    def _machine(self, router: str, name: str) -> _PolicyMachine:
        """Compiled policy machine for one (router, filter) pair."""
        key = (router, name)
        machine = self._machines.get(key)
        if machine is None:
            cfg = self._configs[router]
            definition = None
            filters = getattr(cfg, "filters", None) or {}
            holder = filters.get(name)
            if holder is not None:
                definition = holder.definition
            elif name == "accept_all":
                definition = _ACCEPT_ALL_DEF
            if definition is None:
                raise OracleError(f"{router}: unknown filter {name!r}")
            machine = _PolicyMachine(definition, cfg.default_local_pref)
            self._machines[key] = machine
        return machine

    # per-hop transforms (RFC 4271 section 9.1.3 / 9.2 analogues)

    def _export(self, sender: str, receiver: str, prefix: Prefix,
                route: OracleRoute) -> PathAttributes | None:
        """What ``sender`` advertises to ``receiver`` for its best path,
        or None when policy/loop-prevention withholds it."""
        cfg = self._configs[sender]
        neighbor = self._neighbor(cfg, receiver)
        assert neighbor is not None
        ibgp_peer = neighbor.is_ibgp(cfg.local_as)
        if route.via == receiver:
            return None
        if route.kind == KIND_IBGP and ibgp_peer:
            return None
        attrs = route.attrs
        if attrs.has_community(COMMUNITY_NO_ADVERTISE):
            return None
        if not ibgp_peer and attrs.has_community(COMMUNITY_NO_EXPORT):
            return None
        if not ibgp_peer and attrs.as_path.contains(neighbor.peer_as):
            return None
        accepted, attrs = self._machine(
            sender, neighbor.export_filter
        ).run(prefix, attrs, route.kind, route.via_as)
        if not accepted:
            return None
        if ibgp_peer:
            lp = attrs.local_pref
            if lp is None:
                lp = cfg.default_local_pref
            return attrs.replace(local_pref=lp)
        return attrs.replace(
            as_path=attrs.as_path.prepend(cfg.local_as),
            next_hop=IPv4Address(cfg.router_id),
            local_pref=None,
            med=neighbor.export_med,
        )

    def _import(self, receiver: str, sender: str, prefix: Prefix,
                attrs: PathAttributes) -> OracleRoute | None:
        """Ingress checks + import policy at ``receiver``."""
        cfg = self._configs[receiver]
        neighbor = self._neighbor(cfg, sender)
        assert neighbor is not None
        if attrs.as_path.contains(cfg.local_as):
            return None
        kind = KIND_IBGP if neighbor.is_ibgp(cfg.local_as) else KIND_EBGP
        if kind == KIND_EBGP:
            first = attrs.as_path.first_as()
            if first is not None and first != neighbor.peer_as:
                return None
        accepted, attrs = self._machine(
            receiver, neighbor.import_filter
        ).run(prefix, attrs, kind, neighbor.peer_as)
        if not accepted:
            return None
        return OracleRoute(
            attrs=attrs,
            kind=kind,
            via=sender,
            via_as=neighbor.peer_as,
            via_bgp_id=int(self._configs[sender].router_id),
        )

    def _static(self, cfg: RouterConfig) -> OracleRoute:
        return OracleRoute(
            attrs=PathAttributes(next_hop=IPv4Address(cfg.router_id)),
            kind=KIND_STATIC,
        )

    def _candidates(
        self,
        router: str,
        prefix: Prefix,
        neighbor_best: dict[str, dict[Prefix, OracleRoute]],
    ) -> list[OracleRoute]:
        """Locally originated route + each neighbor's offered path, in
        the same deterministic order the tie-break chain resolves."""
        cfg = self._configs[router]
        candidates: list[OracleRoute] = []
        if prefix in set(cfg.networks):
            candidates.append(self._static(cfg))
        for peer in self._adjacency.get(router, ()):
            offered = neighbor_best.get(peer, {}).get(prefix)
            if offered is None:
                continue
            attrs = self._export(peer, router, prefix, offered)
            if attrs is None:
                continue
            imported = self._import(router, peer, prefix, attrs)
            if imported is not None:
                candidates.append(imported)
        return candidates

    # entry points

    def universe(self) -> list[Prefix]:
        """Every prefix originated somewhere in the configuration."""
        prefixes: set[Prefix] = set()
        for cfg in self._configs.values():
            prefixes.update(cfg.networks)
        return sorted(prefixes)

    def stable_state(self, max_rounds: int | None = None) -> OracleOutcome:
        """Iterate the propagation equations to a fixed point.

        Deterministic: routers are visited in sorted name order each
        round, and a router's update is visible to later routers within
        the same round (Gauss-Seidel — converges in few rounds where a
        stable solution exists).  ``converged=False`` after the round
        budget means the policies admit no stable solution the iteration
        can find — the oracle-side analogue of a BAD-GADGET dispute.
        """
        if max_rounds is None:
            max_rounds = 4 * len(self._configs) + 16
        prefixes = self.universe()
        state: dict[str, dict[Prefix, OracleRoute]] = {
            name: {} for name in self._configs
        }
        rounds = 0
        converged = False
        while rounds < max_rounds:
            rounds += 1
            changed = False
            for router in sorted(self._configs):
                cfg = self._configs[router]
                for prefix in prefixes:
                    best = _select(
                        self._candidates(router, prefix, state), cfg
                    )
                    if best != state[router].get(prefix):
                        changed = True
                        if best is None:
                            state[router].pop(prefix, None)
                        else:
                            state[router][prefix] = best
            if not changed:
                converged = True
                break
        ribs: CanonicalRib = {
            router: {
                prefix: route.canonical()
                for prefix, route in table.items()
            }
            for router, table in state.items()
        }
        return OracleOutcome(ribs=ribs, converged=converged, rounds=rounds)

    def verify_fixpoint(self, actual: CanonicalRib) -> list[Divergence]:
        """Is ``actual`` a fixed point of the independent semantics?

        Recomputes every router's best path from its *neighbors'* actual
        routes and diffs the result against the router's own actual
        route.  Sound for multi-stable topologies: whichever stable
        solution the system landed on, it must be self-consistent.
        """
        neighbor_best = {
            router: {
                prefix: _decanonicalize(route)
                for prefix, route in actual.get(router, {}).items()
            }
            for router in self._configs
        }
        prefixes = sorted(
            set(self.universe())
            | {p for table in actual.values() for p in table}
        )
        expected: CanonicalRib = {}
        for router in sorted(self._configs):
            cfg = self._configs[router]
            table: dict[Prefix, CanonicalRoute] = {}
            for prefix in prefixes:
                best = _select(
                    self._candidates(router, prefix, neighbor_best), cfg
                )
                if best is not None:
                    table[prefix] = best.canonical()
            expected[router] = table
        return RibDiff().diff(expected, actual)


class ReferenceBackend:
    """The always-available oracle backend (see the Oracle protocol)."""

    name = "reference"

    def available(self) -> tuple[bool, str]:
        return True, ""

    def converged_ribs(self, configs, links) -> OracleOutcome:
        return ReferenceOracle(configs, links=links).stable_state()


def _decanonicalize(route: CanonicalRoute) -> OracleRoute:
    """Rebuild an oracle route record from the canonical form."""
    segments = tuple(
        (SEGMENT_AS_SEQUENCE if seg_type == "sequence" else SEGMENT_AS_SET,
         tuple(asns))
        for seg_type, asns in route.as_path
    )
    attrs = PathAttributes(
        origin=route.origin,
        as_path=AsPath(segments=segments),
        next_hop=(
            None if route.next_hop is None else IPv4Address(route.next_hop)
        ),
        med=route.med,
        local_pref=route.local_pref,
        communities=route.communities,
    )
    return OracleRoute(
        attrs=attrs,
        kind=route.kind,
        via=route.via,
        via_as=route.via_as,
        via_bgp_id=route.via_bgp_id,
    )
