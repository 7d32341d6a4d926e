"""The narrow information-sharing interface between federated domains.

Section 2 of the paper: "We define a narrow information-sharing
interface that allows nodes to communicate the result of local state
checks while preserving confidential information."

The design here:

* each administrative domain (AS) runs a :class:`SharingEndpoint` that
  registers named *check functions* over its own node's state;
* a check function may only return a **bool**, an **int counter**, or a
  **salted commitment** (bytes) — the endpoint rejects anything else at
  registration-response time, so raw routes/configs physically cannot
  cross the interface;
* every query is appended to an audit log on both sides;
* the :class:`SharingRegistry` is the directory: it maps AS numbers to
  endpoints and prefixes to the set of ASes *claiming* to originate them
  (the IRR-like knowledge the hijack check consumes).

Confidentiality is tested, not just asserted: a property test drives the
interface and checks that no response object reachable from a query
result references route attributes, filters, or configuration.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.bgp.ip import Prefix
from repro.util.hashing import salted_digest

# Types a check response may have.  Nothing else leaves the domain.
ALLOWED_RESPONSE_TYPES = (bool, int, bytes)

CheckFunction = Callable[..., Any]


class SharingViolation(Exception):
    """A check tried to disclose a non-allowed value."""


@dataclass(frozen=True)
class AuditEntry:
    """One query crossing the interface."""

    time: float
    requester_as: int
    responder_as: int
    check: str
    args: tuple
    response_type: str


@dataclass
class SharingEndpoint:
    """One domain's side of the interface."""

    asn: int
    node: str
    _checks: dict[str, CheckFunction] = field(default_factory=dict)
    audit_log: list[AuditEntry] = field(default_factory=list)

    def register(self, name: str, func: CheckFunction) -> None:
        """Expose a named local check."""
        if name in self._checks:
            raise ValueError(f"check {name!r} already registered on AS {self.asn}")
        self._checks[name] = func

    def names(self) -> list[str]:
        """Names of exposed checks."""
        return sorted(self._checks)

    def respond(self, requester_as: int, check: str, *args: Any,
                now: float = 0.0) -> Any:
        """Answer a remote query; enforces the narrow-response rule."""
        func = self._checks.get(check)
        if func is None:
            raise KeyError(f"AS {self.asn} exposes no check {check!r}")
        response = func(*args)
        if not isinstance(response, ALLOWED_RESPONSE_TYPES):
            raise SharingViolation(
                f"check {check!r} on AS {self.asn} tried to return "
                f"{type(response).__name__}; only "
                f"{'/'.join(t.__name__ for t in ALLOWED_RESPONSE_TYPES)} "
                "may cross the sharing interface"
            )
        self.audit_log.append(
            AuditEntry(
                time=now,
                requester_as=requester_as,
                responder_as=self.asn,
                check=check,
                args=tuple(_scrub(arg) for arg in args),
                response_type=type(response).__name__,
            )
        )
        return response

    def commit(self, value: Any, salt: bytes) -> bytes:
        """Produce a salted commitment to a local value (never the value)."""
        return salted_digest(value, salt)


def _scrub(arg: Any) -> Any:
    """Keep audit logs free of rich objects."""
    if isinstance(arg, Prefix):
        return str(arg)
    if isinstance(arg, (bool, int, str, bytes)):
        return arg
    return type(arg).__name__


class SharingRegistry:
    """Directory of endpoints plus prefix-origination claims.

    ``claims`` hands in a table of claims, prefix -> claiming ASes, to
    read and share: an explorer builds one and hands it to every clone's
    registry, so a registry built over it claims nothing.
    """

    def __init__(self, claims: Mapping[Prefix, frozenset[int]] | None = None):
        self._endpoints: dict[int, SharingEndpoint] = {}
        self._claims: Mapping[Prefix, Set[int]] = (
            {} if claims is None else claims
        )
        self._claims_shared = claims is not None

    # -- endpoints --

    def add_endpoint(self, endpoint: SharingEndpoint) -> None:
        """Register one domain's endpoint (one per AS)."""
        if endpoint.asn in self._endpoints:
            raise ValueError(f"AS {endpoint.asn} already has an endpoint")
        self._endpoints[endpoint.asn] = endpoint

    def endpoint(self, asn: int) -> SharingEndpoint | None:
        """The endpoint for ``asn``, if registered."""
        return self._endpoints.get(asn)

    def endpoints(self) -> list[SharingEndpoint]:
        """All registered endpoints."""
        return [self._endpoints[asn] for asn in sorted(self._endpoints)]

    def query(self, requester_as: int, responder_as: int, check: str,
              *args: Any, now: float = 0.0) -> Any:
        """Route one cross-domain query."""
        endpoint = self._endpoints.get(responder_as)
        if endpoint is None:
            raise KeyError(f"no endpoint for AS {responder_as}")
        return endpoint.respond(requester_as, check, *args, now=now)

    # -- origination claims (the IRR analogue) --

    def claim_origin(self, asn: int, prefix: Prefix) -> None:
        """Record that ``asn`` declares itself an origin for ``prefix``."""
        if self._claims_shared:
            raise ValueError("this registry reads a shared table of claims")
        self._claims.setdefault(prefix, set()).add(asn)

    def claimed_origins(self, prefix: Prefix) -> frozenset[int]:
        """ASes with a registered claim exactly on ``prefix``."""
        return frozenset(self._claims.get(prefix, ()))

    def covering_claims(self, prefix: Prefix) -> frozenset[int]:
        """ASes claiming ``prefix`` or any covering (shorter) prefix.

        A more-specific announcement inside a claimed aggregate is not a
        hijack when made by the aggregate's owner.
        """
        owners: set[int] = set()
        for claimed, asns in self._claims.items():
            if claimed.contains(prefix):
                owners.update(asns)
        return frozenset(owners)

    def claim_table(self) -> dict[Prefix, frozenset[int]]:
        """A copy of every claim, for registries to share (``claims``)."""
        return {prefix: frozenset(self._claims[prefix])
                for prefix in sorted(self._claims)}

    def all_claimed_prefixes(self) -> list[Prefix]:
        """Every prefix with at least one origination claim."""
        return sorted(self._claims)

    def claims_by(self, asn: int, covering: Prefix | None = None) -> list[Prefix]:
        """Prefixes ``asn`` claims, optionally only those covering a prefix."""
        result = []
        for prefix, claimants in self._claims.items():
            if asn not in claimants:
                continue
            if covering is not None and not prefix.contains(covering):
                continue
            result.append(prefix)
        return sorted(result)

    @staticmethod
    def from_configs(configs) -> "SharingRegistry":
        """Build a registry whose claims mirror the *initial* configured
        originations — the trusted baseline the hijack check compares
        against."""
        registry = SharingRegistry()
        for config in configs:
            for prefix in config.networks:
                registry.claim_origin(config.local_as, prefix)
        return registry
