"""The narrow information-sharing interface between federated domains.

Section 2 of the paper: "We define a narrow information-sharing
interface that allows nodes to communicate the result of local state
checks while preserving confidential information."

The design here:

* a :class:`ClaimTable` holds the origination claims, prefix -> the ASes
  claiming it (the IRR-like knowledge the hijack check consumes).  It
  is built once, from the initial configurations, and never changes:
  a campaign ships it in every task and every clone reads it as it is;
* a domain is an AS, meaning every router of it.  A *question* is a
  plain function of a :class:`Domain` (and the asker's arguments); the
  property that asks a question declares it
  (:attr:`~repro.core.properties.Property.questions`);
* a :class:`SharingInterface` answers a clone's questions.  A question
  may only return a **bool**, an **int counter**, or a **salted
  commitment** (bytes) — the interface rejects anything else at
  response time, so raw routes/configs physically cannot cross it —
  and every answer is appended to the interface's audit log.

Confidentiality is tested, not just asserted: the tests drive the
interface and check that every answer is one of those types and that
the audit log holds no rich object.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Any, Callable

from repro.bgp.ip import Prefix

# Types a question's answer may have.  Nothing else leaves the domain.
ALLOWED_RESPONSE_TYPES = (bool, int, bytes)

_ALL_ONES = 0xFFFFFFFF

# A question: a function of the answering Domain and the asker's
# arguments.
Question = Callable[..., Any]


class SharingViolation(Exception):
    """A question tried to disclose a non-allowed value."""


@dataclass(frozen=True)
class AuditEntry:
    """One query crossing the interface."""

    time: float
    requester_as: int
    responder_as: int
    check: str
    args: tuple
    response_type: str


class ClaimTable:
    """Origination claims, prefix -> the ASes claiming it; immutable.

    ``claims`` are ``(asn, prefix)`` pairs, each "AS ``asn`` declares
    itself an origin of ``prefix``", in any order and with repeats:
    the table is the same, and pickles to the same bytes, whatever the
    order.
    """

    # ``_lengths``, the table's distinct prefix lengths ascending, is
    # worked out from ``_table`` and never pickled.
    __slots__ = ("_table", "_lengths")

    def __init__(self, claims: Iterable[tuple[int, Prefix]] = ()):
        table: dict[Prefix, set[int]] = {}
        for asn, prefix in claims:
            table.setdefault(prefix, set()).add(asn)
        self._set_table({
            prefix: frozenset(sorted(table[prefix])) for prefix in sorted(table)
        })

    def _set_table(self, table: dict[Prefix, frozenset[int]]) -> None:
        self._table = table
        self._lengths = tuple(sorted({prefix.length for prefix in table}))

    def __getstate__(self):
        return None, {"_table": self._table}

    def __setstate__(self, state) -> None:
        self._set_table(state[1]["_table"])

    @staticmethod
    def from_configs(configs) -> "ClaimTable":
        """The claims of the *initial* configured originations — the
        trusted baseline the hijack check compares against."""
        return ClaimTable(
            (config.local_as, prefix)
            for config in configs
            for prefix in config.networks
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClaimTable) and self._table == other._table

    def origins(self, prefix: Prefix) -> frozenset[int]:
        """ASes with a claim exactly on ``prefix``."""
        return self._table.get(prefix, frozenset())

    def _claimed_covering(self, prefix: Prefix) -> Iterable[Prefix]:
        """The claimed prefixes covering ``prefix`` (itself included),
        shortest first: one lookup per length some claim has, up to
        ``prefix``'s, whatever the table's size."""
        for length in self._lengths:
            if length > prefix.length:
                break
            mask = (_ALL_ONES << (32 - length)) & _ALL_ONES
            covering = Prefix(prefix.network & mask, length)
            if covering in self._table:
                yield covering

    def covering(self, prefix: Prefix) -> frozenset[int]:
        """ASes claiming ``prefix`` or any covering (shorter) prefix.

        A more-specific announcement inside a claimed aggregate is not a
        hijack when made by the aggregate's owner.
        """
        return frozenset().union(
            *(self._table[claimed] for claimed in self._claimed_covering(prefix))
        )

    def claims_by(self, asn: int, covering: Prefix | None = None) -> list[Prefix]:
        """Prefixes ``asn`` claims, optionally only those covering a prefix."""
        candidates = (
            self._table if covering is None else self._claimed_covering(covering)
        )
        return sorted(prefix for prefix in candidates if asn in self._table[prefix])


def domains_of(configs: Mapping[str, Any]) -> dict[int, dict[str, Any]]:
    """AS -> its routers' configurations by name, from every router's
    configuration as a clone starts (None for a process that is no
    router).  Worked out once per snapshot; every clone's interface
    reads it."""
    domains: dict[int, dict[str, Any]] = {}
    for name in sorted(configs):
        config = configs[name]
        if config is not None:
            domains.setdefault(config.local_as, {})[name] = config
    return domains


class Domain:
    """One AS, meaning every router of it, in one clone: what a
    question reads.

    A router's configuration comes from the built router, or from its
    configuration as the clone started until it is built, so reading
    one builds nothing.
    """

    __slots__ = ("asn", "_starts", "_clone")

    def __init__(self, asn: int, starts: Mapping[str, Any], clone):
        self.asn = asn
        self._starts = starts
        self._clone = clone

    def __contains__(self, name: object) -> bool:
        return name in self._starts

    def configs(self) -> list[Any]:
        """Every router's configuration, in name order."""
        built = self._clone.processes.built
        return [
            start if (router := built.get(name)) is None else router.config
            for name, start in self._starts.items()
        ]

    def router(self, name: str):
        """This domain's router ``name``, built if it was not."""
        if name not in self._starts:
            raise KeyError(f"AS {self.asn} has no router {name!r}")
        return self._clone.processes[name]


class SharingInterface:
    """The interface as one clone's checks see it.

    Built per clone in O(1): it keeps its four inputs as they are —
    ``claims``, ``domains`` (:func:`domains_of`), the clone, and the
    ``questions`` by name — and makes a :class:`Domain` only when a
    query reaches one, so building it builds no router and allocates
    nothing per AS.
    """

    __slots__ = ("claims", "domains", "_clone", "_questions", "audit_log")

    def __init__(self, claims: ClaimTable, domains: Mapping[int, Mapping[str, Any]],
                 clone, questions: Mapping[str, Question]):
        self.claims = claims
        self.domains = domains
        self._clone = clone
        self._questions = questions
        self.audit_log: list[AuditEntry] = []

    def query(self, requester_as: int, responder_as: int, question: str,
              *args: Any, now: float = 0.0) -> Any:
        """Ask AS ``responder_as`` one question; enforces the
        narrow-response rule and logs the answer."""
        starts = self.domains.get(responder_as)
        if starts is None:
            raise KeyError(f"no domain AS {responder_as}")
        func = self._questions.get(question)
        if func is None:
            raise KeyError(f"no property declares question {question!r}")
        response = func(Domain(responder_as, starts, self._clone), *args)
        if not isinstance(response, ALLOWED_RESPONSE_TYPES):
            raise SharingViolation(
                f"question {question!r} to AS {responder_as} tried to return "
                f"{type(response).__name__}; only "
                f"{'/'.join(t.__name__ for t in ALLOWED_RESPONSE_TYPES)} "
                "may cross the sharing interface"
            )
        self.audit_log.append(
            AuditEntry(
                time=now,
                requester_as=requester_as,
                responder_as=responder_as,
                check=question,
                args=tuple(_scrub(arg) for arg in args),
                response_type=type(response).__name__,
            )
        )
        return response


def _scrub(arg: Any) -> Any:
    """Keep audit logs free of rich objects."""
    if isinstance(arg, Prefix):
        return str(arg)
    if isinstance(arg, (bool, int, str, bytes)):
        return arg
    return type(arg).__name__
