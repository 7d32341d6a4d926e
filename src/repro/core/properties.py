"""The property framework: desired-behaviour checks over explored clones.

A :class:`Property` evaluates after one exploration input has been
injected into a clone and its consequences have propagated.  Local
properties read the explorer node's own state freely; federated
properties may only reach other domains through the
:class:`~repro.core.sharing.SharingRegistry`.

Concrete BGP properties live in :mod:`repro.checks`; this module defines
the contracts the explorer drives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.sharing import SharingRegistry
from repro.net.network import Network

SCOPE_LOCAL = "local"
SCOPE_FEDERATED = "federated"


@dataclass(frozen=True)
class Violation:
    """One property violation observed in a clone."""

    property_name: str
    fault_class: str
    node: str
    detail: str
    evidence: dict[str, Any] = field(default_factory=dict)


@dataclass
class CheckContext:
    """Everything a property may look at.

    ``clone`` is the explored copy (never the live network).  ``node``
    names the explorer node.  ``baseline`` carries pre-exploration
    observations recorded by the property itself (see
    :meth:`Property.prepare`), e.g. crash counters before input
    injection.
    """

    clone: Network
    node: str
    sharing: SharingRegistry
    input_summary: str = ""
    baseline: dict[str, Any] = field(default_factory=dict)
    exploration_exception: Exception | None = None
    # The neighbor the exploration input impersonated; session effects
    # on the (node, peer) session are expected, effects beyond it are
    # emergent (see repro.checks.sessions).
    peer: str | None = None

    @property
    def router(self):
        """The explorer node's process inside the clone."""
        return self.clone.processes[self.node]

    def local_as(self) -> int:
        """The explorer node's AS number."""
        return self.router.config.local_as


class Property:
    """Base class for desired-behaviour properties.

    A property is ``monotone`` when, over one clone's run, its verdict
    only grows: a violation reported at simulated time t is reported
    again at every later time (its detail may read larger counts).
    The explorer may then check it part-way through the horizon and
    stop the clone at the first violation (see
    :mod:`repro.core.explorer`).  A property that reads end-of-horizon
    state is not monotone, which is the default.
    """

    name = "property"
    scope = SCOPE_LOCAL
    fault_class = "programming_error"
    monotone = False

    def prepare(self, context: CheckContext) -> None:
        """Record pre-injection baseline values into ``context.baseline``.

        Called on the clone after restoration, before the exploration
        input is injected.  Default: nothing.
        """

    def check(self, context: CheckContext) -> list[Violation]:
        """Evaluate after propagation; return violations (possibly [])."""
        raise NotImplementedError

    def violation(self, context: CheckContext, detail: str,
                  **evidence: Any) -> Violation:
        """Convenience constructor tagged with this property's metadata."""
        return Violation(
            property_name=self.name,
            fault_class=self.fault_class,
            node=context.node,
            detail=detail,
            evidence=evidence,
        )


class PropertySuite:
    """An ordered collection of properties evaluated together."""

    def __init__(self, properties: list[Property]):
        names = [prop.name for prop in properties]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate property names in {names}")
        self._properties = list(properties)

    def __iter__(self):
        return iter(self._properties)

    def __len__(self) -> int:
        return len(self._properties)

    def prepare_all(self, context: CheckContext) -> None:
        """Run every property's baseline pass."""
        for prop in self._properties:
            prop.prepare(context)

    def check_all(self, context: CheckContext) -> list[Violation]:
        """Run every property's check pass, concatenating violations."""
        violations: list[Violation] = []
        for prop in self._properties:
            violations.extend(prop.check(context))
        return violations

    def check_monotone(self, context: CheckContext) -> list[Violation]:
        """Run the monotone properties' check pass alone: the read-only
        check the explorer makes part-way through a clone's horizon."""
        violations: list[Violation] = []
        for prop in self._properties:
            if prop.monotone:
                violations.extend(prop.check(context))
        return violations
