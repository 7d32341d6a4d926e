"""Concrete BGP properties and oracles.

Three :class:`~repro.core.properties.Property` implementations map onto
the paper's three fault classes:

* :class:`~repro.checks.crash.CrashFreedom` — programming errors;
* :class:`~repro.checks.oscillation.RouteStability` — policy conflicts;
* :class:`~repro.checks.hijack.OriginAuthenticity` — operator mistakes
  (the federated check exercising the sharing interface).

:mod:`repro.checks.reachability` provides *oracle* checks (forwarding
loops, blackholes) with global visibility — usable in tests and
dashboards, but deliberately not implementable over the narrow sharing
interface; keeping them separate documents that boundary.
"""

from repro.checks.consistency import ExportConsistency
from repro.checks.crash import CrashFreedom
from repro.checks.hijack import OriginAuthenticity
from repro.checks.oscillation import RouteStability
from repro.checks.reachability import (
    find_blackholes,
    find_forwarding_loops,
    forwarding_path,
)
from repro.checks.sessions import SessionCascade

__all__ = [
    "CrashFreedom",
    "OriginAuthenticity",
    "RouteStability",
    "SessionCascade",
    "ExportConsistency",
    "find_forwarding_loops",
    "find_blackholes",
    "forwarding_path",
]


def default_property_suite():
    """The default suite: the paper's three fault classes plus the
    session-cascade check its introduction motivates."""
    from repro.core.properties import PropertySuite

    return PropertySuite([
        CrashFreedom(),
        RouteStability(),
        OriginAuthenticity(),
        SessionCascade(),
    ])

