"""Programming-error detection: the crash-freedom property.

A router must survive any byte sequence a peer sends: malformed input is
answered with a NOTIFICATION (expected protocol behaviour), never with a
daemon crash.  The property reads the crash counter, which a clone's
routers start at 0 (see :mod:`repro.core.properties`), so every crash
it counts happened in the clone.  The BGPRouter increments it exactly
when an *unexpected* exception escapes the update pipeline (see
:mod:`repro.bgp.router`), so protocol errors do not trigger false
positives.
"""

from __future__ import annotations

from repro.core.faultclass import FAULT_PROGRAMMING_ERROR
from repro.core.properties import SCOPE_LOCAL, CheckContext, Property, Violation


class CrashFreedom(Property):
    """No exploration input may crash the node.

    Monotone: crash counters never decrease, and the escaped exception
    is known from injection on.
    """

    name = "crash_freedom"
    scope = SCOPE_LOCAL
    fault_class = FAULT_PROGRAMMING_ERROR
    monotone = True

    def check(self, context: CheckContext) -> list[Violation]:
        violations = []
        router = context.router
        if router.crash_count > 0:
            violations.append(
                self.violation(
                    context,
                    f"router crashed handling exploration input: "
                    f"{router.last_crash}",
                    crash_count=router.crash_count,
                    last_crash=router.last_crash,
                )
            )
        if context.exploration_exception is not None:
            violations.append(
                self.violation(
                    context,
                    "exploration harness observed an escaped exception: "
                    f"{context.exploration_exception!r}",
                    exception=repr(context.exploration_exception),
                )
            )
        # Crashes at *other* nodes in the clone matter too: the explorer
        # node's action may have sent a neighbor an input it cannot
        # survive (system-wide consequences, section 2).  A router
        # nothing reached is unbuilt and has not crashed.
        for name, process in sorted(context.clone.materialized().items()):
            if name == context.node:
                continue
            if getattr(process, "crash_count", 0) > 0:
                violations.append(
                    Violation(
                        property_name=self.name,
                        fault_class=self.fault_class,
                        node=name,
                        detail=(
                            f"neighbor {name} crashed as a consequence of "
                            f"exploration at {context.node}: "
                            f"{getattr(process, 'last_crash', None)}"
                        ),
                        evidence={"origin_node": context.node},
                    )
                )
        return violations
