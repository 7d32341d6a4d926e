"""Programming-error detection: the crash-freedom property.

A router must survive any byte sequence a peer sends: malformed input is
answered with a NOTIFICATION (expected protocol behaviour), never with a
daemon crash.  The property compares the crash counter across the
exploration input; the BGPRouter increments it exactly when an
*unexpected* exception escapes the update pipeline (see
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

    def prepare(self, context: CheckContext) -> None:
        context.baseline["crash_count"] = context.router.crash_count
        for name, process in context.clone.processes.items():
            if name != context.node:
                context.baseline[f"crash_count:{name}"] = getattr(
                    process, "crash_count", 0
                )

    def check(self, context: CheckContext) -> list[Violation]:
        violations = []
        router = context.router
        baseline = context.baseline.get("crash_count", 0)
        if router.crash_count > baseline:
            violations.append(
                self.violation(
                    context,
                    f"router crashed handling exploration input: "
                    f"{router.last_crash}",
                    crash_count=router.crash_count - baseline,
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
        # survive (system-wide consequences, section 2).
        for name in sorted(context.clone.processes):
            if name == context.node:
                continue
            process = context.clone.processes[name]
            count = getattr(process, "crash_count", 0)
            base = context.baseline.get(f"crash_count:{name}", 0)
            if count > base:
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
