"""Session-cascade detection.

The paper's introduction motivates DiCE with "performance and
reliability problems due to emergent behavior resulting from a local
session reset".  This property watches for exactly that shape: an
exploration input is allowed to affect the session it arrived on (a
malformed message legitimately ends in NOTIFICATION + reset at both
ends of *that* session), but any session reset beyond the impersonated
pair within the horizon is an emergent, system-wide consequence worth
reporting.
"""

from __future__ import annotations

from repro.core.faultclass import FAULT_PROGRAMMING_ERROR
from repro.core.properties import SCOPE_LOCAL, CheckContext, Property, Violation


class SessionCascade(Property):
    """No exploration input may reset sessions beyond its own.

    Monotone: session reset counters never decrease.
    """

    name = "session_cascade"
    scope = SCOPE_LOCAL
    fault_class = FAULT_PROGRAMMING_ERROR
    monotone = True

    def prepare(self, context: CheckContext) -> None:
        for name, process in context.clone.processes.items():
            sessions = getattr(process, "sessions", None)
            if sessions is None:
                continue
            for peer, session in sessions.items():
                context.baseline[f"resets:{name}:{peer}"] = (
                    session.stats.resets
                )

    def check(self, context: CheckContext) -> list[Violation]:
        expected_pair = self._expected_pair(context)
        violations = []
        for name in sorted(context.clone.processes):
            process = context.clone.processes[name]
            sessions = getattr(process, "sessions", None)
            if sessions is None:
                continue
            for peer in sorted(sessions):
                before = context.baseline.get(f"resets:{name}:{peer}", 0)
                resets = sessions[peer].stats.resets - before
                if resets <= 0:
                    continue
                if frozenset((name, peer)) == expected_pair:
                    continue  # the injected message's own session
                violations.append(
                    Violation(
                        property_name=self.name,
                        fault_class=self.fault_class,
                        node=name,
                        detail=(
                            f"session {name}<->{peer} reset {resets}x as an "
                            f"emergent consequence of exploration at "
                            f"{context.node} (input session untouched "
                            f"elsewhere)"
                        ),
                        evidence={
                            "session": f"{name}<->{peer}",
                            "resets": resets,
                            "origin_node": context.node,
                        },
                    )
                )
        return violations

    @staticmethod
    def _expected_pair(context: CheckContext) -> frozenset[str]:
        if context.peer is None:
            return frozenset()
        return frozenset((context.node, context.peer))
