"""Policy-conflict detection: the route-stability property.

Conflicting routing policies between domains (the classic "dispute
wheel", e.g. Griffin's BAD GADGET) make BGP oscillate: the decision
process keeps replacing the best route for a prefix without ever
converging.  Locally this is visible as sustained Loc-RIB churn.

The property counts Loc-RIB transitions per prefix during the
exploration horizon.  Genuine convergence produces a handful of changes
per prefix (bounded by path exploration during convergence); an
oscillation produces changes proportional to the horizon.  The default
threshold (8 transitions of the *same* prefix) sits well above anything
our topologies produce while converging and well below a single
oscillation period budget.

Change count alone is not enough, though: a system converging *slowly*
through many successively better paths (see the slow-convergence
gadget) racks up transitions without ever oscillating.  What separates
an oscillation is that the best route keeps *returning to a state it
already left* — so a violation additionally requires the per-prefix
state sequence to revisit previously-seen states at least
``min_revisits`` times.  Monotone convergence has zero revisits no
matter how many steps it takes.
"""

from __future__ import annotations

from collections import Counter

from repro.core.faultclass import FAULT_POLICY_CONFLICT
from repro.core.properties import SCOPE_LOCAL, CheckContext, Property, Violation


class RouteStability(Property):
    """No prefix may keep changing its selected route.

    Monotone while the Loc-RIB journal
    (:data:`~repro.bgp.rib.JOURNAL_CAPACITY` entries) has
    not wrapped since :meth:`prepare`: a prefix's transition count
    never decreases, and neither does its revisit count — appending a
    state to the sequence adds one to its length and at most one
    distinct state.  Past a wrap the oldest fresh changes are no longer
    retained and both counts can fall.
    """

    name = "route_stability"
    scope = SCOPE_LOCAL
    fault_class = FAULT_POLICY_CONFLICT
    monotone = True

    def __init__(self, max_transitions: int = 8,
                 watch_neighbors: bool = True,
                 min_revisits: int = 2):
        self.max_transitions = max_transitions
        self.watch_neighbors = watch_neighbors
        self.min_revisits = min_revisits

    def prepare(self, context: CheckContext) -> None:
        context.baseline["stability_since"] = context.clone.sim.now
        for name, process in context.clone.processes.items():
            rib = getattr(process, "loc_rib", None)
            if rib is not None:
                # Counter-based baseline: immune to journal eviction on
                # systems that have churned for a long time already.
                context.baseline[f"changes:{name}"] = rib.changes_total

    def check(self, context: CheckContext) -> list[Violation]:
        violations: list[Violation] = []
        observed = context.clone.sim.now - context.baseline.get(
            "stability_since", 0.0
        )
        nodes = (
            sorted(context.clone.processes)
            if self.watch_neighbors
            else [context.node]
        )
        for name in nodes:
            process = context.clone.processes[name]
            rib = getattr(process, "loc_rib", None)
            if rib is None:
                continue
            baseline = context.baseline.get(f"changes:{name}", 0)
            fresh = rib.recent_changes(rib.changes_total - baseline)
            per_prefix = Counter(change.prefix for change in fresh)
            for prefix, count in sorted(per_prefix.items()):
                if count < self.max_transitions:
                    continue
                flaps = [
                    change for change in fresh if change.prefix == prefix
                ]
                # A transition sequence only indicates oscillation if it
                # *returns* to states it already left; monotone (if slow)
                # convergence never revisits a state.
                states = [
                    None if change.new is None
                    else (change.new.peer, change.new.attributes.key())
                    for change in flaps
                ]
                revisits = len(states) - len(set(states))
                if revisits < self.min_revisits:
                    continue
                violations.append(
                    Violation(
                        property_name=self.name,
                        fault_class=self.fault_class,
                        node=name,
                        detail=(
                            f"{prefix} changed best route {count} times "
                            f"in {observed:.3f} simulated seconds "
                            f"(threshold {self.max_transitions}), "
                            f"revisiting {revisits} previously-held "
                            "states — likely policy-conflict oscillation"
                        ),
                        evidence={
                            "prefix": str(prefix),
                            "transitions": count,
                            "revisits": revisits,
                            "first_at": flaps[0].time,
                            "last_at": flaps[-1].time,
                            "origin_node": context.node,
                        },
                    )
                )
        return violations
