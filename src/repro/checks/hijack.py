"""Operator-mistake detection: origin authenticity over the sharing
interface (prefix-hijack check).

The federated showpiece.  The check never looks at remote RIBs or
configurations; it asks remote domains two yes/no questions through the
:class:`~repro.core.sharing.SharingInterface`:

* ``originates(prefix)`` — "does your AS currently originate this
  prefix?";
* ``authorizes_origin(prefix, asn)`` — "do you authorize AS ``asn`` to
  originate this prefix?" (covers legitimate multi-origin setups).

A domain answers for every router of its AS.  A route whose origin AS
is not among the claimants of a covering prefix, and that no claimant
authorizes, is flagged as a potential hijack — e.g. the consequence of
an operator adding a ``network`` statement for address space they do
not own.
"""

from __future__ import annotations

from repro.bgp.route import SOURCE_STATIC
from repro.core.faultclass import FAULT_OPERATOR_MISTAKE
from repro.core.properties import (
    SCOPE_FEDERATED,
    CheckContext,
    Property,
    Violation,
)


def originates(domain, prefix) -> bool:
    """Does any router of the domain originate ``prefix``?"""
    return any(prefix in config.networks for config in domain.configs())


def authorizes_origin(domain, prefix, asn: int) -> bool:
    """Does the domain authorize AS ``asn`` to originate ``prefix``?

    Minimal model: a domain authorizes exactly itself.  Sites with
    multi-origin agreements would consult a local table.
    """
    return asn == domain.asn and originates(domain, prefix)


class OriginAuthenticity(Property):
    """Every announced origin must be backed by a registered claim.

    Evaluated over the *pre-injection* clone state: an operator mistake
    lives in the system's configuration and RIBs as captured by the
    snapshot.  Evaluating after input injection instead would flag the
    explorer's own fabricated announcements (which deliberately carry
    arbitrary origins) as hijacks — a false positive on every healthy
    system.  ``prepare`` therefore computes the violations and ``check``
    reports them.  Before any input they depend only on the snapshot,
    the node and the claims, so a context's ``node_memo`` keeps them for
    the node's later clones.
    """

    name = "origin_authenticity"
    scope = SCOPE_FEDERATED
    fault_class = FAULT_OPERATOR_MISTAKE
    questions = (originates, authorizes_origin)

    def prepare(self, context: CheckContext) -> None:
        memo = context.node_memo
        if memo is None:
            violations = self._evaluate(context)
        elif self.name in memo:
            violations = memo[self.name]
        else:
            violations = memo[self.name] = self._evaluate(context)
        context.baseline["origin_violations"] = violations

    def check(self, context: CheckContext) -> list[Violation]:
        return context.baseline.get("origin_violations", [])

    def _evaluate(self, context: CheckContext) -> list[Violation]:
        violations: list[Violation] = []
        router = context.router
        local_as = context.local_as()
        now = context.clone.sim.now
        # 1. Our own originations: are we announcing space someone else
        #    registered?  This is the hijacker-side check that fires when
        #    DiCE explores a local "add network" configuration change.
        for prefix in router.config.networks:
            owners = context.sharing.claims.covering(prefix)
            if owners and local_as not in owners:
                confirmed = self._confirm_foreign_ownership(
                    context, prefix, owners, local_as, now
                )
                if confirmed:
                    violations.append(
                        self.violation(
                            context,
                            f"node originates {prefix}, registered to "
                            f"AS{'/'.join(str(a) for a in sorted(owners))}",
                            prefix=str(prefix),
                            owners=sorted(owners),
                            origin_as=local_as,
                        )
                    )
        # 2. Learned routes: does any selected route claim an origin that
        #    the registered owner disavows?
        for route in router.loc_rib.routes():
            if route.source == SOURCE_STATIC:
                continue
            origin_as = route.origin_as
            if origin_as is None:
                continue
            owners = context.sharing.claims.covering(route.prefix)
            if not owners or origin_as in owners:
                continue
            confirmed = self._confirm_foreign_ownership(
                context, route.prefix, owners, origin_as, now
            )
            if confirmed:
                violations.append(
                    self.violation(
                        context,
                        f"selected route for {route.prefix} originated by "
                        f"AS{origin_as}, registered to "
                        f"AS{'/'.join(str(a) for a in sorted(owners))}",
                        prefix=str(route.prefix),
                        origin_as=origin_as,
                        owners=sorted(owners),
                        as_path=str(route.attributes.as_path),
                    )
                )
        return violations

    @staticmethod
    def _confirm_foreign_ownership(context: CheckContext, prefix, owners,
                                   suspect_as: int, now: float) -> bool:
        """Cross-check the claim with the owners themselves.

        Claims can be stale; a hijack alarm is raised only when a
        claimed owner (a) still asserts origination of the covering space
        and (b) does not authorize the suspect AS.  Both questions cross
        the narrow interface as booleans.
        """
        sharing = context.sharing
        for owner_as in sorted(owners):
            if owner_as not in sharing.domains:
                # Owner unreachable: keep the alarm on the claims' evidence.
                return True
            for owned_prefix in sharing.claims.claims_by(owner_as, covering=prefix):
                if not sharing.query(
                    context.local_as(), owner_as, "originates",
                    owned_prefix, now=now,
                ):
                    continue
                authorizes = sharing.query(
                    context.local_as(), owner_as, "authorizes_origin",
                    prefix, suspect_as, now=now,
                )
                if not authorizes:
                    return True
        return False
