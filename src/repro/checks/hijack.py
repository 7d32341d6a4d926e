"""Operator-mistake detection: origin authenticity over the sharing
interface (prefix-hijack check).

The federated showpiece.  The check never looks at remote RIBs or
configurations; it asks remote domains two yes/no questions through the
:class:`~repro.core.sharing.SharingRegistry`:

* ``originates(prefix)`` — "does your AS currently originate this
  prefix?";
* ``authorizes_origin(prefix, asn)`` — "do you authorize AS ``asn`` to
  originate this prefix?" (covers legitimate multi-origin setups).

A route whose origin AS is not among the registered claimants of a
covering prefix, and that no claimant authorizes, is flagged as a
potential hijack — e.g. the consequence of an operator adding a
``network`` statement for address space they do not own.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.bgp.route import SOURCE_STATIC
from repro.core.faultclass import FAULT_OPERATOR_MISTAKE
from repro.core.properties import (
    SCOPE_FEDERATED,
    CheckContext,
    Property,
    Violation,
)
from repro.core.sharing import SharingEndpoint, SharingRegistry


def build_sharing_endpoints(clone, registry: SharingRegistry,
                            configs: Mapping[str, Any]) -> None:
    """Register one endpoint per router in ``clone`` onto ``registry``.

    Each endpoint answers for its own router only, which it looks up by
    name when queried; the checks it exposes return booleans.
    ``configs`` are the routers' configurations as the clone starts (a
    snapshot's checkpoints hold them), so registering builds no router
    of a lazy clone and a configuration question builds none either: it
    reads a router's own configuration once the router is built, and
    its starting one until then.  Endpoints for ASes already present
    are skipped (several routers may share an AS).
    """
    built = clone.materialized()

    def config_of(name: str):
        router = built.get(name)
        return configs[name] if router is None else router.config

    for name in sorted(configs):
        config = configs[name]
        if config is None:
            continue
        if registry.endpoint(config.local_as) is not None:
            continue
        endpoint = SharingEndpoint(asn=config.local_as, node=name)
        endpoint.register(
            "originates",
            lambda prefix, _name=name: prefix in config_of(_name).networks,
        )
        endpoint.register(
            "authorizes_origin",
            # Minimal model: a domain authorizes exactly itself.  Sites
            # with multi-origin agreements would consult a local table.
            lambda prefix, asn, _name=name: (
                asn == config_of(_name).local_as
                and prefix in config_of(_name).networks
            ),
        )
        registry.add_endpoint(endpoint)


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
            owners = context.sharing.covering_claims(prefix)
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
            owners = context.sharing.covering_claims(route.prefix)
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
        """Cross-check the registry claim with the owners themselves.

        Registry data can be stale; a hijack alarm is raised only when a
        claimed owner (a) still asserts origination of the covering space
        and (b) does not authorize the suspect AS.  Both questions cross
        the narrow interface as booleans.
        """
        for owner_as in sorted(owners):
            endpoint = context.sharing.endpoint(owner_as)
            if endpoint is None:
                # Owner unreachable: keep the alarm on registry evidence.
                return True
            for owned_prefix in context.sharing.claims_by(owner_as, covering=prefix):
                originates = context.sharing.query(
                    context.local_as(), owner_as, "originates",
                    owned_prefix, now=now,
                )
                if not originates:
                    continue
                authorizes = context.sharing.query(
                    context.local_as(), owner_as, "authorizes_origin",
                    prefix, suspect_as, now=now,
                )
                if not authorizes:
                    return True
        return False
