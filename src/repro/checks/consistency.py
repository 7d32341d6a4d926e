"""Export/import consistency via salted commitments.

The second half of the narrow sharing interface: beyond yes/no answers,
domains can exchange *salted commitments* to local values — proving
agreement without revealing the values to anyone who does not already
hold them.

The check: for every route the explorer node holds from an eBGP peer,
ask the peer's domain for a commitment to the wire-stable attributes it
believes it advertised to us ``(prefix, AS path, origin)``, under a salt
we choose.  We compute the same commitment over what we received.  A
mismatch means the peer's send-side record and our receive-side record
disagree — in-flight corruption, a codec defect, or a lying speaker —
without either domain disclosing a route the other did not already see.

Salts are drawn fresh per query from the verifying node's seeded RNG, so
a responder cannot precompute or replay commitments.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.bgp.route import SOURCE_EBGP
from repro.core.faultclass import FAULT_PROGRAMMING_ERROR
from repro.core.properties import (
    SCOPE_FEDERATED,
    CheckContext,
    Property,
    Violation,
)
from repro.util.hashing import salted_digest


def wire_stable_view(prefix, attributes) -> tuple:
    """The attribute projection both ends must agree on.

    Restricted to fields import policy normally never rewrites: the
    prefix, the AS path as sent, and the origin code.  (LOCAL_PREF, MED
    and communities are legitimately rewritten on import, so they cannot
    be part of a cross-domain agreement check.)  Sites whose import
    filters prepend to the AS path or rewrite the origin must exclude
    those sessions from this check — agreement is then undefined.
    """
    return (
        str(prefix),
        attributes.as_path.segments,
        int(attributes.origin),
    )


def register_export_commitment(endpoint, routers: Mapping[str, Any],
                               name: str) -> None:
    """Expose the commitment check on a domain's endpoint, answered by
    router ``name`` of ``routers``, looked up when queried."""

    def export_commitment(peer_node: str, prefix, salt: bytes) -> bytes:
        rib_out = routers[name].adj_rib_out.get(peer_node)
        advertised = None if rib_out is None else rib_out.advertised(prefix)
        if advertised is None:
            # Commit to a distinguished "nothing advertised" value.
            return salted_digest(("no-advertisement", str(prefix)), salt)
        return salted_digest(wire_stable_view(prefix, advertised), salt)

    endpoint.register("export_commitment", export_commitment)


class ExportConsistency(Property):
    """Received routes must match what the sender believes it sent."""

    name = "export_consistency"
    scope = SCOPE_FEDERATED
    fault_class = FAULT_PROGRAMMING_ERROR

    def check(self, context: CheckContext) -> list[Violation]:
        # Each domain's commitments are answered by its endpoint's
        # router, looked up when queried.
        for endpoint in context.sharing.endpoints():
            if "export_commitment" not in endpoint.names():
                register_export_commitment(
                    endpoint, context.clone.processes, endpoint.node
                )
        violations: list[Violation] = []
        router = context.router
        rng = context.clone.sim.random.stream("consistency-salt")
        now = context.clone.sim.now
        for peer in sorted(router.adj_rib_in):
            session = router.sessions.get(peer)
            if session is None or not session.is_established():
                continue
            peer_as = session.peer_as
            if context.sharing.endpoint(peer_as) is None:
                continue
            for route in router.adj_rib_in[peer].routes():
                if route.source != SOURCE_EBGP:
                    continue
                salt = rng.getrandbits(128).to_bytes(16, "big")
                theirs = context.sharing.query(
                    context.local_as(), peer_as, "export_commitment",
                    context.node, route.prefix, salt, now=now,
                )
                ours = salted_digest(
                    wire_stable_view(route.prefix, route.attributes), salt
                )
                if theirs != ours:
                    violations.append(
                        self.violation(
                            context,
                            f"attributes of {route.prefix} from {peer} "
                            f"disagree with AS{peer_as}'s send-side record "
                            "(commitment mismatch)",
                            prefix=str(route.prefix),
                            peer=peer,
                            peer_as=peer_as,
                        )
                    )
        return violations
