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


def export_commitment(domain, sender: str, receiver: str, prefix,
                      salt: bytes) -> bytes:
    """A salted commitment to what the domain's router ``sender``
    advertised of ``prefix`` to ``receiver``: answered from the router
    that holds the session, never from another router of the AS."""
    advertised = None
    if sender in domain:
        rib_out = domain.router(sender).adj_rib_out.get(receiver)
        advertised = None if rib_out is None else rib_out.advertised(prefix)
    if advertised is None:
        # Commit to a distinguished "nothing advertised" value.
        return salted_digest(("no-advertisement", str(prefix)), salt)
    return salted_digest(wire_stable_view(prefix, advertised), salt)


class ExportConsistency(Property):
    """Received routes must match what the sender believes it sent."""

    name = "export_consistency"
    scope = SCOPE_FEDERATED
    fault_class = FAULT_PROGRAMMING_ERROR
    questions = (export_commitment,)

    def check(self, context: CheckContext) -> list[Violation]:
        violations: list[Violation] = []
        router = context.router
        rng = context.clone.sim.random.stream("consistency-salt")
        now = context.clone.sim.now
        for peer in sorted(router.adj_rib_in):
            session = router.sessions.get(peer)
            if session is None or not session.is_established():
                continue
            peer_as = session.peer_as
            if peer_as not in context.sharing.domains:
                continue
            for route in router.adj_rib_in[peer].routes():
                if route.source != SOURCE_EBGP:
                    continue
                salt = rng.getrandbits(128).to_bytes(16, "big")
                theirs = context.sharing.query(
                    context.local_as(), peer_as, "export_commitment",
                    peer, context.node, route.prefix, salt, now=now,
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
