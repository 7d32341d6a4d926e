"""The BGP decision process (RFC 4271 section 9.1.2.2).

``compare_routes`` implements the tie-break chain; ``best_route`` reduces
a candidate set with it.  The chain, in order:

1. highest LOCAL_PREF (configured default when absent),
2. shortest AS_PATH (AS_SET counts one),
3. lowest ORIGIN (IGP < EGP < INCOMPLETE),
4. lowest MED, compared only between routes from the same neighbor AS
   unless ``always_compare_med`` (the "deterministic MED" knob whose
   misconfiguration is a classic operator mistake),
5. eBGP-learned preferred over iBGP-learned,
6. lowest peer BGP identifier,
7. lowest peer name (final, guarantees a total order).

This is the code region the paper marks symbolic to "systematically
explore the outcome of BGP's route selection process": the comparisons
below branch on the routes' attribute values, which are symbolic where
a decoded concolic input or the explorer put a symbolic value in the
set, and so record path constraints.

A router's seeded decision bugs (``bugs``, its ``enabled_bugs``) are an
input here: the off-by-one path length, the sign-flipped MED and the
inverted LOCAL_PREF of :mod:`repro.bgp.faults` change the values
compared, not the routes.  An empty set costs one truth test per
criterion that a bug can touch.
"""

from __future__ import annotations

from typing import Iterable

from repro.bgp import faults
from repro.bgp.route import SOURCE_EBGP, Route

DEFAULT_LOCAL_PREF = 100


def compare_routes(
    a: Route,
    b: Route,
    default_local_pref: int = DEFAULT_LOCAL_PREF,
    always_compare_med: bool = False,
    bugs: frozenset[str] = frozenset(),
) -> int:
    """Return <0 if ``a`` is preferred, >0 if ``b`` is, never 0 for
    distinct feasible routes (the final tie-break is total).

    Written with explicit ``<``/``>`` branches rather than tuple
    comparison so each criterion is an independently negatable path
    constraint under concolic execution.
    """
    lp_a = a.effective_local_pref(default_local_pref)
    lp_b = b.effective_local_pref(default_local_pref)
    if bugs and faults.BUG_INVERTED_LOCAL_PREF in bugs:
        lp_a = faults.buggy_local_pref(lp_a)
        lp_b = faults.buggy_local_pref(lp_b)
    if lp_a > lp_b:
        return -1
    if lp_a < lp_b:
        return 1

    len_a = a.attributes.as_path.length()
    len_b = b.attributes.as_path.length()
    if bugs and faults.BUG_ASPATH_OFF_BY_ONE in bugs:
        len_a = faults.buggy_path_length(len_a, True)
        len_b = faults.buggy_path_length(len_b, True)
    if len_a < len_b:
        return -1
    if len_a > len_b:
        return 1

    origin_a = a.attributes.origin
    origin_b = b.attributes.origin
    if origin_a < origin_b:
        return -1
    if origin_a > origin_b:
        return 1

    same_neighbor_as = (
        a.attributes.as_path.first_as() is not None
        and a.attributes.as_path.first_as() == b.attributes.as_path.first_as()
    )
    if always_compare_med or same_neighbor_as:
        med_a = a.effective_med()
        med_b = b.effective_med()
        if bugs and faults.BUG_MED_SIGNED_OVERFLOW in bugs:
            med_a = faults.buggy_med(med_a, True)
            med_b = faults.buggy_med(med_b, True)
        if med_a < med_b:
            return -1
        if med_a > med_b:
            return 1

    a_ebgp = a.source == SOURCE_EBGP
    b_ebgp = b.source == SOURCE_EBGP
    if a_ebgp and not b_ebgp:
        return -1
    if b_ebgp and not a_ebgp:
        return 1

    id_a = 0 if a.peer_bgp_id is None else int(a.peer_bgp_id)
    id_b = 0 if b.peer_bgp_id is None else int(b.peer_bgp_id)
    if id_a < id_b:
        return -1
    if id_a > id_b:
        return 1

    peer_a = a.peer or ""
    peer_b = b.peer or ""
    if peer_a < peer_b:
        return -1
    if peer_a > peer_b:
        return 1
    return 0


def best_route(
    candidates: Iterable[Route],
    default_local_pref: int = DEFAULT_LOCAL_PREF,
    always_compare_med: bool = False,
    bugs: frozenset[str] = frozenset(),
) -> Route | None:
    """Select the most preferred route, or None for an empty set; the
    winner is one of ``candidates`` itself.

    A linear reduction with ``compare_routes``; iBGP routes whose own AS
    appears in the path were already rejected at ingress, so every
    candidate here is feasible.
    """
    best: Route | None = None
    for route in candidates:
        if best is None:
            best = route
            continue
        verdict = compare_routes(
            route,
            best,
            default_local_pref=default_local_pref,
            always_compare_med=always_compare_med,
            bugs=bugs,
        )
        if verdict < 0:
            best = route
    return best
