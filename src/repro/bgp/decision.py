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
below branch on ``effective_local_pref``/``effective_med``, which read the
symbolic shadows planted by the explorer when present.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable

from repro.bgp.route import SOURCE_EBGP, Route

DEFAULT_LOCAL_PREF = 100

# -- test-only mutation hook --------------------------------------------
#
# The differential oracle's acceptance criterion is that a seeded model
# bug is *caught*: the simulator runs with a deliberately wrong decision
# process and the independent oracle must flag the divergence with
# attribute-level blame.  Mutations are named, off by default, and only
# enabled inside the ``mutation`` context manager — production code never
# sets them.

MUTATION_INVERT_LOCAL_PREF = "invert_local_pref"

_ACTIVE_MUTATIONS: frozenset[str] = frozenset()


@contextmanager
def mutation(name: str):
    """Enable a named decision-process mutation for the ``with`` body."""
    # repro: allow[HRM002] test-only mutation hook; campaigns never enter
    # this context manager inside a worker, and the finally restores it
    global _ACTIVE_MUTATIONS
    previous = _ACTIVE_MUTATIONS
    _ACTIVE_MUTATIONS = previous | {name}
    try:
        yield
    finally:
        _ACTIVE_MUTATIONS = previous


def compare_routes(
    a: Route,
    b: Route,
    default_local_pref: int = DEFAULT_LOCAL_PREF,
    always_compare_med: bool = False,
) -> int:
    """Return <0 if ``a`` is preferred, >0 if ``b`` is, never 0 for
    distinct feasible routes (the final tie-break is total).

    Written with explicit ``<``/``>`` branches rather than tuple
    comparison so each criterion is an independently negatable path
    constraint under concolic execution.
    """
    lp_a = a.effective_local_pref(default_local_pref)
    lp_b = b.effective_local_pref(default_local_pref)
    if MUTATION_INVERT_LOCAL_PREF in _ACTIVE_MUTATIONS:
        lp_a, lp_b = lp_b, lp_a
    if lp_a > lp_b:
        return -1
    if lp_a < lp_b:
        return 1

    len_a = a.attributes.as_path.length()
    len_b = b.attributes.as_path.length()
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
) -> Route | None:
    """Select the most preferred route, or None for an empty set.

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
        )
        if verdict < 0:
            best = route
    return best
