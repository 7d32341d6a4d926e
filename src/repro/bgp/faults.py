"""Injectable programming-error bugs.

The paper's evaluation shows DiCE detecting faults "due to programming
errors".  To reproduce that experiment we need a router with latent bugs
for the concolic explorer to find.  Each bug below is modeled on a class
of real C-router defect, is *off by default*, and triggers only on a
narrow input condition — which is exactly the situation concolic testing
is good at and random fuzzing is bad at (EXP-EXPLORE measures that gap).

Bugs are enabled per-router via ``RouterConfig.enabled_bugs``.
"""

from __future__ import annotations

# A community value that crashes the update handler — models a missing
# bounds check on a table indexed by community "function" bits, as in
# historical BGP CVEs triggered by a single crafted attribute.
BUG_COMMUNITY_CRASH = "community_crash"
COMMUNITY_CRASH_VALUE = 0xFFFF0000

# An AS_PATH length that is mis-measured — models a signed/unsigned
# off-by-one in the path-length computation: paths of exactly this hop
# count are reported one hop shorter, silently corrupting the decision
# process (a semantic bug, not a crash).
BUG_ASPATH_OFF_BY_ONE = "aspath_off_by_one"
ASPATH_BUGGY_LENGTH = 7

# A MED value that flips sign — models a C ``int`` overflow: MEDs above
# 2^31-1 compare as negative, inverting the preference order.
BUG_MED_SIGNED_OVERFLOW = "med_signed_overflow"
MED_SIGN_BIT = 0x80000000

# A LOCAL_PREF comparison written the wrong way round — models a
# comparator with its operands swapped: the decision process prefers the
# *lowest* LOCAL_PREF.  Triggers on every choice between two different
# preferences; the differential oracle is what must catch it.
BUG_INVERTED_LOCAL_PREF = "inverted_local_pref"

# A withdrawn-prefix count that corrupts bookkeeping — models a buffer
# mis-size on UPDATEs carrying "too many" withdrawals in one message.
BUG_WITHDRAW_OVERFLOW = "withdraw_overflow"
WITHDRAW_OVERFLOW_COUNT = 12

ALL_BUGS = (
    BUG_COMMUNITY_CRASH,
    BUG_ASPATH_OFF_BY_ONE,
    BUG_MED_SIGNED_OVERFLOW,
    BUG_INVERTED_LOCAL_PREF,
    BUG_WITHDRAW_OVERFLOW,
)


class InjectedBugError(RuntimeError):
    """The crash raised when an enabled bug's trigger condition is met.

    Distinct from :class:`repro.bgp.errors.BGPError`: protocol errors are
    expected behaviour; this models an unhandled programming error.
    """

    def __init__(self, bug: str, detail: str = ""):
        super().__init__(f"injected bug {bug!r} triggered: {detail}")
        self.bug = bug


def buggy_path_length(true_length, enabled: bool):
    """Apply BUG_ASPATH_OFF_BY_ONE to a path-length value.

    The comparison is written on the possibly-symbolic value so that
    concolic exploration can steer an input into the buggy length.
    """
    if enabled and true_length == ASPATH_BUGGY_LENGTH:
        return true_length - 1
    return true_length


def buggy_med(med_value, enabled: bool):
    """Apply BUG_MED_SIGNED_OVERFLOW to a MED value."""
    if enabled and med_value >= MED_SIGN_BIT:
        return med_value - (1 << 32)
    return med_value


def buggy_local_pref(local_pref):
    """Apply BUG_INVERTED_LOCAL_PREF to a LOCAL_PREF value: negated, so
    the higher-wins comparison picks the lowest."""
    return -local_pref


def check_community_crash(communities, enabled: bool) -> None:
    """Raise :class:`InjectedBugError` if the crash community is present."""
    if not enabled:
        return
    for community in communities:
        if community == COMMUNITY_CRASH_VALUE:
            raise InjectedBugError(
                BUG_COMMUNITY_CRASH,
                f"community {COMMUNITY_CRASH_VALUE:#010x} dereferenced",
            )


def check_withdraw_overflow(count, enabled: bool) -> None:
    """Raise :class:`InjectedBugError` on oversized withdrawal batches."""
    if enabled and count >= WITHDRAW_OVERFLOW_COUNT:
        raise InjectedBugError(
            BUG_WITHDRAW_OVERFLOW, f"{int(count)} withdrawals in one UPDATE"
        )
