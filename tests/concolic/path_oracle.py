"""Plain-list oracles for the one-walk path digests.

The engine digests every flip of a path in one walk
(:func:`repro.concolic.path.flip_signatures`); these restate each
identity from scratch, as the specification the walk must equal.
"""

from repro.concolic.expr import _fp_mix
from repro.concolic.path import _SIG_STEP, signature


def flip_signature(branches, index):
    """The digest of "the path prefix up to ``index`` with branch
    ``index`` inverted", computed from the prefix alone."""
    constraint, taken = branches[index]
    acc = signature(branches[:index])
    return _fp_mix(_SIG_STEP, acc, constraint.fp, int(not taken))
