"""Tests for the injected-bug primitives."""

import pytest

from repro.bgp import faults


class TestCommunityCrash:
    def test_disabled_never_raises(self):
        faults.check_community_crash((faults.COMMUNITY_CRASH_VALUE,), False)

    def test_trigger_value_raises(self):
        with pytest.raises(faults.InjectedBugError) as excinfo:
            faults.check_community_crash((1, faults.COMMUNITY_CRASH_VALUE), True)
        assert excinfo.value.bug == faults.BUG_COMMUNITY_CRASH

    def test_other_values_pass(self):
        faults.check_community_crash((1, 2, 3), True)


class TestAsPathOffByOne:
    def test_buggy_length_only_at_trigger(self):
        assert faults.buggy_path_length(faults.ASPATH_BUGGY_LENGTH, True) == (
            faults.ASPATH_BUGGY_LENGTH - 1
        )
        assert faults.buggy_path_length(5, True) == 5
        assert faults.buggy_path_length(
            faults.ASPATH_BUGGY_LENGTH, False
        ) == faults.ASPATH_BUGGY_LENGTH


class TestMedOverflow:
    def test_sign_flip_at_boundary(self):
        assert faults.buggy_med(faults.MED_SIGN_BIT, True) < 0
        assert faults.buggy_med(faults.MED_SIGN_BIT - 1, True) > 0
        assert faults.buggy_med(faults.MED_SIGN_BIT, False) == faults.MED_SIGN_BIT

    def test_flip_is_twos_complement(self):
        assert faults.buggy_med(0xFFFFFFFF, True) == -1


class TestInvertedLocalPref:
    def test_order_reverses(self):
        assert faults.buggy_local_pref(200) < faults.buggy_local_pref(100)


class TestWithdrawOverflow:
    def test_threshold(self):
        faults.check_withdraw_overflow(faults.WITHDRAW_OVERFLOW_COUNT - 1, True)
        with pytest.raises(faults.InjectedBugError):
            faults.check_withdraw_overflow(faults.WITHDRAW_OVERFLOW_COUNT, True)

    def test_disabled(self):
        faults.check_withdraw_overflow(1000, False)


def test_all_bugs_registry_complete():
    assert set(faults.ALL_BUGS) == {
        faults.BUG_COMMUNITY_CRASH,
        faults.BUG_ASPATH_OFF_BY_ONE,
        faults.BUG_MED_SIGNED_OVERFLOW,
        faults.BUG_INVERTED_LOCAL_PREF,
        faults.BUG_WITHDRAW_OVERFLOW,
    }
