"""Tests for symbolic proxies and branch recording."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.concolic.expr import Const, Var
from repro.concolic import path
from repro.concolic.path import held_path
from repro.concolic.symbolic import (
    MAX_BRANCHES,
    PathRecorder,
    SymBool,
    SymBytes,
    SymInt,
    concrete,
)


def sym(value, name="x"):
    return SymInt(Var(name, 0, 255), value)


class TestSymIntArithmetic:
    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=255))
    def test_concrete_tracks_python(self, a, b):
        x = sym(a)
        assert (x + b).concrete == a + b
        assert (x - b).concrete == a - b
        assert (x * b).concrete == a * b
        assert (x & b).concrete == a & b
        assert (x | b).concrete == a | b
        assert (x ^ b).concrete == a ^ b
        assert (x << 2).concrete == a << 2
        assert (x >> 1).concrete == a >> 1
        assert (-x).concrete == -a
        assert (~x).concrete == ~a

    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=255))
    def test_reflected_ops(self, a, b):
        x = sym(a)
        assert (b + x).concrete == b + a
        assert (b - x).concrete == b - a
        assert (b & x).concrete == b & a
        assert (b | x).concrete == b | a

    def test_sym_sym_ops(self):
        x, y = sym(3, "x"), sym(5, "y")
        total = x + y
        assert total.concrete == 8
        names = {var.name for var in total.expr.variables()}
        assert names == {"x", "y"}

    def test_floordiv_power_of_two_stays_symbolic(self):
        x = sym(12)
        result = x // 4
        assert isinstance(result, SymInt)
        assert result.concrete == 3

    def test_floordiv_non_exact_concretizes(self):
        assert sym(13) // 4 == 3  # plain int

    def test_mod_power_of_two_stays_symbolic(self):
        result = sym(13) % 4
        assert isinstance(result, SymInt)
        assert result.concrete == 1

    def test_int_index_hash(self):
        x = sym(7)
        assert int(x) == 7
        assert [10, 20, 30, 40, 50, 60, 70, 80][x] == 80
        assert hash(x) == hash(7)

    def test_format(self):
        assert f"{sym(255):02x}" == "ff"

    def test_incompatible_operand(self):
        with pytest.raises(TypeError):
            sym(1) + "text"


class TestBranchRecording:
    def test_no_recorder_no_crash(self):
        assert bool(sym(3) > 1) is True

    def test_comparison_records_on_bool(self):
        with PathRecorder() as recorder:
            if sym(5) > 3:
                pass
        assert len(recorder.branches) == 1
        constraint, taken = recorder.branches[0]
        assert constraint.op == "gt"
        assert taken is True

    def test_false_branch_recorded(self):
        with PathRecorder() as recorder:
            if sym(1) > 3:
                raise AssertionError("unreachable")
        constraint, taken = recorder.branches[0]
        assert taken is False

    def test_comparison_without_bool_not_recorded(self):
        with PathRecorder() as recorder:
            _ = sym(5) > 3  # never forced
        assert recorder.branches == []

    def test_truthiness_records_ne_zero(self):
        with PathRecorder() as recorder:
            if sym(0):
                raise AssertionError("unreachable")
        constraint, taken = recorder.branches[0]
        assert constraint.op == "ne"
        assert taken is False

    def test_chained_conditions_record_all_forced(self):
        with PathRecorder() as recorder:
            x = sym(10)
            if x > 5 and x < 20:
                pass
        assert len(recorder.branches) == 2

    def test_short_circuit_skips_second(self):
        with PathRecorder() as recorder:
            x = sym(1)
            if x > 5 and x < 20:
                pass
        assert len(recorder.branches) == 1

    def test_held_path_reconstruction(self):
        with PathRecorder() as recorder:
            x = sym(10)
            assert x > 5
            assert not (x > 50)
        held = held_path(recorder.branches)
        assert held[0].holds({"x": 10})
        assert held[1].holds({"x": 10})
        assert not held[1].holds({"x": 60})

    def test_nested_recorders_rejected(self):
        with PathRecorder():
            with pytest.raises(RuntimeError):
                with PathRecorder():
                    pass

    def test_max_branches_truncates(self):
        with PathRecorder() as recorder:
            x = sym(1)
            constraint = (x > 0).constraint
            for _ in range(MAX_BRANCHES + 10):
                recorder.record(constraint, True)
        assert len(recorder.branches) == MAX_BRANCHES

    def test_recorder_takes_no_branch_cap(self):
        # The cap is the one module constant, not a per-recorder knob.
        with pytest.raises(TypeError):
            PathRecorder(max_branches=3)

    def test_signature_differs_per_path(self):
        def run(value):
            with PathRecorder() as recorder:
                if sym(value) > 5:
                    pass
            return path.signature(recorder.branches)

        assert run(10) != run(1)
        assert run(10) == run(20)


class TestSymBool:
    def test_bool_returns_concrete(self):
        from repro.concolic.expr import Constraint

        constraint = Constraint("eq", Var("x"), Const(1))
        assert bool(SymBool(constraint, True)) is True
        assert bool(SymBool(constraint, False)) is False


class TestSymBytes:
    def test_unmarked_index_plain_int(self):
        data = SymBytes(b"\x01\x02", {})
        assert data[0] == 1
        assert isinstance(data[0], int)

    def test_marked_index_symint(self):
        data = SymBytes.mark_offsets(b"\x01\x02", [1])
        assert isinstance(data[1], SymInt)
        assert data[1].concrete == 2
        assert isinstance(data[0], int)

    def test_mark_all(self):
        data = SymBytes.mark_all(b"abc")
        assert all(isinstance(data[i], SymInt) for i in range(3))

    def test_negative_index(self):
        data = SymBytes.mark_all(b"abc")
        assert data[-1].concrete == ord("c")

    def test_slice_preserves_marks(self):
        data = SymBytes.mark_offsets(b"\x00\x01\x02\x03", [2])
        view = data[1:4]
        assert isinstance(view[1], SymInt)  # original offset 2
        assert isinstance(view[0], int)

    def test_stepped_slice_rejected(self):
        with pytest.raises(ValueError):
            SymBytes(b"abcd")[::2]

    def test_mark_outside_buffer_rejected(self):
        with pytest.raises(ValueError):
            SymBytes(b"ab", {5: Var("x")})

    def test_with_values(self):
        data = SymBytes.mark_offsets(b"\x00\x00\x00", [0, 2], prefix="b")
        variables = data.variables()
        updated = data.with_values({variables[0].name: 0xAA})
        assert updated.concrete == b"\xaa\x00\x00"
        # Marks carry over.
        assert isinstance(updated[0], SymInt)

    def test_iteration(self):
        data = SymBytes.mark_offsets(b"\x01\x02", [0])
        items = list(data)
        assert isinstance(items[0], SymInt)
        assert items[1] == 2

    def test_len(self):
        assert len(SymBytes.mark_all(b"abcd")) == 4


class TestConcretize:
    def test_unwraps_nested(self):
        value = {
            "a": sym(1),
            "b": [sym(2), 3],
            "c": (sym(4),),
            "d": SymBytes.mark_all(b"x"),
        }
        plain = concrete(value)
        assert plain == {"a": 1, "b": [2, 3], "c": (4,), "d": b"x"}

    def test_passthrough(self):
        assert concrete("text") == "text"
        assert concrete(None) is None
