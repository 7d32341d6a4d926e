"""Tests for the expression/constraint AST."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.concolic import expr as expr_module
from repro.concolic.expr import (
    BinOp,
    Const,
    Constraint,
    UnOp,
    Var,
    _fp_int,
    _fp_mix,
    _fp_name,
    make_binop,
    make_unop,
    shape_hash,
)


class TestVar:
    def test_domain_validated(self):
        with pytest.raises(ValueError):
            Var("x", 10, 5)

    def test_equality_by_name(self):
        assert Var("x") == Var("x")
        assert Var("x") != Var("y")

    def test_evaluate(self):
        assert Var("x").evaluate({"x": 7}) == 7


class TestConstantFolding:
    def test_const_const_folds(self):
        assert make_binop("add", Const(2), Const(3)) == Const(5)

    def test_add_zero_identity(self):
        x = Var("x")
        assert make_binop("add", x, Const(0)) is x
        assert make_binop("add", Const(0), x) is x

    def test_mul_zero_annihilates(self):
        assert make_binop("mul", Var("x"), Const(0)) == Const(0)

    def test_mul_one_identity(self):
        x = Var("x")
        assert make_binop("mul", x, Const(1)) is x

    def test_shift_zero_identity(self):
        x = Var("x")
        assert make_binop("shl", x, Const(0)) is x

    def test_and_zero(self):
        assert make_binop("and", Var("x"), Const(0)) == Const(0)

    def test_double_negation_cancels(self):
        x = Var("x")
        assert make_unop("neg", make_unop("neg", x)) is x

    def test_unop_const_folds(self):
        assert make_unop("neg", Const(5)) == Const(-5)
        assert make_unop("not", Const(0)) == Const(-1)


class TestEvaluation:
    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_binops_match_python(self, a, b):
        assignment = {"a": a, "b": b}
        va, vb = Var("a"), Var("b")
        cases = {
            "add": a + b, "sub": a - b, "mul": a * b,
            "and": a & b, "or": a | b, "xor": a ^ b,
        }
        for op, expected in cases.items():
            assert BinOp(op, va, vb).evaluate(assignment) == expected
        assert BinOp("shl", va, Const(3)).evaluate(assignment) == a << 3
        assert BinOp("shr", va, Const(2)).evaluate(assignment) == a >> 2

    def test_unop_evaluate(self):
        assert UnOp("neg", Var("x")).evaluate({"x": 4}) == -4
        assert UnOp("not", Var("x")).evaluate({"x": 4}) == ~4


class TestConstraint:
    def test_negation_pairs(self):
        c = Constraint("lt", Var("x"), Const(5))
        assert c.negated().op == "ge"
        assert c.negated().negated() == c

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            Constraint("spaceship", Var("x"), Const(1))

    @given(st.integers(min_value=-10, max_value=10))
    def test_holds_matches_python(self, x):
        assignment = {"x": x}
        checks = {
            "eq": x == 3, "ne": x != 3, "lt": x < 3,
            "le": x <= 3, "gt": x > 3, "ge": x >= 3,
        }
        for op, expected in checks.items():
            constraint = Constraint(op, Var("x"), Const(3))
            assert constraint.holds(assignment) == expected

    @given(st.integers(min_value=-10, max_value=10))
    def test_negation_is_complement(self, x):
        constraint = Constraint("le", Var("x"), Const(0))
        assignment = {"x": x}
        assert constraint.holds(assignment) != constraint.negated().holds(
            assignment
        )

    def test_hash_equal_constraints(self):
        a = Constraint("eq", Var("x"), Const(1))
        b = Constraint("eq", Var("x"), Const(1))
        assert hash(a) == hash(b)
        assert a == b

    def test_commutative_hash(self):
        a = BinOp("add", Var("x"), Var("y"))
        b = BinOp("add", Var("y"), Var("x"))
        assert a == b
        assert hash(a) == hash(b)

    def test_variables_enumeration(self):
        constraint = Constraint(
            "eq",
            BinOp("add", Var("x"), Var("y")),
            Const(3),
        )
        names = {var.name for var in constraint.variables()}
        assert names == {"x", "y"}


class TestFingerprints:
    """Structural fingerprints: process-stable identities for frontier
    dedup and the refutation pre-pass."""

    def test_identical_trees_fingerprint_equal(self):
        def tree():
            return Constraint(
                "eq",
                BinOp("or", BinOp("shl", Var("a"), Const(8)), Var("b")),
                Const(0x1234),
            )

        assert tree().fp == tree().fp

    def test_distinct_structures_fingerprint_differently(self):
        fps = {
            Var("x").fp,
            Var("y").fp,
            Var("x", 0, 7).fp,  # domain is part of the structure
            Const(5).fp,
            Const(-5).fp,
            UnOp("neg", Var("x")).fp,
            UnOp("not", Var("x")).fp,
            BinOp("add", Var("x"), Const(5)).fp,
            BinOp("sub", Var("x"), Const(5)).fp,
            Constraint("eq", Var("x"), Const(5)).fp,
            Constraint("ne", Var("x"), Const(5)).fp,
        }
        assert len(fps) == 11

    def test_order_sensitive_like_repr(self):
        """The fingerprint refines repr identity, not __eq__: commutative
        operand order matters, exactly as it did for repr-based keys."""
        ab = BinOp("add", Var("a"), Var("b"))
        ba = BinOp("add", Var("b"), Var("a"))
        assert ab == ba  # __eq__ is commutative-insensitive
        assert ab.fp != ba.fp

    def test_huge_constants_disambiguated(self):
        assert Const(1).fp != Const(1 + (1 << 64)).fp
        # Same bit length, same low 64 bits — only the high limb
        # differs; frontier dedup trusts digests without comparing
        # trees, so Const must feed its full magnitude into the
        # fingerprint.
        assert Const(1 << 65).fp != Const(3 << 64).fp
        assert Const(5).fp != Const(-5).fp

    def test_huge_var_domains_disambiguated(self):
        """Var bounds take the same injective encoding as Const —
        64-bit masking would alias e.g. lo=-2 with lo=2**64-2."""
        assert Var("x", -2, 5).fp != Var("x", (1 << 64) - 2, (1 << 64) + 5).fp
        assert Var("x", -1, 5).fp != Var("x", 1, 5).fp

    def test_stable_across_processes(self):
        """No salted hash may leak in: recompute in a fresh interpreter."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        snippet = (
            "from repro.concolic.expr import BinOp, Const, Constraint, Var;"
            "print(Constraint('le', BinOp('and', Var('len'), Const(0x1F)),"
            " Const(32)).fp)"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, check=True, env=env,
            ).stdout.strip()
            for _ in range(2)
        }
        local = Constraint(
            "le", BinOp("and", Var("len"), Const(0x1F)), Const(32)
        ).fp
        assert outputs == {str(local)}

    def test_fingerprint_is_64_bit(self):
        fp = Constraint("eq", Var("x"), Const(1)).fp
        assert 0 <= fp < (1 << 64)


def shape_from_scratch(node):
    """The specification of ``shape_hash``: recomputed over the whole
    tree on every call."""
    if isinstance(node, Constraint):
        return _fp_mix(_fp_name("shape-cmp:" + node.op),
                       shape_from_scratch(node.left),
                       shape_from_scratch(node.right))
    if isinstance(node, Var):
        return _fp_name("shape-var")
    if isinstance(node, Const):
        return _fp_mix(_fp_name("shape-const"), *_fp_int(node.value))
    if isinstance(node, UnOp):
        return _fp_mix(_fp_name("shape-un:" + node.op),
                       shape_from_scratch(node.operand))
    left = shape_from_scratch(node.left)
    right = shape_from_scratch(node.right)
    if node.op in ("add", "mul", "and", "or", "xor"):
        return _fp_mix(_fp_name("shape-bin:" + node.op), left ^ right)
    return _fp_mix(_fp_name("shape-bin:" + node.op), left, right)


class TestShapes:
    """Shapes: fingerprints that ignore which variable a branch read."""

    def test_shape_ignores_variable_identity(self):
        assert shape_hash(Constraint("le", Var("b3"), Const(32))) \
            == shape_hash(Constraint("le", Var("b9"), Const(32))) \
            != shape_hash(Constraint("lt", Var("b3"), Const(32)))

    def test_commutative_operands_in_either_order(self):
        x, y = Var("x"), Var("y")
        assert shape_hash(BinOp("add", x, Const(1))) \
            == shape_hash(BinOp("add", Const(1), y))
        assert shape_hash(BinOp("sub", x, Const(1))) \
            != shape_hash(BinOp("sub", Const(1), y))

    @given(st.integers(min_value=-(2**70), max_value=2**70))
    def test_equals_the_whole_tree_recomputation(self, value):
        node = Constraint("ne", UnOp("not", BinOp(
            "shl", BinOp("xor", Var("a"), Const(value)), Const(3))),
            Const(value))
        assert shape_hash(node) == shape_from_scratch(node)

    def test_derived_once_per_node(self, monkeypatch):
        """A constraint over a subtree already hashed costs one mix."""
        field = BinOp("or", BinOp("shl", Var("a"), Const(8)), Var("b"))
        shape_hash(Constraint("le", field, Const(32)))
        mixes = []
        mix = expr_module._fp_mix

        def counted(tag, *parts):
            mixes.append(tag)
            return mix(tag, *parts)

        monkeypatch.setattr(expr_module, "_fp_mix", counted)
        second = Constraint("gt", field, Const(4))
        mixes.clear()  # the constraint's own fingerprint
        shape = shape_hash(second)
        assert len(mixes) == 2  # the constraint's and Const(4)'s
        assert shape == shape_from_scratch(second)
