"""Tests for the constraint solver.

The soundness contract: any non-None model satisfies every constraint.
Completeness is best-effort, so tests assert success only on shapes the
solver is designed for (decoder-style constraints).
"""

import dataclasses
import itertools
import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from path_oracle import flip_signature

from repro.bgp.errors import BGPError
from repro.bgp.ip import Prefix
from repro.bgp.messages import UpdateMessage, decode_message
from repro.concolic import path as pathmod
from repro.concolic.expr import BinOp, Const, Constraint, UnOp, Var, _fp_mix
from repro.concolic import solver as solver_module
from repro.concolic.path import _SIG_STEP
from repro.concolic.grammar import UpdateGrammar
from repro.concolic.solver import (
    PathCondition,
    Solver,
    SolverStats,
    _concat_terms,
    _decompose_concat,
)
from repro.concolic.symbolic import PathRecorder, SymBytes


def byte(name):
    return Var(name, 0, 255)


@contextmanager
def budget(repair_rounds, restarts):
    """Solve under a smaller search budget than the module's."""
    with mock.patch.object(solver_module, "MAX_REPAIR_ROUNDS", repair_rounds), \
            mock.patch.object(solver_module, "MAX_RESTARTS", restarts):
        yield


def u16(a, b):
    return BinOp("or", BinOp("shl", a, Const(8)), b)


def u32(b0, b1, b2, b3):
    return BinOp(
        "or",
        BinOp(
            "or",
            BinOp("shl", b0, Const(24)),
            BinOp("shl", b1, Const(16)),
        ),
        BinOp("or", BinOp("shl", b2, Const(8)), b3),
    )


class TestConcatRecognition:
    def test_u16_recognized(self):
        terms = _concat_terms(u16(byte("a"), byte("b")))
        assert [(v.name, s) for v, s in terms] == [("a", 8), ("b", 0)]

    def test_u32_recognized(self):
        terms = _concat_terms(u32(byte("a"), byte("b"), byte("c"), byte("d")))
        assert [s for _, s in terms] == [24, 16, 8, 0]

    def test_add_accepted(self):
        expr = BinOp("add", BinOp("shl", byte("a"), Const(8)), byte("b"))
        assert _concat_terms(expr) is not None

    def test_non_byte_shift_rejected(self):
        expr = BinOp("or", BinOp("shl", byte("a"), Const(7)), byte("b"))
        assert _concat_terms(expr) is None

    def test_duplicate_var_rejected(self):
        expr = u16(byte("a"), byte("a"))
        assert _concat_terms(expr) is None

    def test_decompose(self):
        terms = _concat_terms(u16(byte("a"), byte("b")))
        assert _decompose_concat(terms, 0xBEEF) == {"a": 0xBE, "b": 0xEF}

    def test_decompose_out_of_range(self):
        terms = _concat_terms(u16(byte("a"), byte("b")))
        assert _decompose_concat(terms, 0x10000) is None
        assert _decompose_concat(terms, -1) is None


def check_model(constraints, model):
    assert model is not None, "expected a model"
    for constraint in constraints:
        assert constraint.holds(model), f"{constraint} violated by {model}"


class TestBasicSolving:
    def test_single_equality(self):
        constraints = [Constraint("eq", byte("x"), Const(42))]
        check_model(constraints, Solver().solve(constraints))

    def test_inequality_chain(self):
        x = byte("x")
        constraints = [
            Constraint("gt", x, Const(10)),
            Constraint("lt", x, Const(13)),
            Constraint("ne", x, Const(12)),
        ]
        model = Solver().solve(constraints)
        check_model(constraints, model)
        assert model["x"] == 11

    def test_unsat_by_interval(self):
        constraints = [Constraint("gt", byte("x"), Const(300))]
        solver = Solver()
        assert solver.solve(constraints) is None
        assert solver.stats.refuted == 1

    def test_contradiction_returns_none(self):
        x = byte("x")
        constraints = [
            Constraint("eq", x, Const(1)),
            Constraint("eq", x, Const(2)),
        ]
        assert Solver().solve(constraints) is None

    def test_hint_respected_when_consistent(self):
        x = byte("x")
        constraints = [Constraint("gt", x, Const(10))]
        model = Solver().solve(constraints, hint={"x": 200})
        check_model(constraints, model)
        assert model["x"] == 200

    def test_empty_constraints_trivially_sat(self):
        assert Solver().solve([]) == {}


class TestStructuredSolving:
    def test_u16_equality(self):
        constraints = [
            Constraint("eq", u16(byte("a"), byte("b")), Const(4096 + 7))
        ]
        model = Solver().solve(constraints)
        check_model(constraints, model)
        assert model == {"a": 16, "b": 7}

    def test_u32_equality(self):
        target = 0xDEADBEEF
        constraints = [
            Constraint(
                "eq",
                u32(byte("a"), byte("b"), byte("c"), byte("d")),
                Const(target),
            )
        ]
        check_model(constraints, Solver().solve(constraints))

    def test_u16_range(self):
        expr = u16(byte("a"), byte("b"))
        constraints = [
            Constraint("ge", expr, Const(1000)),
            Constraint("le", expr, Const(1001)),
        ]
        check_model(constraints, Solver().solve(constraints))

    def test_masked_equality(self):
        constraints = [
            Constraint(
                "eq", BinOp("and", byte("f"), Const(0x10)), Const(0x10)
            )
        ]
        check_model(constraints, Solver().solve(constraints))

    def test_mask_impossible(self):
        # (f & 0x0F) == 0x10 can never hold.
        constraints = [
            Constraint("eq", BinOp("and", byte("f"), Const(0x0F)), Const(0x10))
        ]
        assert Solver().solve(constraints) is None

    def test_affine_inversion(self):
        expr = BinOp("add", BinOp("mul", byte("x"), Const(3)), Const(5))
        constraints = [Constraint("eq", expr, Const(3 * 7 + 5))]
        model = Solver().solve(constraints)
        check_model(constraints, model)
        assert model["x"] == 7

    def test_shift_inversion(self):
        constraints = [
            Constraint("eq", BinOp("shl", byte("x"), Const(4)), Const(0x50))
        ]
        model = Solver().solve(constraints)
        check_model(constraints, model)
        assert model["x"] == 5

    def test_xor_inversion(self):
        constraints = [
            Constraint("eq", BinOp("xor", byte("x"), Const(0xFF)), Const(0xF0))
        ]
        model = Solver().solve(constraints)
        check_model(constraints, model)
        assert model["x"] == 0x0F

    def test_multi_constraint_path_condition(self):
        """A realistic decoder path: type byte, length field, value range."""
        msg_type = byte("t")
        len_hi, len_lo = byte("lh"), byte("ll")
        value = byte("v")
        constraints = [
            Constraint("eq", msg_type, Const(2)),
            Constraint("eq", u16(len_hi, len_lo), Const(37)),
            Constraint("le", value, Const(32)),
            Constraint("gt", value, Const(24)),
        ]
        check_model(constraints, Solver().solve(constraints))

    def test_variables_across_constraints(self):
        x, y = byte("x"), byte("y")
        constraints = [
            Constraint("eq", BinOp("add", x, y), Const(100)),
            Constraint("gt", x, Const(90)),
        ]
        check_model(constraints, Solver().solve(constraints))


class TestSoundnessProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]),
                st.sampled_from(["x", "y", "z"]),
                st.integers(min_value=0, max_value=255),
            ),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_models_always_verified(self, specs, seed):
        """Whatever the solver returns, it satisfies all constraints."""
        constraints = [
            Constraint(op, byte(name), Const(value))
            for op, name, value in specs
        ]
        model = Solver(seed=seed).solve(constraints)
        if model is not None:
            for constraint in constraints:
                assert constraint.holds(model)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_u16_targets_always_solved(self, target, seed):
        constraints = [
            Constraint("eq", u16(byte("a"), byte("b")), Const(target))
        ]
        model = Solver(seed=seed).solve(constraints)
        check_model(constraints, model)


# -- the refutation pre-pass ---------------------------------------------------

_CMP_OPS = ("eq", "ne", "lt", "le", "gt", "ge")

# Constants that collide with small domains, plus masks: negative ones
# under ``and`` are the case an interval alone cannot see through.
_consts = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([0xFF, 0xF0, 0x0F, -0x10, ~0xFF00, 0xFFFF, ~0xF]),
).map(Const)


def _exprs(variables):
    """Trees over every BinOp/UnOp.  Shift counts are constants or
    ``e & 7``, so evaluation never sees a negative shift."""
    leaves = st.one_of(st.sampled_from(variables), _consts)

    def extend(children):
        counts = st.one_of(
            st.integers(min_value=0, max_value=8).map(Const),
            children.map(lambda e: BinOp("and", e, Const(7))),
        )
        return st.one_of(
            st.builds(BinOp, st.sampled_from(
                ["add", "sub", "mul", "and", "or", "xor"]),
                children, children),
            st.builds(BinOp, st.sampled_from(["shl", "shr"]),
                      children, counts),
            st.builds(UnOp, st.sampled_from(["neg", "not"]), children),
        )

    return st.recursive(leaves, extend, max_leaves=6)


@st.composite
def _small_systems(draw):
    """1-3 variables with at most 16 values each; 1-4 constraints over a
    pool of two terms, so the same term often meets several constants."""
    variables = []
    for name in draw(st.sampled_from(["x", "xy", "xyz"])):
        lo = draw(st.integers(min_value=-8, max_value=40))
        width = draw(st.integers(min_value=0, max_value=15))
        variables.append(Var(name, lo, lo + width))
    pool = draw(st.lists(_exprs(variables), min_size=1, max_size=2))
    side = st.one_of(st.sampled_from(pool), _consts)
    constraints = draw(st.lists(
        st.builds(Constraint, st.sampled_from(_CMP_OPS),
                  st.sampled_from(pool), side),
        min_size=1, max_size=4,
    ))
    return variables, constraints


def _satisfiable(variables, constraints):
    """Ground truth by exhaustive enumeration of the domains."""
    names = [var.name for var in variables]
    for values in itertools.product(
            *(range(var.lo, var.hi + 1) for var in variables)):
        assignment = dict(zip(names, values, strict=True))
        if all(constraint.holds(assignment) for constraint in constraints):
            return True
    return False


class TestRefutationIsSound:
    @settings(max_examples=300, deadline=None)
    @given(_small_systems(), st.integers(min_value=0, max_value=2**32))
    def test_refutes_only_the_unsatisfiable(self, system, seed):
        variables, constraints = system
        solver = Solver(seed=seed)
        with budget(20, 2):
            model = solver.solve(constraints)
        if _satisfiable(variables, constraints):
            # Never answered by refutation; it may still be exhausted.
            assert solver.stats.refuted == 0
        else:
            assert model is None
        if model is not None:
            check_model(constraints, model)
        stats = solver.stats
        assert (stats.refuted + stats.repaired + stats.random_search
                + stats.exhausted) == stats.queries == 1


    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=-8, max_value=40),
        st.integers(min_value=0, max_value=15),
        st.lists(st.tuples(st.sampled_from(_CMP_OPS),
                           st.integers(min_value=-3, max_value=18),
                           st.booleans()),
                 min_size=1, max_size=5),
    )
    def test_one_variable_against_constants_is_decided(self, lo, width,
                                                       specs):
        """With one variable compared with constants the per-term
        intersection is exact: refuted if and only if unsatisfiable."""
        x = Var("x", lo, lo + width)
        constraints = [
            Constraint(op, x, Const(lo + offset)) if var_on_left
            else Constraint(op, Const(lo + offset), x)
            for op, offset, var_on_left in specs
        ]
        solver = Solver()
        solver.solve(constraints)
        assert solver.stats.refuted == (not _satisfiable([x], constraints))


def _decoder_path(sym_input):
    """Branches the real decoder records on ``sym_input``, and the
    concrete input as a solver hint (as ``bench_solver.py`` does)."""
    with PathRecorder() as recorder:
        try:
            decode_message(sym_input)
        except BGPError:
            pass
    hint = {var.name: sym_input.concrete[offset]
            for offset, var in sym_input.variables().items()}
    return recorder.branches, hint


def _stray_flip(length):
    """The ``stray != 0`` flip of ``_decode_nlri_block``, recorded by the
    real decoder on a withdrawn /``length`` whose prefix bytes are
    symbolic (the length octet is not, as under the grammar's marks)."""
    prefix = Prefix((0xC6336400 >> (32 - length)) << (32 - length), length)
    data = UpdateMessage(withdrawn=(prefix,)).encode()
    first = 19 + 2 + 1  # header, withdrawn-length field, length octet
    offsets = range(first, first + (length + 7) // 8)
    branches, hint = _decoder_path(
        SymBytes.mark_offsets(data, offsets, prefix="u"))
    (index,) = [
        index for index, (constraint, _) in enumerate(branches)
        if constraint.op == "ne" and constraint.right == Const(0)
    ]
    assert branches[index][1] is False  # canonical prefix: no stray bits
    return pathmod.flip_at(branches, index), hint


class TestDeadBranchesAreRefuted:
    @pytest.mark.parametrize("length", [8, 16, 24, 32])
    def test_stray_bits_at_byte_aligned_length(self, length):
        """``network & ~mask`` is identically 0 when the mask covers
        every byte that was read: the flip has no model, and must not
        cost a single repair round."""
        constraints, hint = _stray_flip(length)
        solver = Solver(seed=1)
        assert solver.solve(constraints, hint=hint) is None
        assert solver.stats.refuted == 1
        assert solver.stats.repair_rounds == 0

    def test_stray_bits_reachable_at_length_20(self):
        constraints, hint = _stray_flip(20)
        solver = Solver(seed=1)
        model = solver.solve(constraints, hint=hint)
        check_model(constraints, model)
        assert solver.stats.refuted == 0
        assert model["u24"] & 0x0F  # a host bit below the /20 boundary

    @pytest.mark.parametrize("ops", [
        [("eq", 7), ("ne", 7)],
        [("eq", 1), ("eq", 2)],
        [("le", 3), ("ge", 5)],
        [("ge", 4), ("le", 5), ("ne", 4), ("ne", 5)],
    ])
    def test_conjunction_on_one_term(self, ops):
        """No single constraint is infeasible; together they are."""
        term = u16(byte("a"), byte("b"))
        constraints = [Constraint(op, term, Const(c)) for op, c in ops]
        for constraint in constraints:
            assert Solver().solve([constraint]) is not None
        solver = Solver()
        assert solver.solve(constraints) is None
        assert solver.stats.refuted == 1
        assert solver.stats.repair_rounds == 0

    def test_constant_on_the_left(self):
        x = byte("x")
        constraints = [Constraint("lt", Const(200), x),
                       Constraint("gt", Const(201), x)]
        solver = Solver()
        assert solver.solve(constraints) is None
        assert solver.stats.refuted == 1

    def test_decoder_corpus_is_solved_or_refuted(self):
        """The ``bench_solver`` corpus: flips of 20 grammar-generated
        UPDATEs through the real decoder.  Every query without a model
        used to run the whole search budget; each is a dead branch."""
        grammar = UpdateGrammar(rng=random.Random(3))
        solver = Solver(seed=1)
        for index in range(20):
            branches, hint = _decoder_path(
                grammar.generate().symbolic(prefix=f"m{index}_"))
            for at in range(len(branches)):
                solver.solve(pathmod.flip_at(branches, at), hint=hint)
        stats = solver.stats
        assert stats.queries > 500
        assert stats.exhausted == 0 and stats.random_restarts == 0
        assert stats.refuted == stats.unknown > 0
        assert stats.sat / stats.queries > 0.89


class TestStats:
    def test_every_query_has_exactly_one_outcome(self):
        x, y = byte("x"), byte("y")
        solver = Solver(seed=1)
        easy = [Constraint("eq", x, Const(1))]
        with budget(2, 1):
            solver.solve(easy)                                # repaired
            solver.solve(easy)                                # solved again
            solver.solve([Constraint("gt", x, Const(999))])   # refuted
            # 251 is prime: no model, but nothing the pre-pass can prove.
            solver.solve([Constraint("eq", BinOp("mul", x, y), Const(251)),
                          Constraint("gt", x, Const(1)),
                          Constraint("gt", y, Const(1))])   # exhausted
        stats = solver.stats
        assert stats.queries == 4
        assert (stats.refuted, stats.repaired,
                stats.random_search, stats.exhausted) == (1, 2, 0, 1)
        assert (stats.sat, stats.unknown) == (2, 2)

    def test_counters_advance(self):
        solver = Solver()
        solver.solve([Constraint("eq", byte("x"), Const(1))])
        solver.solve([Constraint("gt", byte("x"), Const(999))])
        assert solver.stats.queries == 2
        assert solver.stats.sat == 1
        assert solver.stats.unknown == 1

    def test_stats_count_outcomes_and_effort_only(self):
        assert {f.name for f in dataclasses.fields(SolverStats)} == {
            "queries", "sat", "unknown", "refuted", "repaired",
            "random_search", "exhausted", "repair_rounds",
            "random_restarts",
        }

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_small_systems(), min_size=1, max_size=4),
           st.integers(min_value=0, max_value=2**32))
    def test_outcome_counters_partition_the_queries(self, systems, seed):
        solver = Solver(seed=seed)
        with budget(20, 2):
            for _, constraints in systems:
                solver.solve(constraints)
        stats = solver.stats
        assert stats.queries == len(systems)
        assert stats.sat == stats.repaired + stats.random_search
        assert stats.unknown == stats.refuted + stats.exhausted
        assert stats.sat + stats.unknown == stats.queries


def decoder_system():
    """A small satisfiable decoder-style system: a u16 field and a
    range check on its low byte."""
    a, b = byte("a"), byte("b")
    return [
        Constraint("eq", u16(a, b), Const(0x1234)),
        Constraint("le", b, Const(0x80)),
    ]


def prime_product(x, y):
    """``x * y == 251`` with both factors above 1: no model (251 is
    prime), and nothing the refutation pre-pass can prove."""
    return [Constraint("eq", BinOp("mul", x, y), Const(251)),
            Constraint("gt", x, Const(1)),
            Constraint("gt", y, Const(1))]


class TestEveryQueryIsSolved:
    """The solver remembers nothing between queries: each one is
    refuted, repaired or searched afresh, so an answer depends only on
    the query, its hint, the budget and the solver's random stream."""

    def test_identical_query_is_solved_again(self):
        solver = Solver(seed=1)
        first = solver.solve(decoder_system())
        second = solver.solve(decoder_system())
        check_model(decoder_system(), first)
        assert second == first
        assert (solver.stats.queries, solver.stats.repaired,
                solver.stats.sat) == (2, 2, 2)

    def test_repeated_failure_searches_again(self):
        x, y = byte("x"), byte("y")
        solver = Solver(seed=1)
        with budget(5, 2):
            assert solver.solve(prime_product(x, y), hint={"x": 1}) is None
            assert solver.solve(prime_product(x, y), hint={"x": 1}) is None
        assert solver.stats.exhausted == 2
        assert solver.stats.random_restarts == 2 * 2

    def test_budget_bounds_an_exhausted_search(self):
        x, y = byte("x"), byte("y")
        solver = Solver(seed=1)
        with budget(5, 3):
            assert solver.solve(prime_product(x, y)) is None
        # One repair pass from the hint, then one per restart.
        assert solver.stats.repair_rounds <= 5 * (1 + 3)
        assert solver.stats.random_restarts == 3

    def test_bigger_budget_solves_what_a_smaller_one_gives_up_on(self):
        """Two independent fixes need two repair rounds: a one-round
        solver exhausts, a three-round solver finds the model."""
        constraints = [Constraint("eq", byte("x"), Const(5)),
                       Constraint("eq", byte("y"), Const(7))]
        small = Solver(seed=1)
        with budget(1, 0):
            assert small.solve(constraints) is None
        assert small.stats.exhausted == 1
        big = Solver(seed=1)
        with budget(3, 0):
            assert big.solve(constraints) == {"x": 5, "y": 7}

    def test_constraint_order_does_not_change_satisfiability(self):
        constraints = decoder_system()
        forward = Solver(seed=1).solve(constraints)
        backward = Solver(seed=1).solve(list(reversed(constraints)))
        check_model(constraints, forward)
        check_model(constraints, backward)

    def test_model_names_exactly_the_query_variables(self):
        """A hint naming other variables neither leaks into the model
        nor changes it."""
        constraints = [Constraint("eq", byte("x"), Const(7))]
        assert Solver(seed=1).solve(constraints, hint={"y": 7}) == {"x": 7}

    def test_out_of_domain_hint_is_not_used(self):
        constraints = [Constraint("gt", byte("x"), Const(10))]
        model = Solver(seed=1).solve(constraints, hint={"x": 999})
        check_model(constraints, model)
        assert 0 <= model["x"] <= 255

    def test_same_seed_same_answers(self):
        """What campaign determinism rests on: a session's solver,
        rebuilt from the same seed on any worker, answers the same query
        sequence identically — search effort included."""
        x, y = byte("x"), byte("y")
        queries = [
            decoder_system(),
            [Constraint("eq", BinOp("add", x, y), Const(100)),
             Constraint("gt", x, Const(90))],
            prime_product(x, y),
            [Constraint("ne", x, Const(0)), Constraint("lt", x, Const(3))],
        ]
        runs = []
        for _ in range(2):
            solver = Solver(seed=5)
            with budget(20, 4):
                models = [solver.solve(query) for query in queries]
            runs.append((models, dataclasses.asdict(solver.stats)))
        assert runs[0] == runs[1]

    def test_refuted_query_leaves_the_search_untouched(self):
        """Refutation draws nothing from the solver's random stream, so
        a dead branch asked in between cannot perturb later answers."""
        x, y = byte("x"), byte("y")
        hard = [Constraint("eq", BinOp("add", x, y), Const(300)),
                Constraint("lt", x, Const(200))]
        dead = [Constraint("eq", x, Const(1)), Constraint("ne", x, Const(1))]
        expected = Solver(seed=3).solve(hard)
        check_model(hard, expected)
        interrupted = Solver(seed=3)
        assert interrupted.solve(dead, hint={"x": 1}) is None
        assert interrupted.stats.refuted == 1
        assert interrupted.solve(hard) == expected

    @settings(max_examples=100, deadline=None)
    @given(_small_systems().flatmap(
        lambda system: st.tuples(st.just(system),
                                 st.permutations(system[1]))))
    def test_refutation_ignores_constraint_order(self, drawn):
        """The per-term intersection is commutative: a dead branch is
        refuted however its path condition happens to be ordered."""
        (_, constraints), permuted = drawn
        # Refutation runs before any search: a minimal budget suffices.
        forward, backward = Solver(), Solver()
        with budget(1, 0):
            forward.solve(constraints)
            backward.solve(list(permuted))
        assert forward.stats.refuted == backward.stats.refuted


# -- one path condition per path ----------------------------------------------


def _first_violated_by_scan(condition, assignment):
    """The specification of ``first_violated``: evaluate every
    constraint, in order."""
    return next((index for index, constraint
                 in enumerate(condition.constraints)
                 if not constraint.holds(assignment)), None)


@contextmanager
def checked_first_violated():
    """Check every ``first_violated`` answer against a full scan."""
    incremental = PathCondition.first_violated

    def checked(condition, assignment, false_at, moved):
        index = incremental(condition, assignment, false_at, moved)
        assert index == _first_violated_by_scan(condition, assignment)
        return index

    with mock.patch.object(PathCondition, "first_violated", checked):
        yield


def _flips_through_one_condition(branches, hint, seed):
    """Ask every flip of ``branches`` as the engine does, through one
    incremental path condition."""
    solver = Solver(seed=seed)
    models = [solver.solve(condition) for condition in
              pathmod.flip_conditions(branches, range(len(branches)), hint)]
    return models, dataclasses.asdict(solver.stats)


def _flips_one_list_each(branches, hint, seed):
    """The specification: each flip a fresh ``flip_at`` list."""
    solver = Solver(seed=seed)
    models = [solver.solve(pathmod.flip_at(branches, index), hint=hint)
              for index in range(len(branches))]
    return models, dataclasses.asdict(solver.stats)


@st.composite
def _small_paths(draw):
    """A ``_small_systems`` system as a path — a prefix of held
    branches and a last one — taken either way at every branch, and a
    hint that may name values outside a variable's domain (or none)."""
    variables, constraints = draw(_small_systems())
    *prefix, last = constraints
    branches = [(constraint, draw(st.booleans()))
                for constraint in [*prefix, last]]
    hint = {var.name: draw(st.integers(var.lo - 2, var.hi + 2))
            for var in variables if draw(st.booleans())}
    return branches, hint


def _decoder_paths(count):
    grammar = UpdateGrammar(rng=random.Random(3))
    return [_decoder_path(grammar.generate().symbolic(prefix=f"m{index}_"))
            for index in range(count)]


class TestOnePathCondition:
    """Every flip of a path asked through one incremental path
    condition equals the same flips asked one fresh list each: the
    same models, the same nine counters, the same random draws."""

    @settings(max_examples=200, deadline=None)
    @given(_small_paths(), st.integers(min_value=0, max_value=2**32))
    def test_small_paths(self, path, seed):
        branches, hint = path
        with budget(20, 2), checked_first_violated():
            incremental = _flips_through_one_condition(branches, hint, seed)
            assert incremental == _flips_one_list_each(branches, hint, seed)

    def test_decoder_paths(self):
        for branches, hint in _decoder_paths(20):
            with checked_first_violated():
                assert _flips_through_one_condition(branches, hint, 1) \
                    == _flips_one_list_each(branches, hint, 1)

    def test_a_refuted_prefix_refutes_every_later_flip(self):
        x = byte("x")
        branches = [(Constraint("eq", x, Const(1)), True),
                    (Constraint("ne", x, Const(1)), True),
                    (Constraint("gt", x, Const(9)), False),
                    (Constraint("lt", x, Const(3)), True)]
        condition = PathCondition({"x": 1})
        for constraint, _ in branches:
            condition.push(constraint)
        assert condition.refuted_at == 1
        models, stats = _flips_through_one_condition(branches, {"x": 1}, 1)
        assert models[2:] == [None, None]
        assert stats["refuted"] >= 2
        assert (models, stats) == _flips_one_list_each(branches, {"x": 1}, 1)

    def test_negate_last_restores_the_refutation_state(self):
        """``x == 5`` refutes ``x != 5`` and then, negated back, leaves
        the term pinned at 5 as it found it."""
        x = byte("x")
        condition = PathCondition()
        condition.push(Constraint("eq", x, Const(5)))
        condition.push(Constraint("ne", x, Const(5)))
        assert condition.refuted_at == 1
        condition.negate_last()
        assert condition.refuted_at is None
        condition.push(Constraint("eq", x, Const(6)))
        assert condition.refuted_at == 2

    def test_plain_list_and_condition_agree(self):
        constraints = decoder_system()
        condition = PathCondition({"a": 1})
        for constraint in constraints:
            condition.push(constraint)
        assert Solver(seed=1).solve(condition) \
            == Solver(seed=1).solve(constraints, hint={"a": 1})

    def test_a_condition_carries_its_own_hint(self):
        condition = PathCondition({"x": 1})
        condition.push(Constraint("eq", byte("x"), Const(2)))
        with pytest.raises(ValueError, match="own hint"):
            Solver().solve(condition, hint={"x": 1})

    @settings(max_examples=100, deadline=None)
    @given(_small_paths())
    def test_flip_digests_are_one_walk(self, path):
        branches, _ = path
        assert list(pathmod.flip_signatures(branches)) == [
            flip_signature(branches, index)
            for index in range(len(branches))
        ]
        # The walk's running digest ends at the path's identity: the
        # flip one branch beyond the path is built on it.
        constraint, taken = branches[0]
        *_, beyond = pathmod.flip_signatures([*branches, (constraint, taken)])
        assert beyond == _fp_mix(_SIG_STEP, pathmod.signature(branches),
                                 constraint.fp, int(not taken))

    def test_decoder_flip_digests_are_one_walk(self):
        for branches, _ in _decoder_paths(5):
            assert list(pathmod.flip_signatures(branches)) == [
                flip_signature(branches, index)
                for index in range(len(branches))
            ]
