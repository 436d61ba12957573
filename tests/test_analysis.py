"""Tests for the logic toolkit and the naive chain-rule estimates."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from hyperbelief._value import Value
from hyperbelief.analysis import (
    CLASSICAL_PRINCIPLES,
    And,
    Implies,
    Not,
    Or,
    Var,
    indifference_estimates,
    modus_tollens_posteriors,
    parse_formula,
    pearl_flying_bound,
    tautology_check,
)


def formulas():
    leaves = st.builds(Var, st.sampled_from(("a", "b", "c")))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Implies, inner, inner),
        ),
        max_leaves=8,
    )


# ----------------------------------------------------------------------- logic


@pytest.mark.parametrize("name", sorted(CLASSICAL_PRINCIPLES))
def test_classical_principles_are_tautologies(name):
    assert tautology_check(CLASSICAL_PRINCIPLES[name])


@pytest.mark.parametrize(
    "text",
    ["a -> b", "a & ~a", "a | b", "(a -> b) -> (b -> a)"],
)
def test_non_tautologies_are_rejected(text):
    assert not tautology_check(text)


def test_arrow_is_right_associative():
    assert parse_formula("a -> b -> c") == parse_formula("a -> (b -> c)")
    assert tautology_check("a -> b -> a")


def test_operator_precedence():
    assert parse_formula("~a & b | c -> d") == Implies(
        Or(And(Not(Var("a")), Var("b")), Var("c")), Var("d")
    )


@pytest.mark.parametrize("text", ["a | ~a  ", "a | ~a\t\n"])
def test_trailing_whitespace_is_ignored(text):
    # the tokenizer stops at whitespace that nothing follows
    assert parse_formula(text) == parse_formula("a | ~a")


@pytest.mark.parametrize("text", ["a &", "(a", "(a b", "a b", ")", "a + b", ""])
def test_malformed_formulas_raise(text):
    with pytest.raises(ValueError):
        parse_formula(text)


def test_variable_cap():
    seven = " & ".join(f"x{i}" for i in range(7))
    with pytest.raises(ValueError, match="capped"):
        tautology_check(seven)
    six = " & ".join(f"x{i}" for i in range(6))
    assert not tautology_check(six)


a, b, c = Var("a"), Var("b"), Var("c")


@pytest.mark.parametrize(
    ("formula", "text"),
    [
        (And(Or(a, b), c), "(a | b) & c"),
        (Or(a, And(b, c)), "a | b & c"),
        (And(a, And(b, c)), "a & (b & c)"),
        (Or(Or(a, b), c), "a | b | c"),
        (Implies(Implies(a, b), c), "(a -> b) -> c"),
        (Implies(a, Implies(b, c)), "a -> b -> c"),
        (Not(And(a, b)), "~(a & b)"),
        (Not(Not(a)), "~~a"),
        (And(Not(a), Implies(b, c)), "~a & (b -> c)"),
        (Or(Implies(a, b), Not(c)), "(a -> b) | ~c"),
    ],
)
def test_printing_brackets_only_where_needed(formula, text):
    # the round trip below cannot see over-bracketing: ((a & b)) parses back too
    assert str(formula) == text
    assert parse_formula(text) == formula


@given(formulas())
def test_printing_round_trips(formula):
    assert parse_formula(str(formula)) == formula


@given(formulas())
def test_double_negation_preserves_meaning(formula):
    doubled = Not(Not(formula))
    names = tuple(sorted(formula.variables()))
    from hyperbelief.analysis import assignments

    for env in assignments(names):
        assert doubled.evaluate(env) == formula.evaluate(env)


# -------------------------------------------------------------- pearl's bound


def test_bound_examples():
    assert pearl_flying_bound(0.05, 0) == Fraction(0.05)
    assert pearl_flying_bound(0.02, 0.5) == Fraction(0.04)
    assert pearl_flying_bound(0, 0.7) == 0


def test_bound_rejects_bad_arguments():
    with pytest.raises(ValueError, match=r"^eps3 = 1 makes the bound's denominator vanish$"):
        pearl_flying_bound(0.05, 1)
    with pytest.raises(ValueError, match=r"^eps1 must lie in \[0, 1\], got -0\.1$"):
        pearl_flying_bound(-0.1, 0.5)
    with pytest.raises(ValueError, match=r"^eps1 must lie in \[0, 1\], got 1\.1$"):
        pearl_flying_bound(1.1, 0.5)
    with pytest.raises(ValueError, match=r"^eps3 must lie in \[0, 1\], got 2$"):
        pearl_flying_bound(0.5, 2)


# ------------------------------------------------------------ chain-rule side


def test_triangle_estimates_by_hand():
    est = indifference_estimates(0.1, 0.1, 0.1)
    assert est.p_fly == Fraction(0.1) * (1 - Fraction(0.1)) / (1 - Fraction(0.1))
    assert float(est.p_fly) == pytest.approx(0.1)
    assert float(est.p_not_fly) == pytest.approx(0.1)
    assert float(est.additivity_deficit) == pytest.approx(0.8)
    assert est.validity_flags == ()


def test_estimates_limits():
    est = indifference_estimates(0, 0, 0)
    assert est.p_fly == 0 and est.p_not_fly == 0
    assert est.additivity_deficit == 1
    assert est.bound == 0


def test_estimates_flag_out_of_range_values():
    est = indifference_estimates(0.9, 0.1, 0.95)
    assert est.p_fly > 1
    assert any("p_fly" in flag for flag in est.validity_flags)


def test_estimates_reject_bad_arguments():
    with pytest.raises(ValueError, match=r"^eps3 = 1 makes the estimates' denominator vanish$"):
        indifference_estimates(0.1, 0.1, 1)
    with pytest.raises(ValueError, match=r"^eps1 must lie in \[0, 1\], got 1\.5$"):
        indifference_estimates(1.5, 0.1, 0.1)
    with pytest.raises(ValueError, match=r"^eps3 must lie in \[0, 1\], got -1$"):
        indifference_estimates(0.1, 0.1, -1)


unit_floats = st.floats(0, 1, allow_nan=False, allow_infinity=False)
open_unit_floats = st.floats(0.001, 0.999, allow_nan=False, allow_infinity=False)


@given(unit_floats, unit_floats, st.floats(0, 0.999))
def test_product_identities_are_exact(e1, e2, e3):
    est = indifference_estimates(e1, e2, e3)
    assert est.p_fly * (1 - Fraction(e3)) == Fraction(e1) * (1 - Fraction(e2))
    assert est.p_not_fly * (1 - Fraction(e3)) == (1 - Fraction(e1)) * Fraction(e2)
    assert est.additivity_deficit == 1 - (est.p_fly + est.p_not_fly)
    assert est.bound >= est.p_fly


@given(open_unit_floats, open_unit_floats)
def test_estimates_never_add_up(e1, e2):
    # with no dilution from the third rule the two estimates always leave a
    # strictly positive remainder; larger eps3 can push their sum past one
    est = indifference_estimates(e1, e2, 0)
    assert est.p_fly + est.p_not_fly < 1


def test_inflated_sum_is_flagged():
    est = indifference_estimates(0.5, 0.5, 0.6)
    assert est.p_fly + est.p_not_fly > 1
    assert est.additivity_deficit < 0
    assert any("additivity_deficit" in flag for flag in est.validity_flags)
    # the boundary case sums to one exactly and stays unflagged
    assert indifference_estimates(0.5, 0.5, 0.5).validity_flags == ()


def test_deficit_approaches_one():
    est = indifference_estimates(1e-3, 1e-3, 1e-3)
    assert est.additivity_deficit > Fraction("0.99")


# ------------------------------------------------------------- reverse  rules


def test_reverse_posteriors_under_indifference():
    post = modus_tollens_posteriors(0.9, 0.5, 0.5)
    assert post.pair == (Fraction(0.9), 1 - Fraction(0.9))
    assert post.validity_flags == ()
    assert modus_tollens_posteriors(1, 0.5, 0.5).pair == (1, 0)


def test_reverse_posteriors_depend_on_priors():
    post = modus_tollens_posteriors(0.9, 0.8, 0.3)
    assert float(post.not_a_given_b) == pytest.approx(-1.4)
    assert any("not_a_given_b" in flag for flag in post.validity_flags)


def test_reverse_posteriors_reject_degenerate_priors():
    for pb in (0, 1):
        with pytest.raises(ValueError):
            modus_tollens_posteriors(0.9, 0.5, pb)


@given(unit_floats)
def test_indifference_is_a_fixed_point(w):
    post = modus_tollens_posteriors(w, 0.5, 0.5)
    assert post.pair == (Fraction(w), 1 - Fraction(w))


@given(unit_floats, unit_floats, open_unit_floats)
def test_flags_exactly_track_range_violations(w, pa, pb):
    post = modus_tollens_posteriors(w, pa, pb)
    expected = sum(1 for value in post.pair if not 0 <= value <= 1)
    assert len(post.validity_flags) == expected


# ------------------------------------------------- against the Fraction formulas

# the unit interval's ends and the floats next to them, any float in it, and
# ints, Fractions and Decimals in it; then values of each kind out of it,
# NaN and ±inf among them
in_unit = st.one_of(
    st.sampled_from((0.0, 5e-324, 0.5, 1 - 2**-53, 1.0)),
    st.floats(0, 1),
    st.integers(0, 1),
    st.fractions(0, 1),
    st.decimals(0, 1),
)
anything = st.one_of(
    in_unit,
    st.floats(),
    st.integers(-2, 3),
    st.fractions(-1, 2),
    st.decimals(-1, 2),
    st.sampled_from((Decimal("NaN"), Decimal("Infinity"), Decimal("-Infinity"))),
)


def _outcome(function, *args):
    """A call's values with their types, or the type and message of what it raised."""
    try:
        result = function(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    values = result._values() if isinstance(result, Value) else (result,)
    return [(type(value), value) for value in values]


def assert_estimators_match_the_fraction_formulas(x, y, z):
    """The three public estimators equal the reference: values, flags and refusals."""
    pairs = [
        (indifference_estimates, oracle.fraction_indifference_estimates, (x, y, z)),
        (pearl_flying_bound, oracle.fraction_pearl_flying_bound, (x, z)),
        (modus_tollens_posteriors, oracle.fraction_modus_tollens_posteriors, (x, y, z)),
    ]
    for function, reference, args in pairs:
        assert _outcome(function, *args) == _outcome(reference, *args)


@settings(max_examples=300)
@given(in_unit, in_unit, in_unit)
def test_estimates_equal_the_fraction_formulas(x, y, z):
    assert_estimators_match_the_fraction_formulas(x, y, z)


@settings(max_examples=300)
@given(anything, anything, anything)
def test_refusals_equal_the_fraction_formulas(x, y, z):
    assert_estimators_match_the_fraction_formulas(x, y, z)
