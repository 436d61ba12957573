"""Value semantics of the package's immutable types: construction by position,
by keyword and with defaults, equality and hashing by value, read-only fields
and the repr text."""

from fractions import Fraction

import pytest

from hyperbelief import (
    BBA,
    AtomFrame,
    AtomMasses,
    BayesEstimates,
    CombinationReport,
    DstAxes,
    EngineResult,
    Frame,
    FusionReport,
    Model,
    ModusTollensPosteriors,
    Proposition,
    QueryResult,
    Scenario,
    WeightedRule,
)
from hyperbelief.analysis import And, Implies, Not, Or, Var

F = Frame(("a", "b", "c"))
F2 = Frame(("a", "b", "d"))
A, B = F.singleton("a"), F.singleton("b")
FREE = Model.free(F)
AB_EXCLUSIVE = Model.from_constraints(F, [(0, 1)])
AC_EXCLUSIVE = Model.from_constraints(F, [(0, 2)])
AXES = AtomFrame((("f", "nf"), ("b", "nb")))
AXES2 = AtomFrame((("f", "nf"), ("p", "np")))
MASSES = {A: 0.5, A | B: 0.5}
BBA1 = BBA(F, FREE, MASSES)
RULE = WeightedRule(A, B, 0.9)
DST = DstAxes(AXES, {"a": (0, 0)})
ROW = QueryResult(B, 0.5, 1.0)
RESULT = EngineResult("dsm", "ok", (ROW,))
BAYES_ARGS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(3, 4), ())
ESTIMATES = BayesEstimates(*BAYES_ARGS)

# class, field names in constructor order, arguments, trailing defaults,
# variants that each change one field, and whether the value hashes
CASES = {
    "Frame": (Frame, ("names",), (("a", "b", "c"),), (), [(("a", "b", "d"),)], True),
    "Proposition": (Proposition, ("frame", "masks"), (F, (1, 6)), (), [(F2, (1, 6)), (F, (2,))], True),
    "Model": (Model, ("frame", "masks"), (F, frozenset({3})), (), [(F2, frozenset({3})), (F, frozenset({5}))], True),
    "AtomFrame": (AtomFrame, ("axes",), ((("f", "nf"), ("b", "nb")),), (), [(AXES2.axes,)], True),
    "BBA": (BBA, ("frame", "model", "masses"), (F, FREE, MASSES), (), [(F, AB_EXCLUSIVE, MASSES), (F, FREE, {A: 1.0})], False),
    "CombinationReport": (
        CombinationReport,
        ("result", "conflict_mass", "normalization_constant"),
        (BBA1, 0.25, 0.75),
        (),
        [(BBA(F, FREE, {B: 1.0}), 0.25, 0.75), (BBA1, 0.5, 0.75), (BBA1, 0.25, None)],
        False,
    ),
    "WeightedRule": (
        WeightedRule,
        ("antecedent", "consequent", "weight"),
        (A, B, 0.9),
        (),
        [(B, B, 0.9), (A, A, 0.9), (A, B, 0.8)],
        True,
    ),
    "DstAxes": (DstAxes, ("axes", "literal_map"), (AXES, {"a": (0, 0)}), (), [(AXES2, {"a": (0, 0)}), (AXES, {"a": (1, 0)})], False),
    "Scenario": (
        Scenario,
        ("frame", "model", "rules", "observations", "queries", "engines", "dst_axes"),
        (F, FREE, (RULE,), (A,), (B,), ("dsm",), None),
        (("dsm",), None),
        [
            (F, AC_EXCLUSIVE, (RULE,), (A,), (B,), ("dsm",), None),
            (F, FREE, (), (A,), (B,), ("dsm",), None),
            (F, FREE, (RULE,), (B,), (B,), ("dsm",), None),
            (F, FREE, (RULE,), (A,), (A,), ("dsm",), None),
            (F, FREE, (RULE,), (A,), (B,), ("bayes",), None),
            (F, FREE, (RULE,), (A,), (B,), ("dsm",), DST),
        ],
        True,
    ),
    "QueryResult": (
        QueryResult,
        ("query", "bel", "pl", "estimate", "note"),
        (B, 0.5, 1.0, 0.25, "n"),
        (None, None, None, ""),
        [(A, 0.5, 1.0, 0.25, "n"), (B, 0.0, 1.0, 0.25, "n"), (B, 0.5, 0.5, 0.25, "n"), (B, 0.5, 1.0, None, "n"), (B, 0.5, 1.0, 0.25, "")],
        True,
    ),
    "AtomMasses": (
        AtomMasses,
        ("axes", "masses"),
        (AXES, {0b1: 1.0}),
        (),
        [(AXES2, {0b1: 1.0}), (AXES, {0b10: 1.0})],
        False,
    ),
    "EngineResult": (
        EngineResult,
        ("engine", "status", "queries", "fused", "conflict_mass", "stage_conflicts", "normalization_constant", "flags", "estimates"),
        ("dsm", "ok", (ROW,), None, 0.1, (0.1,), 0.9, ("x",), None),
        (None, None, (), None, (), None),
        [
            ("dst", "ok", (ROW,), None, 0.1, (0.1,), 0.9, ("x",), None),
            ("dsm", "inconsistent", (ROW,), None, 0.1, (0.1,), 0.9, ("x",), None),
            ("dsm", "ok", (), None, 0.1, (0.1,), 0.9, ("x",), None),
            ("dsm", "ok", (ROW,), BBA1, 0.1, (0.1,), 0.9, ("x",), None),
            ("dsm", "ok", (ROW,), None, 0.2, (0.1,), 0.9, ("x",), None),
            ("dsm", "ok", (ROW,), None, 0.1, (0.2,), 0.9, ("x",), None),
            ("dsm", "ok", (ROW,), None, 0.1, (0.1,), 0.8, ("x",), None),
            ("dsm", "ok", (ROW,), None, 0.1, (0.1,), 0.9, (), None),
            ("dsm", "ok", (ROW,), None, 0.1, (0.1,), 0.9, ("x",), ESTIMATES),
        ],
        True,
    ),
    "FusionReport": (FusionReport, ("results",), ((RESULT,),), (), [((),)], True),
    "Var": (Var, ("name",), ("a",), (), [("b",)], True),
    "Not": (Not, ("operand",), (Var("a"),), (), [(Var("b"),)], True),
    "_Connective": (And, ("left", "right"), (Var("a"), Var("b")), (), [(Var("b"), Var("b")), (Var("a"), Var("a"))], True),
    "BayesEstimates": (
        BayesEstimates,
        ("p_fly", "p_not_fly", "additivity_deficit", "bound", "validity_flags"),
        BAYES_ARGS,
        (),
        [
            (Fraction(1, 3), Fraction(1, 4), Fraction(1, 4), Fraction(3, 4), ()),
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(3, 4), ()),
            (Fraction(1, 2), Fraction(1, 4), Fraction(1, 3), Fraction(3, 4), ()),
            (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(2, 3), ()),
            (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(3, 4), ("x",)),
        ],
        True,
    ),
    "ModusTollensPosteriors": (
        ModusTollensPosteriors,
        ("not_a_given_not_b", "not_a_given_b", "validity_flags"),
        (Fraction(1, 2), Fraction(1, 4), ()),
        (),
        [(Fraction(1, 3), Fraction(1, 4), ()), (Fraction(1, 2), Fraction(1, 3), ()), (Fraction(1, 2), Fraction(1, 4), ("x",))],
        True,
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_value_semantics(case):
    cls, names, args, defaults, variants, hashable = CASES[case]
    value = cls(*args)
    assert cls(**dict(zip(names, args))) == value
    if defaults:
        required = args[: len(args) - len(defaults)]
        plain = cls(*required)
        assert plain == cls(*required, *defaults)
        assert tuple(getattr(plain, name) for name in names[len(required) :]) == defaults
    if hashable:
        assert hash(cls(*args)) == hash(value)
    else:
        with pytest.raises(TypeError):
            hash(value)
    assert not value != cls(*args)
    for variant in variants:
        changed = [name for name, old, new in zip(names, args, variant) if old != new]
        assert len(changed) == 1, changed
        assert cls(*variant) != value
        assert not cls(*variant) == value
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before


def test_value_classes_never_equal_across_classes():
    a, b = Var("a"), Var("b")
    assert And(a, b) != Or(a, b)
    assert And(a, b) != Implies(a, b)
    assert Or(a, b) != Implies(a, b)
    assert Not(a) != Var("a")
    assert Frame(("a", "b")) != AtomFrame((("a", "b"),))
    assert ModusTollensPosteriors(Fraction(1), Fraction(1), ()) != (Fraction(1), Fraction(1), ())


def test_model_kind_is_computed_compared_and_read_only():
    model = Model(F, frozenset({3, 5, 6}))
    assert model.kind == "shafer"
    assert model == Model.shafer(F)
    assert Model(F, frozenset({3})).kind == "hybrid"
    with pytest.raises(TypeError):
        Model(F, frozenset({3}), "free")
    with pytest.raises(TypeError):
        Model(F, frozenset({3}), kind="free")
    with pytest.raises(AttributeError):
        model.kind = "free"
    assert model.kind == "shafer"


def test_repr_text():
    frame = Frame(("a", "b"))
    assert repr(frame) == "Frame(names=('a', 'b'))"
    assert repr(Model.shafer(frame)) == "Model(frame=Frame(names=('a', 'b')), masks=frozenset({3}), kind='shafer')"
    assert repr(Model.free(frame)) == "Model(frame=Frame(names=('a', 'b')), masks=frozenset(), kind='free')"
    a = frame.singleton("a")
    assert repr(a | frame.singleton("b")) == "<Proposition a ∪ b>"
    assert repr(QueryResult(a, 0.5, 1.0)) == "QueryResult(query=<Proposition a>, bel=0.5, pl=1.0, estimate=None, note='')"
    assert repr(And(Var("a"), Not(Var("b")))) == "And(left=Var(name='a'), right=Not(operand=Var(name='b')))"
