"""Value semantics of the package's immutable types: construction by position,
by keyword and with defaults, equality and hashing by value, read-only fields
and the repr text."""

import importlib
import pkgutil
from fractions import Fraction
from functools import cached_property

import pytest

import hyperbelief
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
from hyperbelief._value import Value
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
BBA1 = BBA(FREE, MASSES)
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
    "BBA": (BBA, ("model", "masses"), (FREE, MASSES), (), [(AB_EXCLUSIVE, MASSES), (FREE, {A: 1.0})], False),
    "CombinationReport": (
        CombinationReport,
        ("result", "conflict_mass", "normalization_constant"),
        (BBA1, 0.25, 0.75),
        (),
        [(BBA(FREE, {B: 1.0}), 0.25, 0.75), (BBA1, 0.5, 0.75), (BBA1, 0.25, None)],
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
        ("model", "rules", "observations", "queries", "engines", "dst_axes"),
        (FREE, (RULE,), (A,), (B,), ("dsm",), None),
        (("dsm",), None),
        [
            (AC_EXCLUSIVE, (RULE,), (A,), (B,), ("dsm",), None),
            (FREE, (), (A,), (B,), ("dsm",), None),
            (FREE, (RULE,), (B,), (B,), ("dsm",), None),
            (FREE, (RULE,), (A,), (A,), ("dsm",), None),
            (FREE, (RULE,), (A,), (B,), ("bayes",), None),
            (FREE, (RULE,), (A,), (B,), ("dsm",), DST),
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
        ("engine", "status", "queries", "fused", "stage_conflicts", "normalization_constant", "flags", "estimates"),
        ("dsm", "ok", (ROW,), None, (0.1,), 0.9, ("x",), None),
        (None, (), None, (), None),
        [
            ("dst", "ok", (ROW,), None, (0.1,), 0.9, ("x",), None),
            ("dsm", "inconsistent", (ROW,), None, (0.1,), 0.9, ("x",), None),
            ("dsm", "ok", (), None, (0.1,), 0.9, ("x",), None),
            ("dsm", "ok", (ROW,), BBA1, (0.1,), 0.9, ("x",), None),
            ("dsm", "ok", (ROW,), None, (0.2,), 0.9, ("x",), None),
            ("dsm", "ok", (ROW,), None, (0.1,), 0.8, ("x",), None),
            ("dsm", "ok", (ROW,), None, (0.1,), 0.9, (), None),
            ("dsm", "ok", (ROW,), None, (0.1,), 0.9, ("x",), ESTIMATES),
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


@pytest.mark.parametrize("case", CASES)
def test_constructor_refuses_bad_arguments(case):
    cls, names, args, defaults, _, _ = CASES[case]
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*args, args[-1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*args, bogus=1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(bogus=args[0], **dict(zip(names[1:], args[1:])))  # in place of the first field
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*args, **{names[0]: args[0]})
    required = len(args) - len(defaults)
    with pytest.raises(TypeError, match=f"missing .*'{names[required - 1]}'"):
        cls(*args[: required - 1])
    with pytest.raises(TypeError, match=f"missing .*'{names[0]}'"):
        cls(**dict(zip(names[1:], args[1:])))


def test_checks_run_under_keyword_construction():
    with pytest.raises(ValueError, match=r"^rule weight 2.0 outside \[0, 1\]$"):
        WeightedRule(antecedent=A, consequent=B, weight=2.0)
    with pytest.raises(ValueError, match="^queries: scenario needs at least one query$"):
        Scenario(model=FREE, rules=(RULE,), observations=(A,), queries=())
    with pytest.raises(ValueError, match="^term mask 8 is not a non-empty subset of the frame$"):
        Proposition(frame=F, masks=(8,))
    assert Proposition(masks=(3, 1), frame=F).masks == (1,)  # absorbed by the check hook


def _value_classes() -> list[type]:
    """Every Value subclass the package defines, after importing all its modules."""
    for module in pkgutil.iter_modules(hyperbelief.__path__):
        if module.name != "__main__":
            importlib.import_module(f"hyperbelief.{module.name}")
    found, todo = [], Value.__subclasses__()
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("hyperbelief."):
            found.append(cls)
    return found


def test_every_value_class_has_a_case():
    # a class that declares its own fields has a row above; And, Or and
    # Implies take theirs from _Connective, and Formula declares none
    assert {cls.__name__ for cls in _value_classes() if "_fields" in vars(cls)} == set(CASES)


def test_no_value_class_stores_what_it_can_derive():
    # only a class that stores a converted copy of its input keeps a constructor,
    # and a fact read as a property is never also a field that a caller passes
    own_init = {cls.__name__ for cls in _value_classes() if "__init__" in vars(cls)}
    assert own_init == {"Frame", "AtomFrame", "DstAxes"}
    for cls in _value_classes():
        derived = [name for name in cls._fields if isinstance(getattr(cls, name, None), (property, cached_property))]
        assert derived == [], cls.__name__


def test_value_classes_never_equal_across_classes():
    a, b = Var("a"), Var("b")
    assert And(a, b) != Or(a, b)
    assert And(a, b) != Implies(a, b)
    assert Or(a, b) != Implies(a, b)
    assert Not(a) != Var("a")
    assert Frame(("a", "b")) != AtomFrame((("a", "b"),))
    assert ModusTollensPosteriors(Fraction(1), Fraction(1), ()) != (Fraction(1), Fraction(1), ())


def test_values_on_two_equal_frames_are_equal():
    # every case above shares one F; here the frames are equal but two objects
    f1, f2 = Frame(("a", "b", "c")), Frame(("a", "b", "c"))
    assert f1 is not f2 and f1 == f2 and hash(f1) == hash(f2)
    p1, p2 = Proposition(f1, (1, 6)), Proposition(f2, (1, 6))
    assert p1 == p2 and not p1 != p2 and hash(p1) == hash(p2)
    m1, m2 = Model(f1, frozenset({3})), Model(f2, frozenset({3}))
    assert m1 == m2 and not m1 != m2 and hash(m1) == hash(m2)
    masses = {(1,): 0.25, (1, 2): 0.75}
    b1 = BBA(m1, {Proposition(f1, k): m for k, m in masses.items()})
    b2 = BBA(m2, {Proposition(f2, k): m for k, m in masses.items()})
    assert b1 == b2 and not b1 != b2
    assert b1.mass(Proposition(f2, (1, 2))) == 0.75
    assert b2.mass(Proposition(f1, (1,))) == 0.25
    assert Proposition(f2, (1, 6)) in {p1: None}


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


def test_frame_and_conflict_are_read_not_passed():
    scenario_args = (FREE, (RULE,), (A,), (B,))
    assert BBA1.frame is F and Scenario(*scenario_args).frame is F
    assert EngineResult("dsm", "ok", (ROW,), stage_conflicts=(0.25, 0.5, 0.0)).conflict_mass == 0.5
    assert RESULT.conflict_mass is None
    for cls, args, name, value in (
        (BBA, (FREE, MASSES), "frame", F),
        (Scenario, scenario_args, "frame", F),
        (EngineResult, ("dsm", "ok", (ROW,)), "conflict_mass", 0.5),
    ):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            cls(*args, **{name: value})
        with pytest.raises(AttributeError):
            setattr(cls(*args), name, value)


def test_repr_text():
    frame = Frame(("a", "b"))
    assert repr(frame) == "Frame(names=('a', 'b'))"
    assert repr(Model.shafer(frame)) == "Model(frame=Frame(names=('a', 'b')), masks=frozenset({3}))"
    assert repr(Model.free(frame)) == "Model(frame=Frame(names=('a', 'b')), masks=frozenset())"
    a = frame.singleton("a")
    assert repr(a | frame.singleton("b")) == "<Proposition a ∪ b>"
    assert repr(QueryResult(a, 0.5, 1.0)) == "QueryResult(query=<Proposition a>, bel=0.5, pl=1.0, estimate=None, note='')"
    assert repr(And(Var("a"), Not(Var("b")))) == "And(left=Var(name='a'), right=Not(operand=Var(name='b')))"
