"""Tests for mass assignments, Bel/Pl, and the three combination rules."""

import re
from fractions import Fraction
from itertools import permutations
from math import fsum, lcm, prod

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracle
from hyperbelief import (
    BBA,
    Frame,
    Model,
    Proposition,
    TotalConflictError,
    belief,
    canonicalize,
    conjunctive_combine,
    dempster_combine,
    dsm_hybrid_combine,
    enumerate_hyper_power_set,
    observation_to_bba,
    plausibility,
    reduce_under_model,
    refine_to_atoms,
    total_ignorance,
)
from hyperbelief.belief import (
    _fold,
    _hybrid_step,
    _observe,
    _summed,
    belief_intervals,
)
from harness import B, F, NF, P, TPAXES, TPFRAME, TPMODEL
from strategies import (
    bbas,
    dsm_scale_sources,
    emptying_cases,
    fold_cases,
    framed_models,
    observation_cases,
    propositions,
    wide_models,
)

H1 = (B & F) | P
H2 = (P & NF) | (B & F) | (P & B)

ATOMFRAME = oracle.to_frame(TPAXES.axes)
SHAFER = Model.shafer(ATOMFRAME)

EXACT = pytest.approx
TIGHT = dict(abs=1e-12)


def rule_sources(e1, e2, e3):
    m1 = BBA(TPMODEL, {P & NF: 1 - e1, P: e1})
    m2 = BBA(TPMODEL, {B & F: 1 - e2, B: e2})
    m3 = BBA(TPMODEL, {P & B: 1 - e3, P: e3})
    return m1, m2, m3


def lifted_query(prop):
    """``prop`` as a union of atom singletons on the eight-atom exclusive frame."""
    return canonicalize(ATOMFRAME, [[i] for i in refine_to_atoms(prop, TPAXES.axes, TPAXES.literal_map)])


def lift(bba):
    """Re-express a triangle BBA on the eight-atom exclusive frame."""
    return BBA(SHAFER, {lifted_query(k): v for k, v in bba.items()})


# ---------------------------------------------------------------- construction


def test_keys_are_reduced_and_merged():
    noisy = (P & F & NF) | B  # first term is impossible, so this is just b
    b = BBA(TPMODEL, {noisy: 0.4, B: 0.6})
    assert b.focals() == [B]
    assert b.mass(B) == 1.0
    assert b.mass(noisy) == 1.0  # lookup reduces the query too


def test_zero_mass_entries_are_dropped():
    b = BBA(TPMODEL, {P: 0.0, B: 1.0})
    assert b.focals() == [B]


def test_negative_mass_rejected():
    nan, inf = float("nan"), float("inf")
    for masses in ({P: -0.1, B: 1.1}, {P: nan, B: 1.0}, {P: inf, B: 1.0}, {P: -inf, B: 1.0}):
        with pytest.raises(ValueError, match="negative"):
            BBA(TPMODEL, masses)


def test_unnormalized_total_rejected():
    with pytest.raises(ValueError, match="sum"):
        BBA(TPMODEL, {P: 0.5, B: 0.4})


def test_mismatched_model_rejected():
    other = Frame(("x", "y"))
    with pytest.raises(ValueError):
        BBA(Model.free(other), {P: 1.0})
    with pytest.raises(ValueError):
        BBA(TPMODEL, {other.singleton("x"): 1.0})


def test_bel_pl_by_hand():
    frame = Frame(("a", "b", "c"))
    model = Model.shafer(frame)
    a, b, c = (frame.singleton(n) for n in frame.names)
    m = BBA(model, {a: 0.5, a | b: 0.3, c: 0.2})
    assert belief(m, a) == 0.5
    assert belief(m, a | b) == EXACT(0.8, **TIGHT)
    assert belief(m, c) == 0.2
    assert plausibility(m, a) == EXACT(0.8, **TIGHT)
    assert plausibility(m, b) == 0.3
    assert plausibility(m, c) == 0.2
    assert plausibility(m, a | c) == EXACT(1.0, **TIGHT)
    empty = Proposition.empty(frame)
    assert belief(m, empty) == 0.0
    assert plausibility(m, empty) == 0.0


def test_queries_must_share_the_frame():
    v = observation_to_bba(total_ignorance(TPFRAME), TPMODEL)
    with pytest.raises(ValueError):
        belief(v, Frame(("x",)).singleton("x"))
    with pytest.raises(ValueError):
        plausibility(v, Frame(("x",)).singleton("x"))


@pytest.mark.parametrize("combine", [conjunctive_combine, dempster_combine, dsm_hybrid_combine])
def test_combination_needs_agreeing_sources(combine):
    v = observation_to_bba(total_ignorance(TPFRAME), TPMODEL)
    other = Frame(("x", "y"))
    with pytest.raises(ValueError, match="at least one source"):
        combine([])
    with pytest.raises(ValueError, match="disagree"):
        combine([v, observation_to_bba(total_ignorance(TPFRAME), Model.free(TPFRAME))])
    with pytest.raises(ValueError, match="disagree"):
        combine([v, observation_to_bba(total_ignorance(other), Model.free(other))])


# ------------------------------------------------- two-source exclusive fusion


def test_dempster_triangle_closed_forms():
    e1, e2 = 0.1, 0.1
    m1, m2, m3 = rule_sources(e1, e2, 0.1)
    rep = dempster_combine([lift(m1), lift(m2)])
    k12 = e1 + e2 - e1 * e2
    assert rep.conflict_mass == EXACT((1 - e1) * (1 - e2), **TIGHT)
    assert rep.normalization_constant == EXACT(k12, **TIGHT)
    assert belief(rep.result, lifted_query(F)) == EXACT(e1 * (1 - e2) / k12, **TIGHT)
    assert plausibility(rep.result, lifted_query(F)) == EXACT(e1 / k12, **TIGHT)
    assert belief(rep.result, lifted_query(NF)) == EXACT(e2 * (1 - e1) / k12, **TIGHT)
    assert plausibility(rep.result, lifted_query(NF)) == EXACT(e2 / k12, **TIGHT)
    # frozen decimals for the symmetric point
    assert belief(rep.result, lifted_query(F)) == EXACT(0.47368421052631576, **TIGHT)
    assert plausibility(rep.result, lifted_query(F)) == EXACT(0.5263157894736842, **TIGHT)


def test_third_rule_changes_nothing_in_exclusive_fusion():
    m1, m2, m3 = (lift(m) for m in rule_sources(0.1, 0.1, 0.1))
    two = dempster_combine([m1, m2]).result
    three = dempster_combine([m1, m2, m3]).result
    assert two.focals() == three.focals()
    for key in two:
        assert three.mass(key) == EXACT(two.mass(key), **TIGHT)


def test_dempster_weight_inversion():
    # the less reliable conclusion ends up with the dominant belief
    e1, e2 = 0.01, 0.001
    m1, m2, _ = (lift(m) for m in rule_sources(e1, e2, 0.1))
    rep = dempster_combine([m1, m2])
    assert belief(rep.result, lifted_query(F)) == EXACT(0.9090081892629663, **TIGHT)
    assert belief(rep.result, lifted_query(F)) > belief(rep.result, lifted_query(NF))


def test_dempster_degenerate_certainty():
    m1, m2, _ = (lift(m) for m in rule_sources(0.0, 1.0, 0.1))
    rep = dempster_combine([m1, m2])
    assert belief(rep.result, lifted_query(NF)) == 1.0
    assert plausibility(rep.result, lifted_query(NF)) == 1.0
    m1, m2, _ = (lift(m) for m in rule_sources(1.0, 0.0, 0.1))
    rep = dempster_combine([m1, m2])
    assert belief(rep.result, lifted_query(F)) == 1.0
    assert plausibility(rep.result, lifted_query(F)) == 1.0


def test_total_conflict_raises():
    m1, m2, _ = (lift(m) for m in rule_sources(0.0, 0.0, 0.1))
    with pytest.raises(TotalConflictError):
        dempster_combine([m1, m2])


def test_any_kept_mass_normalises():
    # K = 2·2⁻⁴¹(1 − 2⁻⁴¹) ≈ 9.1e-13: total conflict means that no meet keeps
    # mass, so a K this small normalises, exactly, where a 1e-12 threshold raised
    frame = Frame(("a", "b"))
    a, b = frame.singleton("a"), frame.singleton("b")
    e = 2.0**-41
    model = Model.shafer(frame)
    rep = dempster_combine([BBA(model, {a: 1 - e, b: e}), BBA(model, {b: 1 - e, a: e})])
    assert rep.normalization_constant == float(2 * Fraction(e) * (1 - Fraction(e)))
    assert rep.result.masses == {a: 0.5, b: 0.5}


def test_dempster_small_normalisation_constant_stays_normalised():
    # K is about 3e-8, so 1 − conflict would keep only its leading digits;
    # dividing by it left the masses summing to 1 + 3e-9 and the BBA check
    # raised.  K and each mass are the exact ratios, rounded once
    frame = Frame(("a", "b", "c"))
    a, b, c = (frame.singleton(n) for n in frame.names)
    e1, e2, w = 3.367627442655785e-08, 1.5286572032923147e-08, 0.3610723711593433
    model = Model.shafer(frame)
    m1 = BBA(model, {a: 1 - e1, a | b: e1 * w, c: e1 * (1 - w)})
    m2 = BBA(model, {b: 1 - e2, a | c: e2})
    rep = dempster_combine([m1, m2])
    exact = {
        a: Fraction(1 - e1) * Fraction(e2) + Fraction(e1 * w) * Fraction(e2),
        b: Fraction(e1 * w) * Fraction(1 - e2),
        c: Fraction(e1 * (1 - w)) * Fraction(e2),
    }
    k = sum(exact.values())
    assert rep.result.focals() == [a, b, c]
    for prop, mass in exact.items():
        assert rep.result.mass(prop) == float(mass / k)
    assert rep.normalization_constant == float(k)


def test_conjunctive_keeps_conflict_on_empty():
    m1, m2, _ = (lift(m) for m in rule_sources(0.1, 0.1, 0.1))
    rep = conjunctive_combine([m1, m2])
    assert rep.normalization_constant is None
    assert rep.result.mass_on_empty() == EXACT(0.81, **TIGHT)
    assert rep.conflict_mass == rep.result.mass_on_empty()


# ------------------------------------------------------- hybrid lattice fusion


def test_hybrid_triangle_five_masses():
    e1, e2, e3 = 0.1, 0.1, 0.1
    rep = dsm_hybrid_combine(rule_sources(e1, e2, e3))
    m = rep.result
    assert m.focals() == sorted(
        [H1, H2, P & B, P & B & F, P & B & NF], key=lambda p: p.sort_key
    )
    assert m.mass(H1) == EXACT((1 - e1) * (1 - e2) * e3, **TIGHT)
    assert m.mass(H2) == EXACT((1 - e1) * (1 - e2) * (1 - e3), **TIGHT)
    assert m.mass(P & B & NF) == EXACT((1 - e1) * e2, **TIGHT)
    assert m.mass(P & B & F) == EXACT(e1 * (1 - e2), **TIGHT)
    assert m.mass(P & B) == EXACT(e1 * e2, **TIGHT)
    assert rep.conflict_mass == EXACT((1 - e1) * (1 - e2), **TIGHT)
    assert rep.normalization_constant is None


def test_hybrid_triangle_intervals():
    e1, e2, e3 = 0.1, 0.1, 0.1
    m = dsm_hybrid_combine(rule_sources(e1, e2, e3)).result
    assert belief(m, F) == EXACT(e1 * (1 - e2), **TIGHT)
    assert belief(m, NF) == EXACT(e2 * (1 - e1), **TIGHT)
    # the bare p∩b focal intersects both f and nf, so it shows up in both
    # plausibilities: Pl(f) = 1 - e2 + e1*e2, not 1 - e2.
    assert plausibility(m, F) == EXACT(1 - e2 + e1 * e2, **TIGHT)
    assert plausibility(m, NF) == EXACT(1 - e1 + e1 * e2, **TIGHT)


def test_hybrid_intervals_when_one_rule_is_sure():
    # with e1 = 0 the second-order term vanishes and Pl(f) = 1 - e2 holds
    e2, e3 = 0.1, 0.1
    m = dsm_hybrid_combine(rule_sources(0.0, e2, e3)).result
    assert belief(m, F) == 0.0
    assert plausibility(m, F) == EXACT(1 - e2, **TIGHT)
    assert plausibility(m, NF) == EXACT(1.0, **TIGHT)


def test_hybrid_observation_collapses_unions():
    priors = dsm_hybrid_combine(rule_sources(0.1, 0.1, 0.1)).result
    seen = BBA(TPMODEL, {P & B: 1.0})
    rep = dsm_hybrid_combine([priors, seen])
    assert rep.result.focals() == sorted(
        [P & B, P & B & F, P & B & NF], key=lambda p: p.sort_key
    )
    assert rep.conflict_mass == 0.0
    # conditioning on the observation changes no interval
    for q in (F, NF):
        assert belief(rep.result, q) == EXACT(belief(priors, q), **TIGHT)
        assert plausibility(rep.result, q) == EXACT(plausibility(priors, q), **TIGHT)


def test_hybrid_degenerate_certainty():
    m = dsm_hybrid_combine(rule_sources(0.0, 1.0, 0.1)).result
    assert m.focals() == [P & B & NF]
    assert belief(m, NF) == 1.0 and plausibility(m, NF) == 1.0
    assert belief(m, F) == 0.0 and plausibility(m, F) == 0.0
    m = dsm_hybrid_combine(rule_sources(1.0, 0.0, 0.1)).result
    assert m.focals() == [P & B & F]
    assert belief(m, F) == 1.0 and plausibility(m, F) == 1.0


def test_hybrid_sure_rules_disagree():
    # both conditionals certain: everything conflicts, mass moves to joins
    rep = dsm_hybrid_combine(rule_sources(0.0, 0.0, 0.1))
    assert rep.conflict_mass == EXACT(1.0, **TIGHT)
    assert rep.result.mass(H2) == EXACT(0.9, **TIGHT)
    assert rep.result.mass(H1) == EXACT(0.1, **TIGHT)
    seen = BBA(TPMODEL, {P & B: 1.0})
    after = dsm_hybrid_combine([rep.result, seen]).result
    assert after.focals() == [P & B]
    assert belief(after, F) == 0.0
    assert plausibility(after, F) == 1.0


def test_hybrid_routes_source_conflict_mass():
    frame = Frame(("a", "b"))
    model = Model.free(frame)
    a, b = frame.singleton("a"), frame.singleton("b")
    empty = Proposition.empty(frame)
    s1 = BBA(model, {empty: 0.4, a: 0.6})
    s2 = BBA(model, {empty: 0.5, b: 0.5})
    rep = dsm_hybrid_combine([s1, s2])
    assert rep.result.mass(a | b) == EXACT(0.2, **TIGHT)  # (∅,∅) → ignorance
    assert rep.result.mass(b) == EXACT(0.2, **TIGHT)  # (∅,b) → join
    assert rep.result.mass(a) == EXACT(0.3, **TIGHT)  # (a,∅) → join
    assert rep.result.mass(a & b) == EXACT(0.3, **TIGHT)
    assert rep.result.mass_on_empty() == 0.0
    assert rep.conflict_mass == EXACT(0.7, **TIGHT)


def test_free_model_hybrid_equals_conjunctive_exactly():
    frame = TPFRAME
    free = Model.free(frame)
    s1 = BBA(free, {P & NF: 0.9, P: 0.1})
    s2 = BBA(free, {B & F: 0.8, B | F: 0.2})
    s3 = BBA(free, {P & B: 0.7, P: 0.3})
    hybrid = dsm_hybrid_combine([s1, s2, s3])
    conj = conjunctive_combine([s1, s2, s3])
    assert hybrid.result.masses == conj.result.masses
    assert hybrid.conflict_mass == 0.0 == conj.conflict_mass


def test_twenty_sources_match_closed_forms():
    # even sources say a, odd ones say b, each with weight w_i and the rest
    # on a∪b; with A, B the products of (1 - w_i) over the even and the odd
    # sources, the conjunctive rule gives a∪b: AB, a: (1-A)B, b: A(1-B) and
    # conflict (1-A)(1-B), which hybrid DSm sends to the join a∪b
    frame = Frame(("a", "b"))
    model = Model.shafer(frame)
    a, b = frame.singleton("a"), frame.singleton("b")
    weights = [0.03 + 0.002 * i for i in range(20)]
    sources = [
        BBA(model, {(a if i % 2 == 0 else b): w, a | b: 1 - w})
        for i, w in enumerate(weights)
    ]
    big_a = prod(1 - w for w in weights[0::2])
    big_b = prod(1 - w for w in weights[1::2])
    conflict = (1 - big_a) * (1 - big_b)

    conj = conjunctive_combine(sources)
    assert conj.result.mass(a | b) == EXACT(big_a * big_b, **TIGHT)
    assert conj.result.mass(a) == EXACT((1 - big_a) * big_b, **TIGHT)
    assert conj.result.mass(b) == EXACT(big_a * (1 - big_b), **TIGHT)
    assert conj.conflict_mass == EXACT(conflict, **TIGHT)

    dempster = dempster_combine(sources)
    assert dempster.normalization_constant == EXACT(1 - conflict, **TIGHT)
    assert dempster.result.mass(a) == EXACT((1 - big_a) * big_b / (1 - conflict), **TIGHT)
    assert dempster.result.mass(b) == EXACT(big_a * (1 - big_b) / (1 - conflict), **TIGHT)

    hybrid = dsm_hybrid_combine(sources)
    assert hybrid.result.mass(a | b) == EXACT(big_a * big_b + conflict, **TIGHT)
    assert hybrid.result.mass(a) == EXACT((1 - big_a) * big_b, **TIGHT)
    assert hybrid.result.mass(b) == EXACT(big_a * (1 - big_b), **TIGHT)
    assert hybrid.conflict_mass == EXACT(conflict, **TIGHT)


# ------------------------------------------------------------------ properties


def combined_sources(draw_conflict=False):
    @st.composite
    def inner(draw):
        model = draw(framed_models(min_n=1, max_n=3))
        k = draw(st.integers(2, 5))
        sources = tuple(
            draw(bbas(model, allow_conflict_mass=draw_conflict)) for _ in range(k)
        )
        return model, sources

    return inner()


def assert_mass_dicts_close(got, want, tol=1e-9):
    for key in set(got) | set(want):
        assert got.get(key, 0.0) == pytest.approx(want.get(key, 0.0), abs=tol)


@given(combined_sources())
def test_conjunctive_matches_naive_reference(case):
    model, sources = case
    rep = conjunctive_combine(sources)
    want, want_conflict = oracle.naive_conjunctive(model, [dict(s.items()) for s in sources])
    got = oracle.region_masses(rep.result, model)
    if rep.conflict_mass:
        got[0] = rep.result.mass_on_empty()
    assert_mass_dicts_close(got, want)
    assert rep.conflict_mass == pytest.approx(want_conflict, abs=1e-9)


@given(framed_models().flatmap(lambda model: bbas(model)))
def test_a_fold_of_one_source_is_that_source(b):
    # Dempster's rule divides by the kept mass, which is b's own exact total: b
    # itself whenever its masses sum to exactly 1, and otherwise each mass over
    # that total, rounded once
    total = sum(map(Fraction, b.masses.values()))
    for combine, want in (
        (conjunctive_combine, [(p.masks, m.hex()) for p, m in b.items()]),
        (dsm_hybrid_combine, [(p.masks, m.hex()) for p, m in b.items()]),
        (dempster_combine, [(p.masks, float(Fraction(m) / total).hex()) for p, m in b.items()]),
    ):
        rep = combine([b])
        assert [(p.masks, m.hex()) for p, m in rep.result.items()] == want
        assert rep.conflict_mass == 0.0


@given(combined_sources(draw_conflict=True))
def test_dempster_is_the_conjunctive_rule_normalised(case):
    # Dempster's rule by its definition: drop ∅ from the conjunctive result and
    # divide the rest by its total; both are exact until each mass is rounded
    # once, so every float is the correctly rounded exact ratio
    model, sources = case
    conj = conjunctive_combine(sources)
    num, den = conj.result._num, conj.result._den
    kept = {masks: n for masks, n in num.items() if masks}
    if not kept:
        with pytest.raises(TotalConflictError, match=re.escape(f"conflict mass {conj.conflict_mass!r} ")):
            dempster_combine(sources)
        return
    total = sum(kept.values())
    rep = dempster_combine(sources)
    want = {masks: float(Fraction(n, total)) for masks, n in kept.items()}
    assert [(p.masks, m) for p, m in rep.result.items()] == [
        (p.masks, want[p.masks]) for p in conj.result if p.masks and want[p.masks]
    ]
    assert rep.conflict_mass == conj.conflict_mass == float(Fraction(num.get((), 0), den))
    assert rep.normalization_constant == float(Fraction(total, den))


@given(combined_sources())
def test_dempster_matches_naive_reference(case):
    model, sources = case
    source_dicts = [dict(s.items()) for s in sources]
    try:
        want, _ = oracle.naive_dempster(model, source_dicts)
    except ZeroDivisionError:
        with pytest.raises(TotalConflictError):
            dempster_combine(sources)
        return
    rep = dempster_combine(sources)
    assert_mass_dicts_close(oracle.region_masses(rep.result, model), want)


@given(combined_sources(draw_conflict=True))
def test_hybrid_matches_naive_reference(case):
    model, sources = case
    rep = dsm_hybrid_combine(sources)
    want, want_conflict = oracle.naive_hybrid(model, [dict(s.items()) for s in sources])
    assert_mass_dicts_close(oracle.region_masses(rep.result, model), want)
    assert rep.conflict_mass == pytest.approx(want_conflict, abs=1e-9)


@given(dsm_scale_sources())
def test_rules_match_naive_reference_at_dsm_scale(case):
    model, sources = case
    source_dicts = [dict(s.items()) for s in sources]

    conj = conjunctive_combine(sources)
    want, want_conflict = oracle.naive_conjunctive(model, source_dicts)
    got = oracle.region_masses(conj.result, model)
    if conj.conflict_mass:
        got[0] = conj.result.mass_on_empty()
    assert_mass_dicts_close(got, want)
    assert conj.conflict_mass == pytest.approx(want_conflict, abs=1e-9)

    try:
        want, _ = oracle.naive_dempster(model, source_dicts)
    except ZeroDivisionError:
        with pytest.raises(TotalConflictError):
            dempster_combine(sources)
    else:
        assert_mass_dicts_close(oracle.region_masses(dempster_combine(sources).result, model), want)

    hybrid = dsm_hybrid_combine(sources)
    want, want_conflict = oracle.naive_hybrid(model, source_dicts)
    assert_mass_dicts_close(oracle.region_masses(hybrid.result, model), want)
    assert hybrid.conflict_mass == pytest.approx(want_conflict, abs=1e-9)


def mask_dicts(sources):
    """The BBAs as the fold takes them: each as {term masks: int numerator}, in
    focal order, over the least common denominator of its masses; and the
    product of those denominators."""
    dicts, den = [], 1
    for b in sources:
        exact = {p.masks: Fraction(m) for p, m in b.items()}
        d = lcm(*(m.denominator for m in exact.values()))
        dicts.append({masks: int(m * d) for masks, m in exact.items()})
        den *= d
    return dicts, den


@pytest.mark.parametrize("cases", [fold_cases(), emptying_cases()], ids=["fold_cases", "emptying_cases"])
@given(data=st.data())
def test_fold_matches_the_absorb_reference_exactly(cases, data):
    # the same keys in the same order, and each numerator over the product of
    # the denominators is the reference's exact Fraction; the reference keys
    # every state, live or rerouted, by (meet, absorbed join) and tests each
    # union against the constraints by a plain scan
    model, sources = data.draw(cases)
    nums, den = mask_dicts(sources)
    got = [(key, Fraction(n, den)) for key, n in _fold(nums, model).items()]
    assert got == list(oracle.absorb_fold(sources, model).items())


@given(observation_cases())
def test_observation_map_equals_the_two_source_hybrid_step(case):
    # F∩O and F∪O determine F, so each state of the two-source fold holds one
    # focal: the map reaches the same targets, order and numerators, and
    # rerouted mass; two different observations in turn, as a dsm run applies them
    model, fused, observations = case
    for obs in observations:
        got, got_rerouted = _observe(fused, obs, model._allowed)
        want, want_rerouted = _hybrid_step([fused, {obs: 1}], model)
        assert list(got.items()) == list(want.items())
        assert got_rerouted == want_rerouted
        fused = want


@given(fold_cases())
def test_trusted_bba_equals_the_public_constructor(case):
    # the conjunctive and the hybrid keys of the same fold, wrapped as they are
    # and, as the floats they round to, through every check of the public constructor
    model, sources = case
    frame = model.frame
    ignorance = tuple(1 << i for i in range(len(frame)))
    nums, den = mask_dicts(sources)
    states = _fold(nums, model)
    for pairs in (
        [(meet, n) for (meet, _), n in states.items()],
        [(meet or join or ignorance, n) for (meet, join), n in states.items()],
    ):
        num = _summed(pairs)
        trusted = BBA._trusted(model, num, den)
        public = BBA(model, {Proposition(frame, k): n / den for k, n in num.items()})
        assert [(p.masks, m.hex()) for p, m in trusted.items()] == [
            (p.masks, m.hex()) for p, m in public.items()
        ]
        assert trusted.focals() == sorted(trusted.focals(), key=lambda p: p.sort_key)


@given(st.data())
def test_bel_pl_match_region_semantics(data):
    model = data.draw(wide_models(min_n=1))
    b = data.draw(bbas(model, allow_conflict_mass=True))
    frame = model.frame
    queries = [data.draw(propositions(frame)) for _ in range(3)]
    # a constrained term keeps the query from being reduced
    queries += [
        canonicalize(frame, q.terms + (c,)) for q in queries for c in model.empty_intersections
    ]
    focals = [(oracle.semantic(x, model), m) for x, m in b.items()]
    want = []
    for q in queries:
        region = oracle.semantic(q, model)
        want.append(
            (fsum(m for r, m in focals if r and r & ~region == 0), fsum(m for r, m in focals if r & region))
        )
        assert (belief(b, q), plausibility(b, q)) == want[-1]
    assert belief_intervals(b, queries) == want


@given(combined_sources(draw_conflict=True))
def test_combined_output_is_normalized_on_reduced_keys(case):
    model, sources = case
    for combine in (conjunctive_combine, dsm_hybrid_combine):
        result = combine(sources).result
        assert sum(m for _, m in result.items()) == pytest.approx(1.0, abs=1e-9)
        for key, mass in result.items():
            assert mass >= 0.0
            assert key == reduce_under_model(key, model)


@given(combined_sources())
def test_pairwise_combination_commutes_exactly(case):
    model, sources = case
    a, b = sources[0], sources[1]
    for combine in (conjunctive_combine, dsm_hybrid_combine):
        assert combine([a, b]).result.masses == combine([b, a]).result.masses


@given(combined_sources())
def test_multiway_combination_is_order_insensitive(case):
    model, sources = case
    first = dsm_hybrid_combine(sources).result
    for perm in permutations(sources):
        other = dsm_hybrid_combine(list(perm)).result
        assert first.focals() == other.focals()
        for key in first:
            assert other.mass(key) == pytest.approx(first.mass(key), abs=1e-12)


@given(combined_sources())
def test_dempster_is_associative(case):
    model, sources = case
    assume(len(sources) == 3)
    try:
        flat = dempster_combine(sources).result
        folded = dempster_combine(
            [dempster_combine(sources[:2]).result, sources[2]]
        ).result
    except TotalConflictError:
        return
    assert flat.focals() == folded.focals()
    for key in flat:
        assert folded.mass(key) == pytest.approx(flat.mass(key), abs=1e-9)


@given(combined_sources())
def test_belief_never_exceeds_plausibility(case):
    model, sources = case
    result = dsm_hybrid_combine(sources).result
    for prop in enumerate_hyper_power_set(model.frame):
        assert belief(result, prop) <= plausibility(result, prop) + 1e-12


@given(combined_sources())
def test_total_ignorance_is_always_sure(case):
    model, sources = case
    result = dsm_hybrid_combine(sources).result
    everything = total_ignorance(model.frame)
    assert belief(result, everything) == pytest.approx(1.0, abs=1e-9)
    assert plausibility(result, everything) == pytest.approx(1.0, abs=1e-9)


@given(st.data())
def test_powerset_duality_on_exclusive_frames(data):
    frame = Frame(("a", "b", "c"))
    model = Model.shafer(frame)
    sources = [data.draw(bbas(model)) for _ in range(2)]
    result = dsm_hybrid_combine(sources).result
    for prop in enumerate_hyper_power_set(frame):
        reduced = reduce_under_model(prop, model)
        missing = [i for i in range(len(frame)) if not any(t >> i & 1 for t in reduced.masks)]
        complement = canonicalize(frame, tuple(frozenset((i,)) for i in missing))
        assert plausibility(result, reduced) == pytest.approx(
            1.0 - belief(result, complement), abs=1e-9
        )
