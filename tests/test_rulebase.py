"""Tests for rule/observation encoding and the three-engine pipeline."""

import json
from itertools import product
from math import prod

import oracle
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperbelief import (
    AtomFrame,
    BBA,
    DstAxes,
    Frame,
    FusionReport,
    Model,
    Proposition,
    Scenario,
    TotalConflictError,
    WeightedRule,
    belief,
    canonicalize,
    conjoin,
    dempster_combine,
    dsm_hybrid_combine,
    leq,
    observation_to_bba,
    plausibility,
    reduce_under_model,
    refine_to_atoms,
    rule_to_conditional_bba,
    run_scenario,
    total_ignorance,
)
from hyperbelief.belief import _merged
from hyperbelief.cli import emit_report, parse_scenario
from hyperbelief.lattice import _Allowed, _meet, _reduce_masks
from hyperbelief.rulebase import _rule_masses
from harness import B, F, NF, P, TPAXES, TPFRAME, TPMODEL, generated, tp2_scenario, triangle_rules
from strategies import dst_identity_scenarios, framed_models, propositions, wide_models

APPROX = dict(abs=1e-12)


# ------------------------------------------------------------------- encoding


def test_rule_encoding_splits_mass():
    bba = rule_to_conditional_bba(WeightedRule(P, NF, 0.9), TPMODEL)
    assert bba.mass(P & NF) == 0.9
    assert bba.mass(P) == pytest.approx(0.1, **APPROX)
    assert len(bba.focals()) == 2


def test_certain_rule_has_single_focal():
    bba = rule_to_conditional_bba(WeightedRule(P, NF, 1.0), TPMODEL)
    assert bba.focals() == [P & NF]


def test_worthless_rule_is_vacuous_given_antecedent():
    bba = rule_to_conditional_bba(WeightedRule(P, NF, 0.0), TPMODEL)
    assert bba.focals() == [P]


def test_self_implied_consequent_merges_keys():
    bba = rule_to_conditional_bba(WeightedRule(P, P | B, 0.7), TPMODEL)
    assert bba.focals() == [P]
    assert bba.mass(P) == 1.0


def test_contradictory_rule_raises():
    with pytest.raises(ValueError, match="contradicts"):
        rule_to_conditional_bba(WeightedRule(P, F & NF, 0.5), TPMODEL)
    # zero weight never commits to the contradiction, so it still encodes
    bba = rule_to_conditional_bba(WeightedRule(P, F & NF, 0.0), TPMODEL)
    assert bba.focals() == [P]


def test_impossible_antecedent_raises():
    with pytest.raises(ValueError, match="antecedent"):
        rule_to_conditional_bba(WeightedRule(F & NF, B, 0.0), TPMODEL)


def test_rule_validation():
    with pytest.raises(ValueError, match="weight"):
        WeightedRule(P, B, 1.2)
    with pytest.raises(ValueError, match="empty"):
        WeightedRule(Proposition.empty(TPFRAME), B, 0.5)
    with pytest.raises(ValueError, match="frames"):
        WeightedRule(P, Frame(("x",)).singleton("x"), 0.5)
    assert str(WeightedRule(P, NF, 0.9)) == "if p then nf (w=0.9)"


def test_observation_encoding():
    bba = observation_to_bba(P & B, TPMODEL)
    assert bba.focals() == [P & B]
    assert observation_to_bba(total_ignorance(TPFRAME), TPMODEL).masses == {total_ignorance(TPFRAME): 1.0}
    with pytest.raises(ValueError, match="impossible"):
        observation_to_bba(F & NF, TPMODEL)


@given(framed_models(min_n=2, max_n=3), st.data())
def test_rule_belief_matches_weight(model, data):
    frame = model.frame
    antecedent = reduce_under_model(
        data.draw(propositions(frame, allow_empty=False)), model
    )
    consequent = data.draw(propositions(frame, allow_empty=False))
    weight = data.draw(st.floats(0, 1))
    assume(not antecedent.is_empty)
    both = reduce_under_model(antecedent & consequent, model)
    assume(not (both.is_empty and weight > 0))
    # when the antecedent already entails the consequent the two keys merge
    assume(not leq(antecedent, consequent, model))
    bba = rule_to_conditional_bba(WeightedRule(antecedent, consequent, weight), model)
    assert belief(bba, consequent) == weight


@given(st.one_of(framed_models(), wide_models()), st.data())
def test_rule_masses_equal_the_merged_pairs(model, data):
    # the rule's two focals built directly: the same keys, order and bits as
    # merging (x∧y, w) and (x, 1 − w) and dropping a zero mass
    frame, allowed = model.frame, _Allowed(model.masks)
    antecedent = data.draw(propositions(frame, allow_empty=False))
    consequent = data.draw(propositions(frame))
    weight = data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    x = _reduce_masks(antecedent.masks, allowed)
    assume(x)
    both = _meet(x, consequent.masks, allowed)
    assume(both or weight == 0.0)
    got = _rule_masses(WeightedRule(antecedent, consequent, weight), model)
    want = _merged([(both, weight), (x, 1.0 - weight)])
    assert [(k, m.hex()) for k, m in got.items()] == [(k, m.hex()) for k, m in want.items()]


# ----------------------------------------------------------------- validation


def test_scenario_requires_queries_and_engines():
    with pytest.raises(ValueError, match="query"):
        Scenario(TPMODEL, (), (), (), engines=("dsm",))
    with pytest.raises(ValueError, match="engine"):
        Scenario(TPMODEL, (), (), (F,), engines=())
    with pytest.raises(ValueError, match=r"^engines\[1\]: unknown engine 'tbm'; choose from "):
        Scenario(TPMODEL, (), (), (F,), engines=("dsm", "tbm"))


def test_with_engines_keeps_the_encoded_sources_and_checks_the_engines():
    scenario = tp2_scenario(0.1, 0.1, 0.1)
    other = scenario.with_engines(("dsm", "dst"))
    assert other._sources is scenario._sources  # not encoded again
    assert other == Scenario(TPMODEL, scenario.rules, scenario.observations, (F, NF), ("dsm", "dst"), TPAXES)
    assert scenario.engines == ("bayes", "dst", "dsm")
    with pytest.raises(AttributeError):
        other.engines = ("dsm",)
    with pytest.raises(ValueError, match="^engines: 'dsm' is given twice$"):
        scenario.with_engines(("dsm", "dsm"))
    with pytest.raises(ValueError, match="^engines: scenario selects no engine$"):
        scenario.with_engines(())
    without_axes = tp2_scenario(0.1, 0.1, 0.1, engines=("dsm",))
    with pytest.raises(ValueError, match="^missing required field dst_axes, which the dst engine needs$"):
        without_axes.with_engines(("dst",))


def test_scenario_dst_requires_covering_axes():
    with pytest.raises(ValueError, match="^missing required field dst_axes, which the dst engine needs$"):
        Scenario(TPMODEL, (), (), (F,), engines=("dst",))
    partial = DstAxes(TPAXES.axes, {k: v for k, v in TPAXES.literal_map.items() if k != "nf"})
    with pytest.raises(ValueError, match="nf"):
        Scenario(
            TPMODEL,
            triangle_rules(0.1, 0.1, 0.1),
            (P & B,),
            (F, NF),
            engines=("dst",),
            dst_axes=partial,
        )


def test_dst_axes_validates_coordinates():
    with pytest.raises(ValueError, match="axis"):
        DstAxes(TPAXES.axes, {"f": (9, 0)})
    with pytest.raises(ValueError, match="value"):
        DstAxes(TPAXES.axes, {"f": (0, 9)})


def test_scenario_props_must_live_on_frame():
    stranger = Frame(("x", "y")).singleton("x")
    with pytest.raises(ValueError):
        Scenario(TPMODEL, (), (stranger,), (F,))
    with pytest.raises(ValueError):
        Scenario(TPMODEL, (), (), (stranger,))
    with pytest.raises(ValueError, match=r"^rule \[if x then x \(w=0.5\)\] does not live on the scenario frame$"):
        Scenario(TPMODEL, (WeightedRule(stranger, stranger, 0.5),), (), (F,))


def test_encodings_refuse_a_proposition_on_another_frame():
    stranger = Frame(("x", "y")).singleton("x")
    with pytest.raises(ValueError, match="^rule does not live on the model's frame$"):
        rule_to_conditional_bba(WeightedRule(stranger, stranger, 0.5), TPMODEL)
    with pytest.raises(ValueError, match="^observation does not live on the model's frame$"):
        observation_to_bba(stranger, TPMODEL)


def test_used_singletons():
    scenario = tp2_scenario(0.1, 0.1, 0.1, engines=("dsm",))
    assert scenario.used_singletons() == frozenset(("p", "b", "f", "nf"))


# ------------------------------------------------------------------ dsm engine


def test_dsm_engine_intervals():
    e1, e2, e3 = 0.1, 0.2, 0.3
    result = run_scenario(tp2_scenario(e1, e2, e3, engines=("dsm",))).engine("dsm")
    assert result.status == "ok"
    by_query = {str(row.query): row for row in result.queries}
    assert by_query["f"].bel == pytest.approx(e1 * (1 - e2), **APPROX)
    assert by_query["f"].pl == pytest.approx(1 - e2 + e1 * e2, **APPROX)
    assert by_query["nf"].bel == pytest.approx(e2 * (1 - e1), **APPROX)
    assert by_query["nf"].pl == pytest.approx(1 - e1 + e1 * e2, **APPROX)
    assert result.conflict_mass == pytest.approx((1 - e1) * (1 - e2), **APPROX)
    assert result.stage_conflicts == (result.conflict_mass, 0.0)
    assert result.normalization_constant is None


def test_dsm_observation_stage_reports_conditioned_masses():
    e1, e2, e3 = 0.1, 0.1, 0.1
    result = run_scenario(tp2_scenario(e1, e2, e3, engines=("dsm",))).engine("dsm")
    fused = result.fused
    # the two union-bearing prior focals collapse onto the observation
    assert fused.focals() == sorted(
        [P & B, P & B & F, P & B & NF], key=lambda p: p.sort_key
    )
    grouped = (1 - e1) * (1 - e2) * e3 + (1 - e1) * (1 - e2) * (1 - e3) + e1 * e2
    assert fused.mass(P & B) == pytest.approx(grouped, **APPROX)
    assert fused.mass(P & B & F) == pytest.approx(e1 * (1 - e2), **APPROX)
    assert fused.mass(P & B & NF) == pytest.approx((1 - e1) * e2, **APPROX)


def test_dsm_degenerate_certainty():
    result = run_scenario(tp2_scenario(0.0, 1.0, 0.1, engines=("dsm",))).engine("dsm")
    row = {str(r.query): r for r in result.queries}["nf"]
    assert (row.bel, row.pl) == (1.0, 1.0)
    result = run_scenario(tp2_scenario(1.0, 0.0, 0.1, engines=("dsm",))).engine("dsm")
    row = {str(r.query): r for r in result.queries}["f"]
    assert (row.bel, row.pl) == (1.0, 1.0)


def test_dsm_total_prior_conflict_is_reported_not_raised():
    result = run_scenario(tp2_scenario(0.0, 0.0, 0.1, engines=("dsm",))).engine("dsm")
    assert result.status == "ok"
    assert result.conflict_mass == pytest.approx(1.0, **APPROX)
    assert result.flags
    for row in result.queries:
        assert (row.bel, row.pl) == (0.0, 1.0)


def test_dsm_with_one_rule_fuses_to_that_rule():
    rule = WeightedRule(P, NF, 0.9)
    alone = run_scenario(Scenario(TPMODEL, (rule,), (), (F,))).engine("dsm")
    want = rule_to_conditional_bba(rule, TPMODEL)
    assert [(p.masks, m.hex()) for p, m in alone.fused.items()] == [
        (p.masks, m.hex()) for p, m in want.items()
    ]
    assert alone.stage_conflicts == (0.0,)
    observed = run_scenario(Scenario(TPMODEL, (rule,), (P & B,), (F,))).engine("dsm")
    assert observed.stage_conflicts[0] == 0.0


def test_dsm_without_rules_is_vacuous():
    scenario = Scenario(TPMODEL, (), (), (F,), engines=("dsm",))
    result = run_scenario(scenario).engine("dsm")
    assert result.fused.focals() == [total_ignorance(TPFRAME)]
    assert result.queries[0].bel == 0.0
    assert result.queries[0].pl == 1.0


@st.composite
def dsm_scenarios(draw):
    """0-4 rules and 0-2 observations that the model admits, weights 0 and 1 among them."""
    model = draw(st.one_of(framed_models(min_n=2), wide_models()))
    frame = model.frame
    weights = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    rules = []
    for _ in range(draw(st.integers(0, 4))):
        antecedent = draw(propositions(frame, allow_empty=False))
        if reduce_under_model(antecedent, model).is_empty:  # keep one singleton of it
            antecedent = frame.singleton(frame.names[min(antecedent.terms[0])])
        consequent = draw(propositions(frame, allow_empty=False))
        weight = draw(weights)
        if reduce_under_model(conjoin(antecedent, consequent), model).is_empty:
            weight = 0.0  # the only weight the model admits
        rules.append(WeightedRule(antecedent, consequent, weight))
    drawn = [draw(propositions(frame, allow_empty=False)) for _ in range(draw(st.integers(0, 2)))]
    observations = [o for o in drawn if not reduce_under_model(o, model).is_empty]
    return Scenario(model, tuple(rules), tuple(observations), (total_ignorance(frame),))


@given(dsm_scenarios())
def test_dsm_stages_match_the_public_chain_exactly(scenario):
    # the engine hands each stage's mask dict to the next; the public rule
    # orders and wraps a BBA between stages, and must reach the same bits
    frame, model = scenario.frame, scenario.model
    got = run_scenario(scenario).engine("dsm")
    rules = [rule_to_conditional_bba(rule, model) for rule in scenario.rules]
    report = dsm_hybrid_combine(rules or [observation_to_bba(total_ignorance(frame), model)])
    fused, conflicts = report.result, [report.conflict_mass]
    for obs in scenario.observations:
        report = dsm_hybrid_combine([fused, observation_to_bba(obs, model)])
        fused = report.result
        conflicts.append(report.conflict_mass)
    assert [(p.masks, m.hex()) for p, m in got.fused.items()] == [
        (p.masks, m.hex()) for p, m in fused.items()
    ]
    assert [c.hex() for c in got.stage_conflicts] == [c.hex() for c in conflicts]


def test_tp2_dsm_staging_is_pinned():
    # the engine fuses the rules in one step, then each observation in a
    # two-source step; the hybrid rule is not associative, so one step over
    # all four sources reaches other masses (and another Bel(p∩b)) but the
    # same intervals for f and nf
    e1 = e2 = e3 = 0.1
    scenario = tp2_scenario(e1, e2, e3, engines=("dsm",))
    staged = run_scenario(scenario).engine("dsm").fused
    sources = [rule_to_conditional_bba(r, TPMODEL) for r in scenario.rules]
    sources.append(observation_to_bba(P & B, TPMODEL))
    one_pass = dsm_hybrid_combine(sources).result
    want_staged = {P & B: 0.82, P & B & F: 0.09, P & B & NF: 0.09}
    want_one_pass = {
        P | (B & F): 0.081,
        P & B: 0.01,
        (P & B) | (P & NF) | (B & F): 0.729,
        P & B & F: 0.09,
        P & B & NF: 0.09,
    }
    for fused, want, bel_pb in ((staged, want_staged, 1.0), (one_pass, want_one_pass, 0.19)):
        assert set(fused.focals()) == set(want)
        for focal, mass in want.items():
            assert fused.mass(focal) == pytest.approx(mass, **APPROX)
        assert belief(fused, P & B) == pytest.approx(bel_pb, **APPROX)
        for query in (F, NF):
            assert belief(fused, query) == pytest.approx(0.09, **APPROX)
            assert plausibility(fused, query) == pytest.approx(0.91, **APPROX)


@pytest.mark.parametrize("weight", [0.0, 0.37, 1.0])
def test_a_vacuous_rule_is_not_neutral_once_mass_is_rerouted(weight):
    # `if Θ then Θ` puts mass 1 on Θ at any weight.  Without the observation
    # tp2's rule stage reroutes 0.81 to unions inside p ∪ b; with Θ among the
    # sources every rerouted join is Θ, so Bel(p ∪ b) falls from 1 to 0.19
    theta = total_ignorance(TPFRAME)
    queries = (P | B, F, NF)
    rules = triangle_rules(0.1, 0.1, 0.1)
    answers = []
    for extra in ((), (WeightedRule(theta, theta, weight),)):
        result = run_scenario(Scenario(TPMODEL, rules + extra, (), queries)).engine("dsm")
        assert result.stage_conflicts == pytest.approx((0.81,), **APPROX)
        answers.append([(q.bel, q.pl) for q in result.queries])
    assert answers[0] == [pytest.approx(bel_pl, **APPROX) for bel_pl in ((1.0, 1.0), (0.09, 0.91), (0.09, 0.91))]
    assert answers[1] == [pytest.approx(bel_pl, **APPROX) for bel_pl in ((0.19, 1.0), (0.09, 0.91), (0.09, 0.91))]


def test_dsm_observation_order_is_pinned():
    # scenario 148 of the seed-7 generator: two rules, then observations b∩d
    # and c∩f.  Each observation is its own two-source stage, so swapping
    # them moves Bel(a ∪ d) from 0 to 1: in file order the last stage's
    # meets are all empty and every mass goes to one union
    scenario = generated(count=149)[148]
    assert scenario["observations"] == [[["b", "d"]], [["c", "f"]]]
    a, b, c, d, e, f = (frozenset({i}) for i in range(6))
    want = {
        "file order": (
            {(c | f, b | d | e): 1.0},
            [0.0, 0.0, 1.0],
            [(0.0, 1.0)] * 6,
        ),
        "swapped": (
            {(b | d, c | d | e | f): 0.32081863983011627, (b | d | e, b | c | d | f): 0.6791813601698837},
            [0.0, 0.6791813601698837, 0.32081863983011627],
            [(1.0, 1.0), (0.0, 1.0), (1.0, 1.0), (0.6791813601698837, 1.0), (0.0, 1.0), (0.6791813601698837, 1.0)],
        ),
    }
    for order, observations in (("file order", scenario["observations"]), ("swapped", scenario["observations"][::-1])):
        got = run_scenario(parse_scenario(json.dumps(dict(scenario, observations=observations)))).engine("dsm")
        focals, conflicts, intervals = want[order]
        assert {p.terms: m for p, m in got.fused.masses.items()} == pytest.approx(focals, **APPROX)
        assert list(got.stage_conflicts) == pytest.approx(conflicts, **APPROX)
        assert [(q.bel, q.pl) for q in got.queries] == [pytest.approx(bel_pl, **APPROX) for bel_pl in intervals]


@given(dsm_scenarios())
def test_dsm_stages_without_rerouting_equal_one_pass(scenario):
    # with nothing rerouted the hybrid rule is the conjunctive rule, which is
    # associative: the staging cannot change the fused BBA
    frame, model = scenario.frame, scenario.model
    got = run_scenario(scenario).engine("dsm")
    assume(all(c == 0.0 for c in got.stage_conflicts))
    sources = [rule_to_conditional_bba(rule, model) for rule in scenario.rules]
    sources = sources or [observation_to_bba(total_ignorance(frame), model)]
    sources += [observation_to_bba(obs, model) for obs in scenario.observations]
    one_pass = dsm_hybrid_combine(sources)
    assert one_pass.conflict_mass == 0.0
    assert set(got.fused.focals()) == set(one_pass.result.focals())
    for focal, mass in one_pass.result.items():
        assert got.fused.mass(focal) == pytest.approx(mass, **APPROX)


# ------------------------------------------------------------------ dst engine


def test_dst_engine_closed_forms():
    e1, e2 = 0.1, 0.2
    result = run_scenario(tp2_scenario(e1, e2, 0.3, engines=("dst",))).engine("dst")
    k12 = e1 + e2 - e1 * e2
    by_query = {str(row.query): row for row in result.queries}
    assert by_query["f"].bel == pytest.approx(e1 * (1 - e2) / k12, **APPROX)
    assert by_query["f"].pl == pytest.approx(e1 / k12, **APPROX)
    assert by_query["nf"].bel == pytest.approx(e2 * (1 - e1) / k12, **APPROX)
    assert by_query["nf"].pl == pytest.approx(e2 / k12, **APPROX)
    assert result.conflict_mass == pytest.approx((1 - e1) * (1 - e2), **APPROX)
    assert result.normalization_constant == pytest.approx(k12, **APPROX)


def test_dst_subclass_rule_plays_no_role():
    # dropping the p→b rule does not move the exclusive-frame intervals at all
    full = run_scenario(tp2_scenario(0.1, 0.2, 0.3, engines=("dst",))).engine("dst")
    reduced = Scenario(
        TPMODEL,
        triangle_rules(0.1, 0.2, 0.3)[:2],
        (P & B,),
        (F, NF),
        engines=("dst",),
        dst_axes=TPAXES,
    )
    two = run_scenario(reduced).engine("dst")
    for row_full, row_two in zip(full.queries, two.queries):
        assert row_full.bel == pytest.approx(row_two.bel, **APPROX)
        assert row_full.pl == pytest.approx(row_two.pl, **APPROX)


def test_dst_first_order_weight_inversion():
    e1, e2 = 1e-4, 2e-5
    result = run_scenario(tp2_scenario(e1, e2, 0.1, engines=("dst",))).engine("dst")
    bel_f = {str(r.query): r for r in result.queries}["f"].bel
    assert abs(bel_f - e1 / (e1 + e2)) / (e1 / (e1 + e2)) < 1e-3


def test_dst_total_conflict_reports_inconsistency():
    result = run_scenario(tp2_scenario(0.0, 0.0, 0.1, engines=("dst",))).engine("dst")
    assert result.status == "inconsistent"
    assert any("inconsistent" in flag for flag in result.flags)
    assert result.fused is None
    for row in result.queries:
        assert row.bel is None and row.pl is None
        assert "inconsistent" in row.note


def test_dst_small_normalisation_constant_stays_normalised():
    # K is about 1e-8, so 1 − conflict keeps only its leading digits
    observations = (P & B, P & NF)
    scenario = tp2_scenario(0.2, 1e-8, 0.1, engines=("dst",), observations=observations)
    result = run_scenario(scenario).engine("dst")
    assert result.status == "ok"
    assert result.normalization_constant == pytest.approx(1e-8, rel=1e-6)
    assert list(result.fused.masses.values()) == [1.0]
    assert [(row.bel, row.pl) for row in result.queries] == [(0.0, 0.0), (1.0, 1.0)]


def test_dst_report_keeps_no_zero_masses():
    # 1e-200 * 1e-200 underflows, so a∩b∩c∩d gets mass 0.0; like a BBA, the report drops it
    frame = Frame(("a", "b", "c", "d"))
    a, b, c, d = map(frame.singleton, frame.names)
    axes = DstAxes(
        AtomFrame(tuple((n, f"{n}'") for n in frame.names)),
        {n: (i, 0) for i, n in enumerate(frame.names)},
    )
    rules = (WeightedRule(a, b, 1e-200), WeightedRule(c, d, 1e-200))
    scenario = Scenario(Model.free(frame), rules, (), (a,), engines=("dst",), dst_axes=axes)
    masses = run_scenario(scenario).engine("dst").fused.masses
    assert len(masses) == 3
    assert all(masses.values())


def test_evidential_intervals_stay_ordered():
    for eps in ((0.001, 0.3, 0.05), (0.3, 0.001, 0.5), (0.05, 0.05, 0.0)):
        report = run_scenario(tp2_scenario(*eps, engines=("dst", "dsm")))
        for result in report.results:
            for row in result.queries:
                assert 0.0 <= row.bel <= row.pl + 1e-12
                assert row.pl <= 1.0 + 1e-12


# sizes of 0-3 extra binary or ternary axes, at most 72 atoms in all
EXTRA_AXES = [s for n in range(4) for s in product((2, 3), repeat=n) if prod(s) <= 9]


@given(
    st.tuples(*[st.floats(0.0, 1.0)] * 3),
    st.lists(propositions(TPFRAME, allow_empty=False), max_size=2),
    st.lists(propositions(TPFRAME, allow_empty=False), max_size=2),
    st.sampled_from(EXTRA_AXES),
)
def test_dst_engine_matches_lattice_dempster(eps, extra_observations, extra_queries, extra_axes):
    # the atom-set engine against dempster_combine over Shafer-lifted BBAs, on
    # the triangle's axes plus unmapped binary or ternary ones (8 to 72 atoms)
    for obs in extra_observations:
        assume(not reduce_under_model(obs, TPMODEL).is_empty)
    extra = tuple(tuple(f"x{k}v{i}" for i in range(n)) for k, n in enumerate(extra_axes))
    axes = DstAxes(AtomFrame(TPAXES.axes.axes + extra), TPAXES.literal_map)
    atom_frame = oracle.to_frame(axes.axes)
    shafer = Model.shafer(atom_frame)

    def lifted(prop):
        atoms = refine_to_atoms(prop, axes.axes, axes.literal_map)
        return canonicalize(atom_frame, [[i] for i in atoms])

    observations = (P & B, *extra_observations)
    scenario = Scenario(
        TPMODEL,
        triangle_rules(*eps),
        observations,
        (F, NF, *extra_queries),
        engines=("dst",),
        dst_axes=axes,
    )
    result = run_scenario(scenario).engine("dst")
    # Both paths divide their rounding error by K, so a small K puts them
    # further apart than 1e-12.
    assume(result.status == "inconsistent" or result.normalization_constant >= 1e-3)
    sources = [rule_to_conditional_bba(r, TPMODEL) for r in scenario.rules]
    sources += [observation_to_bba(o, TPMODEL) for o in observations]
    lifted_sources = [
        BBA(shafer, {lifted(k): v for k, v in b.items()}) for b in sources
    ]
    if result.status == "inconsistent":
        with pytest.raises(TotalConflictError):
            dempster_combine(lifted_sources)
        return
    reference = dempster_combine(lifted_sources)
    focals = [
        canonicalize(atom_frame, [[i] for i in oracle.atoms_of(focal)])
        for focal in result.fused.masses
    ]
    assert focals == reference.result.focals()
    for got, (_, want) in zip(result.fused.masses.values(), reference.result.items()):
        assert got == pytest.approx(want, **APPROX)
    reported = oracle.fused_tree(result.fused)["masses"]
    expected = oracle.fused_tree(reference.result)["masses"]
    assert [entry["prop"] for entry in reported] == [entry["prop"] for entry in expected]
    for got, want in zip(reported, expected):
        assert got["mass"] == pytest.approx(want["mass"], **APPROX)
    assert result.conflict_mass == pytest.approx(reference.conflict_mass, **APPROX)
    assert result.normalization_constant == pytest.approx(
        reference.normalization_constant, **APPROX
    )
    for row in result.queries:
        assert row.bel == pytest.approx(belief(reference.result, lifted(row.query)), **APPROX)
        assert row.pl == pytest.approx(plausibility(reference.result, lifted(row.query)), **APPROX)


EXTRA_RULE = st.tuples(*[propositions(TPFRAME, allow_empty=False)] * 2, st.floats(0.0, 1.0))


@given(
    st.tuples(*[st.floats(0.0, 1.0)] * 3),
    st.lists(EXTRA_RULE, max_size=2),
    st.lists(propositions(TPFRAME, allow_empty=False), max_size=2),
    st.sampled_from(EXTRA_AXES),
    st.data(),
)
def test_dst_answers_do_not_depend_on_source_order(
    eps, extra_rules, extra_observations, extra_axes, data
):
    # Dempster's rule is commutative and associative, so any order of the
    # rules and of the observations gives the same K, conflict, Bel and Pl
    extra = tuple(tuple(f"x{k}v{i}" for i in range(n)) for k, n in enumerate(extra_axes))
    axes = DstAxes(AtomFrame(TPAXES.axes.axes + extra), TPAXES.literal_map)
    rules = triangle_rules(*eps) + tuple(WeightedRule(*rule) for rule in extra_rules)
    observations = (P & B, *extra_observations)
    queries = (F, NF, P & B, (P & NF) | B)

    def dst(rules, observations):
        scenario = Scenario(
            TPMODEL, rules, observations, queries, engines=("dst",), dst_axes=axes
        )
        result = run_scenario(scenario).engine("dst")
        if result.status == "ok":
            # both are fsums of non-negative masses, and Pl's focals include Bel's
            assert all(row.bel <= row.pl for row in result.queries)
        return result

    try:
        result = dst(rules, observations)
    except ValueError:
        assume(False)  # an extra input the model contradicts
    permuted = dst(
        tuple(data.draw(st.permutations(rules))), tuple(data.draw(st.permutations(observations)))
    )
    # as in test_dst_engine_matches_lattice_dempster: each order's rounding error is divided by K
    assume(result.status == "inconsistent" or result.normalization_constant >= 1e-3)
    assert permuted.status == result.status
    if result.status == "inconsistent":
        return
    assert permuted.conflict_mass == pytest.approx(result.conflict_mass, **APPROX)
    assert permuted.normalization_constant == pytest.approx(result.normalization_constant, **APPROX)
    for got, want in zip(permuted.queries, result.queries):
        assert got.bel == pytest.approx(want.bel, **APPROX)
        assert got.pl == pytest.approx(want.pl, **APPROX)


def free_axes(names):
    """One binary axis per singleton: the atoms are the Venn regions (and the
    one where no singleton holds), so no axis implies any constraint."""
    return {"axes": [[n, f"{n}_"] for n in names], "map": {n: [i, 0] for i, n in enumerate(names)}}


def assert_matches_naive_dst(scenario, result):
    fused, conflict, k, intervals = oracle.naive_dst(scenario)
    assert result.status == "ok"
    got = {frozenset(oracle.atoms_of(focal)): m for focal, m in result.fused.masses.items()}
    assert got.keys() == fused.keys()
    for focal, m in fused.items():
        assert got[focal] == pytest.approx(m, abs=1e-9)
    assert result.conflict_mass == pytest.approx(conflict, abs=1e-9)
    assert result.normalization_constant == pytest.approx(k, abs=1e-9)
    for row, (bel, pl) in zip(result.queries, intervals, strict=True):
        assert (row.bel, row.pl) == pytest.approx((bel, pl), abs=1e-9)


def test_dst_honours_a_constraint_its_axes_do_not_imply():
    # nothing in the atoms keeps a and b apart, but the model does: the rule
    # c→a then leaves b plausible only where c fails, as dsm has it
    scenario = parse_scenario(
        json.dumps(
            {
                "frame": ["a", "b", "c"],
                "constraints": [["a", "b"]],
                "rules": [{"if": [["c"]], "then": [["a"]], "weight": 0.9}],
                "observations": [],
                "queries": [[["a", "b"]], [["b"]]],
                "engines": ["dst", "dsm"],
                "dst_axes": free_axes("abc"),
            }
        )
    )
    dst, dsm = run_scenario(scenario).results
    want = [(0.0, 0.0), (0.0, pytest.approx(0.1, **APPROX))]
    assert [(row.bel, row.pl) for row in dst.queries] == want
    assert [(row.bel, row.pl) for row in dsm.queries] == want
    assert_matches_naive_dst(scenario, dst)


def test_dst_skips_a_constraint_on_a_singleton_it_does_not_map():
    # every singleton a rule, observation or query uses is mapped, so c∩d,
    # which names the unused d, touches no focal
    draw = {
        "frame": ["a", "b", "c", "d"],
        "constraints": [["a", "b"]],
        "rules": [{"if": [["c"]], "then": [["a"]], "weight": 0.9}],
        "observations": [],
        "queries": [[["a", "b"]], [["b"]]],
        "engines": ["dst"],
        "dst_axes": free_axes("abc"),
    }
    without = run_scenario(parse_scenario(json.dumps(draw))).engine("dst")
    draw["constraints"].append(["c", "d"])
    scenario = parse_scenario(json.dumps(draw))
    result = run_scenario(scenario).engine("dst")
    assert result == without
    assert_matches_naive_dst(scenario, result)


def test_dst_conflict_is_the_dsm_rule_stage_rerouted_mass():
    # on the atoms of free_axes, which the constraints cut down to the model's
    # regions, both engines find the same conflicting mass in the rules: dst
    # is inconsistent iff it is all of the mass, and otherwise divides the
    # rest by K, while dsm keeps the conflict on unions, so K·Bel_dst ≤ Bel_dsm
    statuses = []
    for draw in generated():
        draw.update(observations=[], engines=["dst", "dsm"], dst_axes=free_axes(draw["frame"]))
        try:
            scenario = parse_scenario(json.dumps(draw))
        except ValueError:  # an impossible antecedent, or a rule the constraints contradict
            continue
        dst, dsm = run_scenario(scenario).results
        statuses.append(dst.status)
        assert_dst_is_the_dsm_rule_stage(scenario, dst, dsm)
    assert (statuses.count("ok"), statuses.count("inconsistent")) == (919, 661)


def assert_dst_is_the_dsm_rule_stage(scenario, dst, dsm):
    """dst is inconsistent iff the dsm rule stage reroutes all of the mass;
    otherwise dst's conflict is that rerouted mass, K·Bel_dst ≤ Bel_dsm for
    every query, and dst matches the atom-set reference."""
    (conflict,) = dsm.stage_conflicts
    assert (dst.status == "inconsistent") == (conflict == pytest.approx(1.0, abs=1e-9))
    if dst.status == "inconsistent":
        with pytest.raises(ZeroDivisionError):
            oracle.naive_dst(scenario)
        return
    assert_matches_naive_dst(scenario, dst)
    assert dst.conflict_mass == pytest.approx(conflict, abs=1e-9)
    for row, dsm_row in zip(dst.queries, dsm.queries, strict=True):
        assert row.bel * dst.normalization_constant <= dsm_row.bel + 1e-9


@settings(max_examples=200)
@given(dst_identity_scenarios())
def test_dst_conflict_is_the_dsm_rule_stage_rerouted_mass_on_random_models(scenario):
    # the property above on random pair and triple constraints and random rules
    assert_dst_is_the_dsm_rule_stage(scenario, *run_scenario(scenario).results)


# ---------------------------------------------------------------- bayes engine


def test_bayes_engine_estimates():
    e1, e2, e3 = 0.1, 0.2, 0.3
    result = run_scenario(tp2_scenario(e1, e2, e3, engines=("bayes",))).engine("bayes")
    assert result.status == "ok"
    by_query = {str(row.query): row for row in result.queries}
    assert by_query["f"].estimate == pytest.approx(e1 * (1 - e2) / (1 - e3), **APPROX)
    assert by_query["nf"].estimate == pytest.approx((1 - e1) * e2 / (1 - e3), **APPROX)
    assert by_query["f"].bel is None
    assert float(result.estimates.bound) == pytest.approx(e1 / (1 - e3), **APPROX)


def test_bayes_matching_ignores_rule_order():
    rules = triangle_rules(0.1, 0.2, 0.3)
    for order in ((2, 0, 1), (1, 2, 0)):
        scenario = Scenario(
            TPMODEL,
            tuple(rules[i] for i in order),
            (P & B,),
            (F, NF),
            engines=("bayes",),
        )
        result = run_scenario(scenario).engine("bayes")
        assert result.status == "ok"
        assert {str(r.query): r.estimate for r in result.queries} == {
            "f": pytest.approx(0.1 * 0.8 / 0.7),
            "nf": pytest.approx(0.9 * 0.2 / 0.7),
        }


def test_bayes_unmatched_query_gets_a_note():
    scenario = Scenario(
        TPMODEL,
        triangle_rules(0.1, 0.2, 0.3),
        (P & B,),
        (F, P & B),
        engines=("bayes",),
    )
    rows = run_scenario(scenario).engine("bayes").queries
    assert rows[0].estimate is not None
    assert rows[1].estimate is None and "no closed-form" in rows[1].note


def test_bayes_requires_triangle_shape():
    # two rules only
    scenario = Scenario(
        TPMODEL, triangle_rules(0.1, 0.2, 0.3)[:2], (P & B,), (F,), engines=("bayes",)
    )
    assert run_scenario(scenario).engine("bayes").status == "not_applicable"
    # observation that is not the joint antecedent
    scenario = tp2_scenario(0.1, 0.2, 0.3, engines=("bayes",), observations=(P,))
    assert run_scenario(scenario).engine("bayes").status == "not_applicable"
    # consequents that are not exclusive under the model
    rules = (WeightedRule(P, F, 0.9), WeightedRule(B, F, 0.8), WeightedRule(P, B, 0.7))
    scenario = Scenario(TPMODEL, rules, (P & B,), (F,), engines=("bayes",))
    assert run_scenario(scenario).engine("bayes").status == "not_applicable"


def test_bayes_chain_weight_zero_is_not_applicable():
    result = run_scenario(tp2_scenario(0.1, 0.2, 1.0, engines=("bayes",))).engine("bayes")
    assert result.status == "not_applicable"
    assert any("weight 0" in flag for flag in result.flags)


def test_bayes_surfaces_range_violations():
    result = run_scenario(tp2_scenario(0.9, 0.1, 0.95, engines=("bayes",))).engine("bayes")
    assert result.status == "ok"
    assert any("outside [0, 1]" in flag for flag in result.flags)


TRIFRAME = Frame(("p", "b", "f", "nf", "u"))


@st.composite
def near_triangles(draw):
    """Three rules and one observation around the triangle x→cx, y→cy, x→y with x∧y observed.

    The five names are relabelled and the rules shuffled.  Each antecedent may
    be padded with f∩nf, which leaves it equal only when f∩nf is a constraint,
    and the model may leave that constraint out.  Near misses: a swapped or non-exclusive
    consequent, a consequent f∩nf on a weight-0 rule, x = y, a chain to
    another name, and an observation other than x∩y.
    """
    names = draw(st.permutations(TRIFRAME.names))
    p, b, f, nf, u = (TRIFRAME.singleton(name) for name in names)
    clash = f & nf

    def side(prop):
        return draw(st.sampled_from((prop, prop | clash)))

    def weight(consequent):
        if consequent == clash:  # a weight above 0 on a consequent reducing to ∅ is refused
            return 0.0
        return draw(st.sampled_from((0.0, 0.5, 0.9, 1.0)) | st.floats(0.0, 1.0))

    x = p
    y = draw(st.sampled_from((b, b, b, p)))
    cx = draw(st.sampled_from((nf, nf, nf, nf, f, clash, u)))
    cy = draw(st.sampled_from((f, f, f, f, nf, clash, b)))
    chain = draw(st.sampled_from((y, y, y, u)))
    rules = [
        WeightedRule(side(x), cx, weight(cx)),
        WeightedRule(side(y), cy, weight(cy)),
        WeightedRule(side(x), side(chain), weight(chain)),
    ]
    order = draw(st.permutations(range(3)))
    obs = draw(st.sampled_from((x & y, x & y, x & y, (x & y) | clash, x, y, x & y & u)))
    pool = (f, nf, f | clash, clash, cx, cy, x & y, u)
    queries = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)))
    # by role: 0 p, 1 b, 2 f, 3 nf, 4 u
    clashes = draw(st.sampled_from(([(2, 3)], [(2, 3)], [(2, 3)], [])))
    extra = draw(st.lists(st.sampled_from([(2, 4), (3, 4), (1, 2, 4)]), max_size=2))
    model = Model.from_constraints(
        TRIFRAME, [[TRIFRAME.index(names[role]) for role in c] for c in clashes + extra]
    )
    return Scenario(model, tuple(rules[i] for i in order), (obs,), queries, engines=("bayes",))


@settings(max_examples=400)
@given(near_triangles())
def test_bayes_match_agrees_with_the_reference(scenario):
    # the mask match must pick the reference's permutation, estimates and query rows
    assert run_scenario(scenario).engine("bayes") == oracle.run_bayes(scenario)


@pytest.mark.parametrize(
    "order, line",
    [
        ((0, 1, 2), "bayes estimates: p_fly=0.114285714286 p_not_fly=0.257142857143 additivity_deficit=0.628571428571 bound=0.142857142857"),
        ((1, 0, 2), "bayes estimates: p_fly=0.257142857143 p_not_fly=0.114285714286 additivity_deficit=0.628571428571 bound=0.285714285714"),
    ],
    ids=["declared", "first-two-swapped"],
)
def test_bayes_match_with_x_equal_to_y_takes_the_first_permutation(order, line):
    # p→nf, p→f and p→p with p observed: both consequent rules fit rule x and
    # rule y, so the first fitting permutation, in rule order, decides
    rules = (WeightedRule(P, NF, 0.9), WeightedRule(P, F, 0.8), WeightedRule(P, P, 0.7))
    scenario = Scenario(TPMODEL, tuple(rules[i] for i in order), (P,), (F, NF), engines=("bayes",))
    result = run_scenario(scenario).engine("bayes")
    assert result == oracle.run_bayes(scenario)
    assert line in emit_report(run_scenario(scenario)).splitlines()


# -------------------------------------------------------------------- plumbing


def test_report_engine_lookup_and_order():
    report = run_scenario(tp2_scenario(0.1, 0.1, 0.1))
    assert [r.engine for r in report.results] == ["bayes", "dst", "dsm"]
    assert report.engine("dst").engine == "dst"
    with pytest.raises(KeyError):
        report.engine("tbm")


def test_report_json_shape():
    blob = run_scenario(tp2_scenario(0.1, 0.1, 0.1)).to_json()
    assert [r["engine"] for r in blob["results"]] == ["bayes", "dst", "dsm"]
    dsm = blob["results"][2]
    assert dsm["fused"]["masses"]
    assert dsm["queries"][0]["query"] == [["f"]]
    assert blob["results"][0]["estimates"]["additivity_deficit"] == pytest.approx(0.8)
