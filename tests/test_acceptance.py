"""Acceptance checklist for the fusion engine, one test per numbered criterion.

Each test gathers all of its sub-checks before asserting, so a red criterion
reports every failing clause at once instead of stopping at the first.  The
terminal summary (see conftest) echoes one PASS/FAIL line per criterion.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import oracle
import test_belief
import test_lattice
from test_cli import run_main

from hyperbelief import (
    AtomFrame,
    BBA,
    DstAxes,
    Frame,
    Model,
    Scenario,
    TotalConflictError,
    WeightedRule,
    belief,
    canonicalize,
    conjunctive_combine,
    dempster_combine,
    dsm_hybrid_combine,
    enumerate_hyper_power_set,
    plausibility,
    reduce_under_model,
    rule_to_conditional_bba,
    run_scenario,
    total_ignorance,
)
from hyperbelief.analysis import (
    CLASSICAL_PRINCIPLES,
    indifference_estimates,
    modus_tollens_posteriors,
    pearl_flying_bound,
    tautology_check,
)
from hyperbelief.cli import main

GRID = (1e-3, 1e-2, 0.05, 0.1, 0.3)

TPFRAME = Frame(("p", "b", "f", "nf"))
P, B, F, NF = (TPFRAME.singleton(name) for name in TPFRAME.names)
TPMODEL = Model.from_constraints(TPFRAME, [(2, 3)])
TPAXES = DstAxes(
    AtomFrame((("f", "nf"), ("b", "b'"), ("p", "p'"))),
    {"f": (0, 0), "nf": (0, 1), "b": (1, 0), "p": (2, 0)},
)
TP2_TEXT = (Path(__file__).resolve().parent.parent / "scenarios" / "tp2.json").read_text(
    encoding="utf-8"
)


class Checklist:
    """Collects named sub-checks so a criterion reports every failing clause."""

    def __init__(self, number, title):
        self.number = number
        self.title = title
        self.failed = []

    def check(self, label, ok):
        if not ok:
            self.failed.append(label)
        return ok

    def conclude(self):
        verdict = "PASS" if not self.failed else "FAIL"
        print(f"criterion {self.number} ({self.title}): {verdict}")
        for label in self.failed:
            print(f"  - {label}")
        assert not self.failed, f"criterion {self.number}: " + " | ".join(self.failed)


def triangle_rules(e1, e2, e3):
    return (
        WeightedRule(P, NF, 1 - e1),
        WeightedRule(B, F, 1 - e2),
        WeightedRule(P, B, 1 - e3),
    )


def triangle_sources(e1, e2, e3):
    return tuple(
        rule_to_conditional_bba(rule, TPMODEL)
        for rule in triangle_rules(e1, e2, e3)
    )


def tp2_scenario(e1, e2, e3, engines):
    return Scenario(
        model=TPMODEL,
        rules=triangle_rules(e1, e2, e3),
        observations=(P & B,),
        queries=(F, NF),
        engines=engines,
        dst_axes=TPAXES if "dst" in engines else None,
    )


def dst_intervals(e1, e2, e3=0.1):
    """Run the refined-frame engine and return ([Bel,Pl](f), [Bel,Pl](nf))."""
    rows = run_scenario(tp2_scenario(e1, e2, e3, engines=("dst",))).engine("dst").queries
    return (rows[0].bel, rows[0].pl), (rows[1].bel, rows[1].pl)


# --------------------------------------------------------------------- 1


def test_criterion_1_hyper_power_set_counts():
    cl = Checklist(1, "hyper-power set cardinalities and timing")
    sizes, timings = {}, {}
    for n, names in ((2, "ab"), (3, "abc"), (4, "abcd"), (5, "abcde")):
        start = time.perf_counter()
        sizes[n] = len(enumerate_hyper_power_set(Frame(tuple(names))))
        timings[n] = time.perf_counter() - start
    cl.check(f"n=2 enumerates 5 (got {sizes[2]})", sizes[2] == 5)
    cl.check(f"n=3 enumerates 19 (got {sizes[3]})", sizes[3] == 19)
    cl.check(f"n=4 enumerates 167 (got {sizes[4]})", sizes[4] == 167)
    cl.check(f"n=4 in under 1 s (took {timings[4]:.3f} s)", timings[4] < 1.0)
    cl.check(f"n=5 enumerates 7580 (got {sizes[5]})", sizes[5] == 7580)
    cl.check(f"n=5 in under 10 s (took {timings[5]:.3f} s)", timings[5] < 10.0)
    cl.conclude()


# --------------------------------------------------------------------- 2


def test_criterion_2_dempster_closed_forms():
    cl = Checklist(2, "refined-frame Dempster closed forms")
    worst = 0.0
    for e1, e2 in product(GRID, GRID):
        k12 = e1 + e2 - e1 * e2
        (bel_f, pl_f), (bel_nf, pl_nf) = dst_intervals(e1, e2)
        for got, want in (
            (bel_f, e1 * (1 - e2) / k12),
            (pl_f, e1 / k12),
            (bel_nf, e2 * (1 - e1) / k12),
            (pl_nf, e2 / k12),
        ):
            worst = max(worst, abs(got - want))
    cl.check(
        f"all four closed forms within 1e-12 over the 25-point grid (worst dev {worst:.2e})",
        worst <= 1e-12,
    )
    (bel_f, _), _ = dst_intervals(0.01, 0.001)
    cl.check(
        f"weight inversion: Bel(f) = {bel_f:.6f} within 1e-4 of 0.9090",
        abs(bel_f - 0.9090) <= 1e-4,
    )
    cl.conclude()


# --------------------------------------------------------------------- 3


def test_criterion_3_hybrid_closed_forms():
    cl = Checklist(3, "constrained hybrid closed forms")
    h1 = (B & F) | P
    h2 = (P & NF) | (B & F) | (P & B)
    worst_mass = worst_bel = worst_pl_f = worst_pl_nf = 0.0
    wrong_focal_counts = 0
    for e1, e2, e3 in product(GRID, GRID, GRID):
        fused = dsm_hybrid_combine(triangle_sources(e1, e2, e3)).result
        expected = {
            h1: (1 - e1) * (1 - e2) * e3,
            h2: (1 - e1) * (1 - e2) * (1 - e3),
            P & B & NF: (1 - e1) * e2,
            P & B & F: e1 * (1 - e2),
            P & B: e1 * e2,
        }
        if len(fused.focals()) != len(expected):
            wrong_focal_counts += 1
        for prop, want in expected.items():
            worst_mass = max(worst_mass, abs(fused.mass(prop) - want))
        worst_bel = max(
            worst_bel,
            abs(belief(fused, F) - e1 * (1 - e2)),
            abs(belief(fused, NF) - e2 * (1 - e1)),
        )
        worst_pl_f = max(worst_pl_f, abs(plausibility(fused, F) - (1 - e2)))
        worst_pl_nf = max(worst_pl_nf, abs(plausibility(fused, NF) - (1 - e1)))
    cl.check(
        f"five hybrid masses within 1e-12 at all 125 grid points (worst dev {worst_mass:.2e})",
        worst_mass <= 1e-12 and wrong_focal_counts == 0,
    )
    cl.check(
        f"Bel(f) = e1(1-e2) and Bel(nf) = e2(1-e1) (worst dev {worst_bel:.2e})",
        worst_bel <= 1e-12,
    )
    # The fused focal p-and-b (mass e1*e2) intersects both f and nf, so the
    # engine's plausibilities are 1-e2+e1*e2 and 1-e1+e1*e2; the stated forms
    # drop that second-order term and fail by exactly e1*e2 at every point.
    cl.check(
        f"Pl(f) = 1-e2 (worst dev {worst_pl_f:.2e}; engine keeps the e1*e2 mass on p-and-b)",
        worst_pl_f <= 1e-12,
    )
    cl.check(
        f"Pl(nf) = 1-e1 (worst dev {worst_pl_nf:.2e}; engine keeps the e1*e2 mass on p-and-b)",
        worst_pl_nf <= 1e-12,
    )
    for (e1, e2), target in (((0.0, 1.0), NF), ((1.0, 0.0), F)):
        fused = dsm_hybrid_combine(triangle_sources(e1, e2, 0.1)).result
        interval = (belief(fused, target), plausibility(fused, target))
        cl.check(
            f"degenerate (e1,e2)=({e1:g},{e2:g}) gives [Bel,Pl]({target}) = [1,1] (got {interval})",
            abs(interval[0] - 1.0) <= 1e-12 and abs(interval[1] - 1.0) <= 1e-12,
        )
    cl.conclude()


# --------------------------------------------------------------------- 4


def test_criterion_4_bayesian_estimates():
    cl = Checklist(4, "fallacious Bayesian closed forms, exact arithmetic")
    bound_exact = identities_exact = True
    for e1, e3 in product(GRID, (0.0, 0.1, 0.3)):
        if pearl_flying_bound(e1, e3) != Fraction(e1) / (1 - Fraction(e3)):
            bound_exact = False
    for e1, e2, e3 in product(GRID, GRID, (0.0, 0.1, 0.3)):
        est = indifference_estimates(e1, e2, e3)
        if est.p_fly * (1 - Fraction(e3)) != Fraction(e1) * (1 - Fraction(e2)):
            identities_exact = False
        if est.p_not_fly * (1 - Fraction(e3)) != (1 - Fraction(e1)) * Fraction(e2):
            identities_exact = False
    cl.check("pearl_flying_bound equals e1/(1-e3) exactly on the grid", bound_exact)
    cl.check("both product identities hold exactly on the grid", identities_exact)
    deficit = indifference_estimates(1e-3, 1e-3, 1e-3).additivity_deficit
    cl.check(
        f"additivity deficit {float(deficit):.6f} > 0.99 at e=1e-3 each",
        deficit > Fraction("0.99"),
    )
    rng = random.Random(4801)
    exact_pairs = all(
        modus_tollens_posteriors(w, 0.5, 0.5).pair == (Fraction(w), 1 - Fraction(w))
        for w in (rng.random() for _ in range(100))
    )
    cl.check("modus_tollens_posteriors(w, 0.5, 0.5) = (w, 1-w) for 100 random w", exact_pairs)
    cl.conclude()


# --------------------------------------------------------------------- 5


def test_criterion_5_first_order_approximation():
    cl = Checklist(5, "small-epsilon agreement with e1/(e1+e2)")
    for e1, e2 in ((1e-4, 1e-4), (1e-4, 2e-5), (5e-5, 1e-4), (1e-5, 3e-5)):
        (bel_f, _), _ = dst_intervals(e1, e2)
        approx = e1 / (e1 + e2)
        rel = abs(bel_f - approx) / approx
        cl.check(
            f"e=({e1:g},{e2:g}): relative error {rel:.2e} < 1e-3",
            rel < 1e-3,
        )
    cl.conclude()


# --------------------------------------------------------------------- 6


def _random_model(rng):
    n = rng.randint(1, 3)
    frame = Frame(("a", "b", "c")[:n])
    candidates = [
        frozenset(c) for k in range(2, n + 1) for c in combinations(range(n), k)
    ]
    return Model.from_constraints(frame, [c for c in candidates if rng.random() < 0.4])


def _random_bba(rng, model, allow_conflict_mass):
    frame = model.frame
    n = len(frame)
    focals = {}
    for _ in range(rng.randint(1, 4)):
        terms = [
            frozenset(rng.sample(range(n), rng.randint(1, n)))
            for _ in range(rng.randint(1, 3))
        ]
        prop = reduce_under_model(canonicalize(frame, terms), model)
        if prop.is_empty and not allow_conflict_mass:
            continue
        focals[prop] = focals.get(prop, 0.0) + rng.uniform(0.01, 1.0)
    if not focals:
        focals[reduce_under_model(total_ignorance(frame), model)] = 1.0
    total = sum(focals.values())
    return BBA(model, {p: m / total for p, m in focals.items()})


def _regions(result, model):
    return {oracle.semantic(key, model): mass for key, mass in result.items()}


def _mismatch(got, want, tol=1e-9):
    return any(
        abs(got.get(key, 0.0) - want.get(key, 0.0)) > tol for key in set(got) | set(want)
    )


def test_criterion_6_oracle_equivalence():
    cl = Checklist(6, "randomized equivalence with the brute-force reference")
    rng = random.Random(74803)
    bad = []
    for case in range(250):
        model = _random_model(rng)
        sources = tuple(
            _random_bba(rng, model, allow_conflict_mass=case % 3 == 0)
            for _ in range(rng.choice((2, 3)))
        )
        dicts = [dict(s.items()) for s in sources]

        conj = conjunctive_combine(sources)
        want, want_conflict = oracle.naive_conjunctive(model, dicts)
        got = _regions(conj.result, model)
        if conj.conflict_mass:
            got[frozenset()] = conj.result.mass_on_empty()
        if _mismatch(got, want) or abs(conj.conflict_mass - want_conflict) > 1e-9:
            bad.append(f"case {case}: conjunctive")

        try:
            want_dempster, _ = oracle.naive_dempster(model, dicts)
        except ZeroDivisionError:
            try:
                dempster_combine(sources)
                bad.append(f"case {case}: dempster missed total conflict")
            except TotalConflictError:
                pass
        else:
            got_dempster = _regions(dempster_combine(sources).result, model)
            if _mismatch(got_dempster, want_dempster):
                bad.append(f"case {case}: dempster")

        hybrid = dsm_hybrid_combine(sources)
        want_hybrid, _ = oracle.naive_hybrid(model, dicts)
        if _mismatch(_regions(hybrid.result, model), want_hybrid):
            bad.append(f"case {case}: hybrid")
    cl.check(
        "250 random pair/triple fusions match the reference within 1e-9 per focal"
        + ("" if not bad else f" (first failures: {bad[:3]})"),
        not bad,
    )

    exact = True
    for _ in range(40):
        frame = Frame(("a", "b", "c")[: rng.randint(1, 3)])
        model = Model.free(frame)
        sources = tuple(
            _random_bba(rng, model, allow_conflict_mass=False)
            for _ in range(rng.choice((2, 3)))
        )
        if dsm_hybrid_combine(sources).result.masses != conjunctive_combine(sources).result.masses:
            exact = False
    cl.check("free-model hybrid equals conjunctive exactly on 40 random cases", exact)
    cl.conclude()


# --------------------------------------------------------------------- 7


LAW_PROPERTIES = (
    test_lattice.test_conjoin_and_disjoin_commute,
    test_lattice.test_conjoin_and_disjoin_associate,
    test_lattice.test_absorption_laws,
    test_lattice.test_distributivity,
    test_lattice.test_canonicalize_is_idempotent,
    test_belief.test_combined_output_is_normalized_on_reduced_keys,
    test_belief.test_belief_never_exceeds_plausibility,
    test_belief.test_powerset_duality_on_exclusive_frames,
    test_belief.test_pairwise_combination_commutes_exactly,
    test_belief.test_dempster_is_associative,
)


def test_criterion_7_algebraic_law_suite():
    cl = Checklist(7, "algebraic-law property suite")
    for law in LAW_PROPERTIES:
        try:
            law()
        except Exception as exc:  # noqa: BLE001 — any failure flips the criterion
            cl.check(f"{law.__name__}: {exc!r}", False)
    cl.conclude()


# --------------------------------------------------------------------- 8


def test_criterion_8_logic_suite(capsys):
    cl = Checklist(8, "classical-principle tautologies")
    for name, text in CLASSICAL_PRINCIPLES.items():
        cl.check(f"{name} ({text}) is a tautology", tautology_check(text))
    code = main(["check-logic"])
    capsys.readouterr()
    cl.check(f"check-logic exits 0 (got {code})", code == 0)
    cl.conclude()


# --------------------------------------------------------------------- 9


def test_criterion_9_consistency_signaling():
    cl = Checklist(9, "degenerate certainty is signaled, not hidden")
    blob = json.loads(TP2_TEXT)
    blob["rules"][0]["weight"] = 1.0
    blob["rules"][1]["weight"] = 1.0
    code, out, _ = run_main(["fuse", "-", "--engine", "dst"], json.dumps(blob))
    cl.check(f"dst exits 3 on the all-certain triangle (got {code})", code == 3)
    cl.check("dst output carries an 'inconsistent' flag", "inconsistent" in out)

    dsm = run_scenario(tp2_scenario(0.0, 0.0, 0.1, engines=("dsm",))).engine("dsm")
    cl.check(
        f"dsm reports conflict_mass ~ 1 (got {dsm.conflict_mass:.3f})",
        abs(dsm.conflict_mass - 1.0) <= 1e-9,
    )
    for row in dsm.queries:
        cl.check(
            f"dsm [Bel,Pl]({row.query}) ~ [0,1] (got [{row.bel:.3f},{row.pl:.3f}])",
            abs(row.bel) <= 1e-9 and abs(row.pl - 1.0) <= 1e-9,
        )
    cl.conclude()
