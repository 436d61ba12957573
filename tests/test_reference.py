"""Whole-scenario differential: random dsm and dst scenarios through ``fuse``
against ``perfbench/reference.py``, which reads the scenario JSON and does not
import the package."""

import importlib.util
import json
import random
from functools import cache

import oracle
import pytest
from harness import DST_AXES, NAMES, ROOT, generated, run_main
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbelief.cli import EXIT_INCONSISTENT, EXIT_INPUT_ERROR, EXIT_OK, parse_scenario


@cache
def _load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fuse(text: str, engine: str = "dsm") -> tuple[int, str, str]:
    return run_main(["fuse", "-", "--engine", engine, "--format", "json"], text)


def test_generated_dsm_scenarios_match_the_reference():
    # the reference's checker compares every fused mass, Bel, Pl and the
    # largest stage conflict at its 1e-9 tolerance
    checker = _load_reference().Checker()
    valid, wrong = 0, []
    for i, scenario in enumerate(generated()):
        text = json.dumps(scenario)
        code, out, err = fuse(text)
        if code == EXIT_INPUT_ERROR:  # an impossible antecedent, or a rule the constraints contradict
            assert err.startswith("error: rules[") or err.startswith("error: observations["), err
            continue
        valid += 1
        problem = checker.check({"file": text, "expect": {"kind": "ok", "fmt": "json"}}, code, out, err)
        if problem:
            wrong.append((i, problem))
    assert valid == 1548
    assert wrong == []


def test_generated_dst_scenarios_match_the_reference():
    # the same draws on the atom frame of DST_AXES: the checker compares every
    # fused mass, Bel, Pl, the conflict and K, and exit 3 where the reference
    # finds total conflict
    checker = _load_reference().Checker()
    codes, wrong = [], []
    for i, scenario in enumerate(generated(engine="dst")):
        text = json.dumps(scenario)
        code, out, err = fuse(text, "dst")
        codes.append(code)
        if code == EXIT_INPUT_ERROR:  # the same scenarios as under dsm
            assert err.startswith("error: rules[") or err.startswith("error: observations["), err
            continue
        problem = checker.check({"file": text, "expect": {"kind": "ok", "fmt": "json"}}, code, out, err)
        if problem:
            wrong.append((i, problem))
    assert (codes.count(EXIT_OK), codes.count(EXIT_INCONSISTENT)) == (307, 1241)
    assert wrong == []


@pytest.mark.parametrize("path", sorted((ROOT / "scenarios").glob("*.json")), ids=lambda path: path.stem)
def test_the_scenario_files_match_the_references(path):
    # dsm against the reference's dsm_reference; dst against oracle.naive_dst,
    # which starts from the atoms the declared constraints allow, as the engine
    # does: dst_reference starts from every atom, and the axes of
    # exclusive_antecedents.json do not imply its constraint a∩d
    blob = json.loads(path.read_text(encoding="utf-8"))
    text = json.dumps({**blob, "engines": ["dsm"]})
    code, out, err = fuse(text)
    assert _load_reference().Checker().check({"file": text, "expect": {"kind": "ok", "fmt": "json"}}, code, out, err) is None

    scenario = parse_scenario(json.dumps(blob))
    code, out, err = fuse(json.dumps(blob), "dst")
    (result,) = json.loads(out)["results"]
    try:
        fused, conflict, k, intervals = oracle.naive_dst(scenario)
    except ZeroDivisionError:
        assert (code, result["status"]) == (EXIT_INCONSISTENT, "inconsistent")
        return
    assert (code, err, result["status"]) == (EXIT_OK, "", "ok")
    axes = scenario.dst_axes.axes
    atom = {axes.atom_name(i): i for i in range(axes.atom_count)}
    got = {frozenset(atom[name] for (name,) in focal["prop"]): focal["mass"] for focal in result["fused"]["masses"]}
    assert got.keys() == fused.keys()
    assert [got[focal] for focal in fused] == pytest.approx(list(fused.values()), abs=1e-9)
    assert (result["conflict_mass"], result["normalization_constant"]) == pytest.approx((conflict, k), abs=1e-9)
    for row, interval in zip(result["queries"], intervals, strict=True):
        assert (row["bel"], row["pl"]) == pytest.approx(interval, abs=1e-9)


def answers(out: str) -> list:
    """Each engine's conflicts, K and query Bel and Pl in a ``--format json`` report."""
    return [
        (r["conflict_mass"], r["stage_conflicts"], r["normalization_constant"], [(q["bel"], q["pl"]) for q in r["queries"]])
        for r in json.loads(out)["results"]
    ]


def focals(out: str, scale: int = 1) -> list:
    """Each engine's fused focals in a ``--format json`` report, as (atom count × scale, mass)."""
    return [
        [(len(focal["prop"]) * scale, focal["mass"]) for focal in (r["fused"] or {"masses": []})["masses"]]
        for r in json.loads(out)["results"]
    ]


# Two laws of the rules hold exactly, compared with ==, on the seed-7
# generator: a frame singleton that nothing mentions changes no dsm Bel, Pl or
# conflict, and an axis that no singleton maps to changes no dst Bel, Pl,
# conflict or K and doubles every fused focal's atoms.  A third, that
# reversing the rules changes nothing, does not hold yet: each stage rounds to
# floats, and reversal moves some value in 624 dsm and 62 dst scenarios.  It
# waits for exact masses.
@pytest.mark.parametrize(
    ("engine", "field", "wider"),
    [("dsm", "frame", [*NAMES, "g"]), ("dst", "dst_axes", {**DST_AXES, "axes": [*DST_AXES["axes"], ["g", "g_"]]})],
    ids=["dsm-unused-singleton", "dst-unused-axis"],
)
def test_an_unused_singleton_or_axis_changes_no_answer(engine, field, wider):
    valid, differ = 0, []
    for i, scenario in enumerate(generated(engine=engine)):
        code, out, _ = fuse(json.dumps(scenario), engine)
        if code == EXIT_INPUT_ERROR:
            continue
        valid += 1
        again = fuse(json.dumps({**scenario, field: wider}), engine)
        if again[0] != code or answers(again[1]) != answers(out) or engine == "dst" and focals(again[1]) != focals(out, 2):
            differ.append(i)
    assert (valid, differ) == (1548, [])


def relabelled_triangles(seed: int = 11, count: int = 2000) -> list[tuple[dict, tuple[float, float, float]]]:
    """Penguin triangles under other names, each with its (e1, e2, e3).

    Four distinct names of NAMES play p, b, nf and f.  The rules p→nf, b→f
    and p→b weigh 1 - e1, 1 - e2 and 1 - e3, each ε from U(0.001, 0.999), and
    come in a shuffled order.  nf and f exclude each other, p∩b is observed,
    and f then nf are queried.
    """
    rng = random.Random(seed)
    triangles = []
    for _ in range(count):
        p, b, nf, f = rng.sample(NAMES, 4)
        eps = tuple(rng.uniform(0.001, 0.999) for _ in range(3))
        rules = [
            {"if": [[p]], "then": [[nf]], "weight": 1 - eps[0]},
            {"if": [[b]], "then": [[f]], "weight": 1 - eps[1]},
            {"if": [[p]], "then": [[b]], "weight": 1 - eps[2]},
        ]
        rng.shuffle(rules)
        scenario = {
            "frame": list(NAMES),
            "constraints": [[nf, f]],
            "rules": rules,
            "observations": [[[p, b]]],
            "queries": [[[f]], [[nf]]],
            "engines": ["bayes"],
        }
        triangles.append((scenario, eps))
    return triangles


def test_relabelled_triangles_match_the_bayes_reference():
    # whatever the names and the rule order, bayes finds the triangle and gives
    # the chain-rule estimates of its three weakenings
    checker = _load_reference().Checker()
    wrong = []
    for i, (scenario, eps) in enumerate(relabelled_triangles()):
        text = json.dumps(scenario)
        code, out, err = fuse(text, "bayes")
        problem = checker.check({"file": text, "expect": {"kind": "ok", "fmt": "json", "eps": eps}}, code, out, err)
        if problem:
            wrong.append((i, problem))
    assert wrong == []


def test_a_triangle_without_a_rule_or_its_observation_is_not_applicable():
    for scenario, _ in relabelled_triangles(count=100):
        cut = [{**scenario, "rules": scenario["rules"][:i] + scenario["rules"][i + 1 :]} for i in range(3)]
        for broken in (*cut, {**scenario, "observations": []}):
            code, out, err = fuse(json.dumps(broken), "bayes")
            assert (code, err) == (EXIT_OK, "")
            assert [result["status"] for result in json.loads(out)["results"]] == ["not_applicable"]


_NAME = st.sampled_from(NAMES)
_PAIR = st.lists(_NAME, min_size=2, max_size=2, unique=True)
# a single, a two-way ∩ or a two-way ∪, as in generated()
_PROPOSITION = _NAME.map(lambda x: [[x]]) | _PAIR.map(lambda xy: [xy]) | _PAIR.map(lambda xy: [[xy[0]], [xy[1]]])
_RULE = st.fixed_dictionaries({"if": _PROPOSITION, "then": _PROPOSITION, "weight": st.floats(0.01, 0.99)})


def drawn_scenarios(engine: str) -> st.SearchStrategy[dict]:
    """The scenarios of generated() as a strategy, so that a failure shrinks to a small one."""
    fields = {
        "frame": st.just(list(NAMES)),
        "constraints": st.just([["a", "d"], ["b", "c", "e"]]),
        "rules": st.lists(_RULE, max_size=10),
        "observations": st.lists(_PROPOSITION, max_size=2),
        "queries": st.lists(_PROPOSITION, min_size=1, max_size=6),
        "engines": st.just([engine]),
    }
    if engine == "dst":
        fields["dst_axes"] = st.just(DST_AXES)
    return st.fixed_dictionaries(fields)


@pytest.mark.parametrize("engine", ["dsm", "dst"])
@settings(max_examples=200)
@given(data=st.data())
def test_drawn_scenarios_match_the_reference(engine, data):
    text = json.dumps(data.draw(drawn_scenarios(engine)))
    code, out, err = fuse(text, engine)
    if code == EXIT_INPUT_ERROR:  # an impossible antecedent, or a rule the constraints contradict
        assert err.startswith(("error: rules[", "error: observations[")), err
        return
    problem = _load_reference().Checker().check({"file": text, "expect": {"kind": "ok", "fmt": "json"}}, code, out, err)
    assert problem is None
