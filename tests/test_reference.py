"""Whole-scenario differential: random dsm and dst scenarios through ``fuse``
against ``perfbench/reference.py``, which reads the scenario JSON and does not
import the package."""

import importlib.util
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from hyperbelief.cli import EXIT_INCONSISTENT, EXIT_INPUT_ERROR, EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
NAMES = "abcdef"
# a and d exclude each other, and so do b, c and e: the axes imply both constraints
DST_AXES = {
    "axes": [["a", "d"], ["b", "c", "e"], ["f", "f_"]],
    "map": {"a": [0, 0], "d": [0, 1], "b": [1, 0], "c": [1, 1], "e": [1, 2], "f": [2, 0]},
}


def _load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generated(seed: int = 7, count: int = 3000, engine: str = "dsm") -> list[dict]:
    """Random scenarios on six singletons with constraints a∩d and b∩c∩e.

    Each has 2-10 rules of weight U(0.01, 0.99), 0-2 observations and 6
    queries; every proposition is a single, a two-way ∩ or a two-way ∪.  With
    ``engine="dst"`` the same draws run on the engine dst and declare DST_AXES.
    """
    rng = random.Random(seed)

    def proposition() -> list[list[str]]:
        shape = rng.choice(("single", "inter", "union"))
        if shape == "single":
            return [[rng.choice(NAMES)]]
        x, y = rng.sample(NAMES, 2)
        return [[x, y]] if shape == "inter" else [[x], [y]]

    scenarios = []
    for _ in range(count):
        rules = [
            {"if": proposition(), "then": proposition(), "weight": rng.uniform(0.01, 0.99)}
            for _ in range(rng.randint(2, 10))
        ]
        observations = [proposition() for _ in range(rng.randint(0, 2))]
        queries = [proposition() for _ in range(6)]
        scenarios.append(
            {
                "frame": list(NAMES),
                "constraints": [["a", "d"], ["b", "c", "e"]],
                "rules": rules,
                "observations": observations,
                "queries": queries,
                "engines": [engine],
            }
        )
        if engine == "dst":
            scenarios[-1]["dst_axes"] = DST_AXES
    return scenarios


def fuse(text: str, engine: str = "dsm") -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main(["fuse", "-", "--engine", engine, "--format", "json"])
    return code, out.getvalue(), err.getvalue()


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
