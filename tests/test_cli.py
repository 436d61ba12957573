"""End-to-end tests for the command-line interface."""

import copy
import errno
import hashlib
import io
import json
import math
import os
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from unittest import mock

import oracle
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperbelief import AtomFrame, BBA, Frame, Proposition, enumerate_hyper_power_set
from hyperbelief.analysis import BayesEstimates
from hyperbelief.cli import (
    EXIT_INCONSISTENT,
    EXIT_INPUT_ERROR,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_WRITE_ERROR,
    ScenarioError,
    _Stop,
    _enumeration_lines,
    _name,
    _read_argv,
    _rows,
    emit_report,
    main,
    parse_scenario,
)
from hyperbelief import cli, rulebase
from hyperbelief.lattice import _absorb, _term_order
from hyperbelief.rulebase import AtomMasses, EngineResult, FusionReport, QueryResult, run_scenario
from harness import ROOT, TP2_PATH, TP2_TEXT, run_main, run_process, tp2_scenario, tp2_with
from strategies import models, propositions


# ------------------------------------------------------------------- parsing


def test_bundled_scenario_parses():
    scenario = parse_scenario(TP2_TEXT)
    assert len(scenario.rules) == 3
    assert len(scenario.observations) == 1
    assert [str(q) for q in scenario.queries] == ["f", "nf"]
    assert scenario.engines == ("bayes", "dst", "dsm")
    assert scenario.dst_axes is not None
    assert scenario.model.kind == "hybrid"


def test_bundled_scenario_is_the_triangle_fixture():
    assert parse_scenario(TP2_TEXT) == tp2_scenario(0.1, 0.1, 0.1)


def test_engines_default_to_dsm():
    scenario = parse_scenario(
        '{"frame": ["a", "b"], "rules": [], "observations": [], "queries": [[["a"]]]}'
    )
    assert scenario.engines == ("dsm",)


@pytest.mark.parametrize(
    ("text", "needle"),
    [
        ("{nope", "not valid JSON"),
        ("[]", "scenario must be dict"),
        ('{"queries": []}', "missing required field frame"),
        ('{"frame": ["a", 3], "queries": [[["a"]]]}', "frame[1]"),
        ('{"frame": ["a", "a"], "queries": [[["a"]]]}', "frame:"),
        ('{"frame": ["a", "b∪c"], "queries": [[["a"]]]}', "frame[1]"),
        ('{"frame": ["a\\nb", "c"], "queries": [[["c"]]]}', "frame[0] must not contain a control character, got 'a\\nb'"),
        ('{"frame": ["a", "b"], "queries": [[["z"]]]}', "queries[0]"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "rules": [{"then": [["a"]], "weight": 1}]}', "missing required field rules[0].if"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "rules": [{"if": [["a"]], "then": [["b"]], "weight": "high"}]}', "rules[0].weight"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "rules": [{"if": [["a"]], "then": [["b"]], "weight": 1.2}]}', "rules[0]: "),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "constraints": [["a", "z"]]}', "constraints[0][1]: "),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "constraints": [["a"]]}', "constraints: "),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "engines": ["magic"]}', "engines[0]: unknown engine 'magic'; choose from ('bayes', 'dst', 'dsm')"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "engines": ["dst"]}', "missing required field dst_axes, which the dst engine needs"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "dst_axes": {"axes": [["x", "y"]]}}', "missing required field dst_axes.map"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "dst_axes": {"axes": [["x", "y"]], "map": {"a": [0]}}}', "dst_axes.map['a'] must be [axis, value]"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "dst_axes": {"axes": [["x∩y", "x"], ["z", "y∩z"]], "map": {}}}', "dst_axes: "),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "dst_axes": {"axes": [["x", "y"]], "map": {"a": [0, 5]}}}', "dst_axes: "),
        ('{"frame": ["a", "b"]}', "queries: "),
        ('{"frame": ["a", "b"], "queries": []}', "queries: "),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "engines": []}', "engines: "),
    ],
)
def test_parse_errors_name_the_field(text, needle):
    with pytest.raises(ScenarioError, match=None) as excinfo:
        parse_scenario(text)
    assert str(excinfo.value).startswith(needle)


def test_frame_name_with_a_connective_is_refused(tmp_path):
    cases = [
        # the table would print the singleton a∩b and the term a∩b under one label
        (
            {
                "frame": ["a∩b", "a", "b"],
                "rules": [{"if": [["a"]], "then": [["b"]], "weight": 0.9}],
                "queries": [[["a∩b"]], [["a", "b"]]],
            },
            "frame[0] must not contain ∩ or ∪",
        ),
        # the table would print the singleton ∅ and the empty proposition under one label
        ({"frame": ["∅", "a"], "queries": [[["∅"]], []]}, "frame[0] must not be ∅"),
    ]
    for scenario, message in cases:
        path = tmp_path / "ambiguous.json"
        path.write_text(json.dumps(scenario, ensure_ascii=False), encoding="utf-8")
        code, out, err = run_main(["fuse", str(path)])
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith(f"error: {message}")


def _named(name: str) -> str:
    """A scenario whose first singleton is ``name``, with one rule from it to c, and both queried."""
    return json.dumps(
        {"frame": [name, "c"], "rules": [{"if": [[name]], "then": [["c"]], "weight": 0.9}], "queries": [[["c"]], [[name]]]}
    )


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("char", ["\x00", "\t", "\n", "\x1f", "\x7f", "\x85", "\x9f"])
def test_frame_name_with_a_control_character_is_refused(char, fmt):
    # a newline would print the row of dsm a\nb over two lines, and a tab would misalign its columns
    name = f"a{char}b"
    err = f"error: frame[0] must not contain a control character, got {name!r}\n"
    assert run_main(["fuse", "-", "--format", fmt], _named(name)) == (EXIT_INPUT_ERROR, "", err)


@pytest.mark.parametrize("char", ["\u00a0", "\u2028"], ids=["no-break-space", "line-separator"])
def test_frame_name_with_a_separator_that_is_no_control_character_is_kept(char):
    code, _, err = run_main(["fuse", "-"], _named(f"a{char}b"))
    assert (code, err) == (EXIT_OK, "")


SCENARIOS = ROOT / "scenarios"
LONG = "x" * 100_000


def cut(text: str) -> str:
    """How an error message repeats a long value: its first 200 characters and its length."""
    return f"{text[:200]}… ({len(text)} characters)"


@pytest.mark.parametrize(
    ("text", "needle"),
    [
        pytest.param("[" * 100_000 + "]" * 100_000, "not valid JSON", id="nesting-past-the-recursion-limit"),
        pytest.param('{"frame": ' + "1" * 5000 + "}", "not valid JSON", id="integer-literal-of-5000-digits"),
        pytest.param(
            '{"frame": ' + "1" * 5000 + "}",
            "value has 5000 digits\n",  # and nothing after: no advice to raise Python's digit limit
            id="integer-literal-message-ends-at-the-digit-count",
        ),
        pytest.param(tp2_with(("rules", 0, "weight"), 10**400), "rules[0].weight", id="integer-weight-past-float-range"),
        *(
            pytest.param(
                tp2_with(("dst_axes", "map", "f"), [0, 0]).replace('"f": [0, 0]', f'"f": [{literal}, 0]'),
                "dst_axes.map['f'] must hold integers",
                id=f"map-coordinate-{literal}",
            )
            for literal in ("NaN", "Infinity", "-Infinity", "1e400")
        ),
        pytest.param(
            TP2_TEXT.replace('"rules": [', '"rules": [], "rules": [', 1),
            "error: key 'rules' is given twice\n",
            id="rules-given-twice",
        ),
        pytest.param(
            TP2_TEXT.replace('"weight": 0.9}', '"weight": 0.9, "weight": 0.2}', 1),
            "error: key 'weight' is given twice\n",
            id="weight-given-twice",
        ),
        pytest.param(
            TP2_TEXT.replace('"p": [2, 0]}', '"p": [2, 0], "p": [1, 1]}'),
            "error: key 'p' is given twice\n",
            id="map-key-given-twice",
        ),
        pytest.param(
            tp2_with(("dst_axes", "map", LONG), [0]).replace(f'"{LONG}": [0]', f'"{LONG}": [0], "{LONG}": [1]'),
            f"key {cut(repr(LONG))} is given twice\n",
            id="long-key-given-twice",
        ),
        pytest.param(
            tp2_with(("rules", 0, "weight"), "high"),
            "error: rules[0].weight must be a number, got 'high'\n",
            id="short-value-echoed-whole",
        ),
        pytest.param(
            tp2_with(("rules", 0, "weight"), LONG),
            f"rules[0].weight must be a number, got {cut(repr(LONG))}\n",
            id="long-weight",
        ),
        pytest.param(
            tp2_with(("queries", 0, 0, 0), LONG),
            f"queries[0]: unknown singleton {cut(repr(LONG))}\n",
            id="long-unknown-singleton",
        ),
        pytest.param(
            tp2_with(("frame", 0), LONG + "∩"),
            f"frame[0] must not contain ∩ or ∪, got {cut(repr(LONG + '∩'))}\n",
            id="long-frame-name",
        ),
        pytest.param(tp2_with(("engines", 0), LONG), f"engines[0]: unknown engine {cut(repr(LONG))};", id="long-engine"),
        pytest.param(tp2_with((LONG,), 1), f"unknown field {cut(LONG)}\n", id="long-field"),
        pytest.param(
            tp2_with(("dst_axes", "map", LONG), [0]),
            f"dst_axes.map[{cut(repr(LONG))}] must be [axis, value]\n",
            id="long-map-name",
        ),
        pytest.param(
            json.dumps(
                {
                    "frame": [LONG, "b"],
                    "constraints": [[LONG, "b"]],
                    "rules": [{"if": [[LONG]], "then": [["b"]], "weight": 0.9}],
                    "queries": [[["b"]]],
                }
            ),
            f"rules[0]: rule [{cut(f'if {LONG} then b (w=0.9)')}] contradicts the model's constraints\n",
            id="long-rule-text",
        ),
        pytest.param(
            '{"frame": ["p\\ud800", "b"], "rules": [{"if": [["b"]], "then": [["p\\ud800"]], '
            '"weight": 0.9}], "queries": [[["p\\ud800"]]]}',
            "error: frame[0] holds a lone surrogate, got 'p\\ud800'\n",
            id="lone-surrogate-frame-name",
        ),
        pytest.param(
            json.dumps(json.loads(tp2_with(("dst_axes", "axes", 2, 1), "p_\ud800"))),  # escaped
            "error: dst_axes.axes[2][1] holds a lone surrogate",
            id="lone-surrogate-axis-value",
        ),
        pytest.param(
            json.dumps(json.loads(tp2_with(("dst_axes", "map", "\udfff"), [2, 1]))),
            "error: dst_axes.map key holds a lone surrogate",
            id="lone-surrogate-map-key",
        ),
        pytest.param(
            "\ufeff" + TP2_TEXT,
            "error: not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)\n",
            id="leading-byte-order-mark",
        ),
        pytest.param(
            tp2_with(("engines",), ["dsm", "bayes", "dsm"]),
            "error: engines: 'dsm' is given twice\n",
            id="engine-given-twice",
        ),
    ],
)
def test_hostile_json_exits_two(text, needle):
    code, out, err = run_main(["fuse", "-"], text)
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.startswith("error: ") and needle in err
    assert len(err) < 400  # a long value from the file is cut short, not echoed whole


def _nodes(blob, path=()):
    """Every path into a JSON value, the value itself included."""
    yield path
    items = blob.items() if isinstance(blob, dict) else enumerate(blob) if isinstance(blob, list) else ()
    for key, child in items:
        yield from _nodes(child, (*path, key))


_HOSTILE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, "1e400", 10**400, True, False, None, "", "∩", "p\ud800", [], {}]),
    st.recursive(st.sampled_from(["p", "∩", 0, None]), lambda inner: st.lists(inner, max_size=3), max_leaves=4),
)


@settings(max_examples=200)  # enough to reach the map coordinates and weights
@given(
    path=st.sampled_from(list(_nodes(json.loads(TP2_TEXT)))),
    value=_HOSTILE,
    command=st.sampled_from(["fuse", "compare"]),
    fmt=st.sampled_from(["table", "json", "csv"]),
)
def test_one_hostile_node_never_crashes(path, value, command, fmt):
    text = json.dumps(value) if not path else json.dumps(json.loads(tp2_with(path, value)))  # escaped
    text = text.replace('"1e400"', "1e400")  # a float literal past the float range
    code, _, err = run_main([command, "-", "--format", fmt], text)
    assert code in (EXIT_OK, EXIT_INPUT_ERROR, EXIT_INCONSISTENT)
    if code == EXIT_INPUT_ERROR:
        assert err.startswith("error: ")


def test_compare_with_an_uncovered_map_exits_two():
    blob = json.loads(TP2_TEXT)
    blob["engines"] = ["dsm"]
    del blob["dst_axes"]["map"]["p"]
    code, out, err = run_main(["compare", "-"], json.dumps(blob))
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err == "error: dst_axes.map does not cover singleton(s): p\n"


@pytest.mark.parametrize("argv", [["compare", "-"], ["fuse", "-", "--engine", "all"]])
def test_each_rule_is_encoded_once(argv, monkeypatch):
    calls = []
    encode = rulebase._rule_masses

    def counted(*args):
        calls.append(args[0])
        return encode(*args)

    monkeypatch.setattr(rulebase, "_rule_masses", counted)
    assert run_main(argv, TP2_TEXT)[0] == EXIT_OK
    assert len(calls) == 3


# The parser against the check-then-resolve reference in tests/oracle.py, on
# scenarios shaped like the benchmark's three parsing workloads with one or
# two nodes broken: the same error text, or equal scenarios.

DSM_SHAPED = {
    "frame": ["a", "b", "c", "d", "e", "g"],
    "constraints": [["a", "d"], ["b", "c", "e"]],
    "rules": [
        {"if": [["a"]], "then": [["b", "c"]], "weight": 0.8},
        {"if": [["b", "c"]], "then": [["g"]], "weight": 0.7},
        {"if": [["c"]], "then": [["a"], ["e"]], "weight": 0.6},
        {"if": [["e"], ["g"]], "then": [["b"]], "weight": 0.9},
    ],
    "observations": [[["a", "b"]], [["g"]]],
    "queries": [[["a"]], [["b", "g"]], [["c"], ["d"]]],
    "engines": ["dsm"],
}


def _dst_shaped() -> dict:
    """tp2 on the dst engine, plus a binary and a ternary axis as the dst-atoms workload adds them."""
    blob = json.loads(TP2_TEXT)
    blob["engines"] = ["dst"]
    blob["frame"] += ["x0", "y1", "z1"]
    blob["constraints"].append(["y1", "z1"])
    blob["dst_axes"]["axes"] += [["x0", "x0_"], ["y1", "z1", "w1"]]
    blob["dst_axes"]["map"].update({"x0": [3, 0], "y1": [4, 0], "z1": [4, 1]})
    blob["rules"] += [
        {"if": [["p"]], "then": [["x0"]], "weight": 0.7},
        {"if": [["x0"]], "then": [["f"]], "weight": 0.8},
    ]
    blob["queries"] += [[["x0"]], [["f"], ["y1"]]]
    return blob


SHAPES = (json.loads(TP2_TEXT), DSM_SHAPED, _dst_shaped())


class _Raw:
    """A literal written into the JSON text as it is, such as 1e400."""

    def __init__(self, text):
        self.text = text


class _Twice(dict):
    """A JSON object whose first key the text gives twice."""


def _render(node) -> str:
    if isinstance(node, _Raw):
        return node.text
    if isinstance(node, dict):
        pairs = [f"{json.dumps(key)}: {_render(value)}" for key, value in node.items()]
        if isinstance(node, _Twice):
            pairs.insert(1, pairs[0])
        return "{" + ", ".join(pairs) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_render, node)) + "]"
    return json.dumps(node)


_MUTATIONS = (
    "delete", "wrong type", "unknown name", "empty term", "[]", "lone surrogate", "unknown key", "key twice", "NaN", "1e400"
)


def _mutated(blob, path: tuple, mutation: str, wrong):
    """``blob`` with the node at ``path`` broken by ``mutation``; ``wrong`` is the wrong-typed value."""
    node = blob
    for step in path:
        node = node[step]
    if mutation == "delete":
        replacement = None
    elif mutation == "wrong type":
        replacement = wrong
    elif mutation == "unknown name":
        replacement = "zz"
    elif mutation == "empty term":
        replacement = [*node, []] if isinstance(node, list) else [[]]
    elif mutation == "[]":
        replacement = []
    elif mutation == "lone surrogate":
        replacement = node + "\udc00" if isinstance(node, str) else "p\ud800"
    elif mutation in ("unknown key", "key twice"):
        if not isinstance(node, dict) or not node:
            return blob
        replacement = _Twice(node) if mutation == "key twice" else {**node, "extra": 1}
    else:
        replacement = math.nan if mutation == "NaN" else _Raw("1e400")
    if not path:
        return replacement if replacement is not None else blob
    parent = blob
    for step in path[:-1]:
        parent = parent[step]
    if replacement is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return blob


def _parsed(parse, text: str):
    try:
        scenario = parse(text)
    except Exception as exc:  # the reference's error, of whatever type, is what must come out
        return type(exc).__name__, str(exc)
    return scenario, scenario._sources


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_parser_matches_the_reference_on_broken_scenarios(data):
    blob = copy.deepcopy(data.draw(st.sampled_from(SHAPES)))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_nodes(blob))))
        # "p" and "a" are frame names, so a string that stands where a term should is caught too
        wrong = data.draw(st.sampled_from([0, 2, 0.5, True, None, "p", "a", {}, [["p"]], [[0]]]))
        blob = _mutated(blob, path, data.draw(st.sampled_from(_MUTATIONS)), wrong)
    text = _render(blob)
    assert _parsed(parse_scenario, text) == _parsed(oracle.parse_scenario, text)


@pytest.mark.parametrize("shape", range(len(SHAPES)))
def test_parser_matches_the_reference_on_the_shapes(shape):
    text = json.dumps(SHAPES[shape])
    got = _parsed(parse_scenario, text)
    assert isinstance(got[0], rulebase.Scenario)
    assert got == _parsed(oracle.parse_scenario, text)


# ------------------------------------------------------------------ emission


def test_emission_is_deterministic():
    report = run_scenario(parse_scenario(TP2_TEXT))
    for fmt in ("table", "json", "csv"):
        assert emit_report(report, fmt) == emit_report(report, fmt)


def test_json_round_trips_full_precision():
    report = run_scenario(parse_scenario(TP2_TEXT))
    blob = json.loads(emit_report(report, "json"))
    dsm = next(r for r in blob["results"] if r["engine"] == "dsm")
    rows = {tuple(map(tuple, q["query"])): q for q in dsm["queries"]}
    fused = report.engine("dsm")
    for row in fused.queries:
        emitted = rows[tuple(map(tuple, row.query.to_names()))]
        assert emitted["bel"] == row.bel  # exact: repr round-trip
        assert emitted["pl"] == row.pl
    assert blob["results"][1]["normalization_constant"] == report.engine("dst").normalization_constant


# characters that JSON escapes, or that ensure_ascii=False prints as they are
_CHARS = st.sampled_from(list('ab"\\/\x00\x08\x1f\x7fé中\u2028\u2029\U0001d518 '))
_TEXT = st.text(_CHARS, max_size=4)
_NAME = st.text(_CHARS, min_size=1, max_size=4)
_EDGES = [5e-324, 1e-7, 1e16, 0.1 + 0.2, 1.0000000000000002, 0.0, -0.0, 1.0]
_FLOAT = st.sampled_from(_EDGES) | st.floats()
_FINITE = st.sampled_from(_EDGES) | st.floats(allow_nan=False, allow_infinity=False)
_MAYBE = st.none() | _FLOAT
_FLAGS = st.lists(_TEXT, max_size=2).map(tuple)


def _unchecked_bba(model, masses) -> BBA:
    """A BBA holding ``masses`` as they are: the writer prints any float, not just normalised ones."""
    bba = object.__new__(BBA)
    for field, value in (("model", model), ("masses", masses)):
        object.__setattr__(bba, field, value)
    return bba


@st.composite
def _engine_results(draw, frame: Frame, shared: list[Proposition]) -> EngineResult:
    """One engine's result of any shape the report has: dsm, dst (consistent or not) or bayes.

    Its query rows ask either the ``shared`` propositions, as every engine of
    a real report does, or at least as many propositions of its own.
    """
    own = st.lists(propositions(frame), min_size=len(shared), max_size=3)
    asked = shared if draw(st.booleans()) else draw(own)
    queries = tuple(
        QueryResult(query, draw(_MAYBE), draw(_MAYBE), draw(_MAYBE), draw(_TEXT)) for query in asked
    )
    shape = draw(st.sampled_from(["dsm", "dst", "inconsistent", "bayes"]))
    fused = estimates = None
    if shape == "dsm":
        model = draw(models(frame))
        keys = draw(st.lists(propositions(frame), max_size=5, unique=True))
        fused = _unchecked_bba(model, {k: draw(_FLOAT) for k in keys})
    elif shape == "dst":
        axes = AtomFrame(
            tuple(
                tuple(draw(st.lists(_NAME, min_size=2, max_size=3, unique=True)))
                for _ in range(draw(st.integers(1, 3)))
            )
        )
        focals = st.integers(0, (1 << axes.atom_count) - 1)  # int atom masks, bit i for atom i
        fused = AtomMasses(axes, {f: draw(_FLOAT) for f in draw(st.lists(focals, max_size=4, unique=True))})
    elif shape == "bayes":
        estimates = BayesEstimates(*(Fraction(draw(_FINITE)) for _ in range(4)), draw(_FLAGS))
    return EngineResult(
        engine=draw(st.sampled_from(["dsm", "dst", "bayes"])),
        status=draw(st.sampled_from(["ok", "inconsistent", "not_applicable"])),
        fused=fused,
        stage_conflicts=tuple(draw(st.lists(_FLOAT, max_size=3))),
        normalization_constant=draw(_MAYBE),
        queries=queries,
        flags=draw(_FLAGS),
        estimates=estimates,
    )


@settings(max_examples=200)
@given(st.data())
def test_json_writer_matches_json_dumps(data):
    frame = Frame(tuple(data.draw(st.lists(_NAME, min_size=1, max_size=4, unique=True))))
    shared = data.draw(st.lists(propositions(frame), max_size=3))
    results = tuple(data.draw(st.lists(_engine_results(frame, shared), max_size=3)))
    report = FusionReport(results)
    tree = oracle.report_tree(report)
    assert emit_report(report, "json") == json.dumps(tree, indent=2, ensure_ascii=False) + "\n"
    # as text, because NaN != NaN
    assert json.dumps(report.to_json()) == json.dumps(tree)
    assert _rows(report) == oracle.report_rows(report)


def test_csv_has_one_row_per_engine_query():
    report = run_scenario(parse_scenario(TP2_TEXT))
    lines = emit_report(report, "csv").splitlines()
    assert lines[0] == "engine,query,bel,pl,note"
    assert len(lines) == 1 + 3 * 2
    assert lines[1].startswith("bayes,f,")
    assert "non-additive point estimate" in lines[1]


def test_table_lists_conflict_diagnostics():
    text = emit_report(run_scenario(parse_scenario(TP2_TEXT)), "table")
    assert "conflict" in text.splitlines()[0]
    assert any(line.startswith("dsm") and "0.81" in line for line in text.splitlines())
    assert "bayes estimates:" in text


def test_unknown_format_rejected():
    report = run_scenario(parse_scenario(TP2_TEXT))
    with pytest.raises(ValueError, match="format"):
        emit_report(report, "yaml")


# ------------------------------------------------------------------- driver


def test_fuse_bundled_scenario():
    code, out, _ = run_main(["fuse", str(TP2_PATH)])
    assert code == EXIT_OK
    assert "dsm" in out and "dst" in out and "bayes" in out


def test_fuse_reads_stdin():
    code, out, _ = run_main(["fuse", "-", "--format", "csv"], TP2_TEXT)
    assert code == EXIT_OK
    assert out.startswith("engine,query,bel,pl,note")


def test_engine_override():
    code, out, _ = run_main(["fuse", str(TP2_PATH), "--engine", "dsm", "--format", "csv"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert all(line.startswith("dsm,") for line in lines[1:])


@pytest.mark.parametrize("engine", ["all", "dst"])
def test_engine_override_names_the_flag_and_the_missing_field(engine):
    blob = json.loads(TP2_TEXT)
    del blob["dst_axes"]
    blob["engines"] = ["dsm"]
    assert run_main(["fuse", "-", "--engine", engine], json.dumps(blob)) == (
        EXIT_INPUT_ERROR,
        "",
        f"error: --engine {engine}: missing required field dst_axes, which the dst engine needs\n",
    )


def test_total_conflict_exits_three():
    code, out, _ = run_main(["fuse", "-", "--engine", "dst"], tp2_with(("rules", 0, "weight"), 1.0, ("rules", 1, "weight"), 1.0))
    assert code == EXIT_INCONSISTENT
    assert "inconsistent" in out


def one_rule_dst(observations) -> str:
    """f -0.9-> nf with no constraints: on the atom frame its focal f∩nf has no atoms."""
    return json.dumps(
        {
            "frame": ["f", "nf"],
            "rules": [{"if": [["f"]], "then": [["nf"]], "weight": 0.9}],
            "observations": observations,
            "queries": [[["f"]]],
            "engines": ["dst"],
            "dst_axes": {"axes": [["f", "nf"]], "map": {"f": [0, 0], "nf": [0, 1]}},
        }
    )


def test_dst_one_source_is_normalised_like_many():
    answers = []
    for observations in ([], [[["f"], ["nf"]]]):
        code, out, _ = run_main(["fuse", "-", "--format", "json"], one_rule_dst(observations))
        assert code == EXIT_OK
        (result,) = json.loads(out)["results"]
        (row,) = result["queries"]
        answers.append((result["conflict_mass"], result["normalization_constant"], row["bel"], row["pl"]))
    assert answers[0] == answers[1]
    conflict, k, bel, pl = answers[0]
    assert (conflict, k, bel, pl) == pytest.approx((0.9, 0.1, 1.0, 1.0), abs=1e-12)


def test_dst_observation_without_atoms_exits_three():
    blob = json.loads(one_rule_dst([[["f", "nf"]]]))
    blob["rules"] = []
    code, out, _ = run_main(["fuse", "-"], json.dumps(blob))
    assert code == EXIT_INCONSISTENT
    assert "inconsistent" in out


def test_degenerate_dsm_stays_ok():
    code, out, _ = run_main(["fuse", "-", "--engine", "dsm", "--format", "csv"], tp2_with(("rules", 0, "weight"), 1.0, ("rules", 1, "weight"), 1.0))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[1] == "dsm,f,0,1,"
    assert lines[2] == "dsm,nf,0,1,"


def test_compare_runs_supported_engines():
    code, out, _ = run_main(["compare", str(TP2_PATH), "--format", "csv"])
    assert code == EXIT_OK
    engines = {line.split(",")[0] for line in out.splitlines()[1:]}
    assert engines == {"bayes", "dst", "dsm"}


def test_compare_skips_dst_without_axes():
    blob = json.loads(TP2_TEXT)
    del blob["dst_axes"]
    blob["engines"] = ["dsm"]
    code, out, err = run_main(["compare", "-", "--format", "csv"], json.dumps(blob))
    assert code == EXIT_OK
    engines = {line.split(",")[0] for line in out.splitlines()[1:]}
    assert engines == {"bayes", "dsm"}
    assert "dst skipped" in err


@pytest.mark.parametrize("argv", [["compare", "-"], ["fuse", "-", "--engine", "dsm"]])
def test_the_file_engines_are_checked_before_compare_or_an_override(argv):
    # compare skips dst only for a file whose own engines do without it, and
    # --engine replaces the file's engines only once they passed
    blob = json.loads(TP2_TEXT)
    del blob["dst_axes"]
    blob["engines"] = ["dst"]
    assert run_main(argv, json.dumps(blob)) == (
        EXIT_INPUT_ERROR, "", "error: missing required field dst_axes, which the dst engine needs\n"
    )


def test_input_error_exit_codes(tmp_path):
    assert run_main(["fuse", "-"], "{broken")[0] == EXIT_INPUT_ERROR
    for path, code in ((tmp_path / "missing.json", errno.ENOENT), (tmp_path, errno.EISDIR)):
        err = f"error: [Errno {code}] {os.strerror(code)}: {str(path)!r}\n"
        assert run_main(["fuse", str(path)]) == (EXIT_INPUT_ERROR, "", err)
    assert run_main(["nonsense"])[0] == EXIT_INPUT_ERROR


@pytest.mark.parametrize("code", [errno.EPIPE, errno.ENOSPC], ids=["broken-pipe", "disk-full"])
@pytest.mark.parametrize("argv", [["fuse", str(TP2_PATH)], ["enumerate", "--n", "3"]], ids=["fuse", "enumerate"])
def test_a_report_that_cannot_be_written_exits_one(argv, code):
    # exit 2 is bad input or usage; a closed pipe or a full disk is neither
    error = OSError(code, os.strerror(code))  # an EPIPE OSError is a BrokenPipeError
    err = io.StringIO()
    with mock.patch("sys.stdout", mock.Mock(write=mock.Mock(side_effect=error))), redirect_stderr(err):
        assert main(argv) == EXIT_WRITE_ERROR
    assert err.getvalue() == f"error: {error}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["fuse", str(TP2_PATH)], ["enumerate", "--n", "5"], ["--help"]])
def test_a_buffered_report_that_cannot_be_written_exits_one(argv):
    # stdout to a pipe or file is block-buffered unless PYTHONUNBUFFERED is
    # set, so a short report fails only when flushed: main must flush it, and
    # the exit's flush of what is left must not fail again
    read, write = os.pipe()
    os.close(read)
    with open("/dev/full", "wb") as full:
        for sink, code in ((write, errno.EPIPE), (full, errno.ENOSPC)):
            run = run_process("-m", "hyperbelief", *argv, stdout=sink)
            err = f"error: [Errno {code}] {os.strerror(code)}\n".encode()
            assert (run.returncode, run.stderr) == (EXIT_WRITE_ERROR, err)
    os.close(write)


_CLOSED = b"error: %s is closed\n"


@pytest.mark.parametrize(
    ("fd", "argv", "code", "err"),
    [
        (0, ["fuse", "-"], EXIT_INPUT_ERROR, _CLOSED % b"stdin"),
        (1, ["fuse", str(TP2_PATH)], EXIT_WRITE_ERROR, _CLOSED % b"stdout"),
        (1, ["enumerate", "--n", "3"], EXIT_WRITE_ERROR, _CLOSED % b"stdout"),
        (1, ["check-logic"], EXIT_WRITE_ERROR, _CLOSED % b"stdout"),
        (1, ["--help"], EXIT_WRITE_ERROR, _CLOSED % b"stdout"),
        (2, ["fuse", str(SCENARIOS / "missing.json")], EXIT_INPUT_ERROR, b""),
        (2, ["enumerate", "--n", "9"], EXIT_LIMIT, b""),
    ],
    ids=["stdin-fuse", "stdout-fuse", "stdout-enumerate", "stdout-check-logic", "stdout-help", "stderr-fuse", "stderr-enumerate"],
)
def test_a_closed_standard_stream_ends_in_an_error_line(fd, argv, code, err):
    # a stream closed before start-up is None in sys: no scenario to read is an
    # input error, a report with nowhere to go exits 1, and an error line that
    # cannot be written changes no exit code and never lands on stdout
    run = run_process("-m", "hyperbelief", *argv, preexec_fn=lambda: os.close(fd))
    assert (run.returncode, run.stdout, run.stderr) == (code, b"", err)


# ----------------------------------------------------- what a rule asserts
#
# ``if a then c`` puts all its mass inside a, so every rule asserts its
# antecedent.  These pin what follows from that encoding today.

TP2_EVIDENTIAL_ROWS = [
    "dst,f,0.473684210526,0.526315789474,",
    "dst,nf,0.473684210526,0.526315789474,",
    "dsm,f,0.09,0.91,",
    "dsm,nf,0.09,0.91,",
]


@pytest.mark.parametrize(
    "observations",
    [[[["p", "b"]]], [], [[["p"]]], [[["b"]]]],
    ids=["p-and-b", "none", "p-only", "b-only"],
)
def test_tp2_rules_assert_p_and_b_without_the_observation(observations):
    # the rules about p put all their mass inside p, and p→b puts it inside p∩b
    code, out, err = run_main(["fuse", "-", "--format", "csv"], tp2_with(("observations",), observations))
    lines = out.splitlines()
    assert (code, err) == (EXIT_OK, "")
    assert lines[3:] == TP2_EVIDENTIAL_ROWS
    if observations == [[["p", "b"]]]:
        assert lines[1:3] == ["bayes,f,0.1,0.1,non-additive point estimate", "bayes,nf,0.1,0.1,non-additive point estimate"]
    else:
        note = "not applicable: scenario is not a three-rule triangle with one observation"
        assert lines[1:3] == [f"bayes,f,,,{note}", f"bayes,nf,,,{note}"]


def test_rules_with_exclusive_antecedents_conflict_totally():
    # as conditionals a→x and d→y are compatible, but each asserts its antecedent and a∩d = ∅
    assert run_main(["fuse", str(SCENARIOS / "exclusive_antecedents.json")]) == (
        EXIT_INCONSISTENT,
        "engine  status        conflict  K  flags\n"
        "dst     inconsistent  1            inconsistent (total conflict): the rules admit no common world\n"
        "dsm     ok            1            all prior mass conflicts; the intervals below are uninformative\n"
        "\n"
        "engine  query  bel  pl  note\n"
        "dst     x               inconsistent (total conflict)\n"
        "dst     y               inconsistent (total conflict)\n"
        "dsm     x      0    1\n"
        "dsm     y      0    1\n",
        "",
    )


def test_the_nixon_diamond_prints_the_penguin_triangle_numbers():
    # q→pa and r→npa with q∩r observed: tp2's two clashing rules, with their meet observed and no third rule
    code, out, err = run_main(["fuse", str(SCENARIOS / "nixon.json"), "--format", "csv"])
    assert (code, err) == (EXIT_OK, "")
    renamed = [row.replace(",nf,", ",npa,").replace(",f,", ",pa,") for row in TP2_EVIDENTIAL_ROWS]
    assert out.splitlines()[1:] == renamed


def test_the_penguin_chain_prints_the_penguin_triangle_numbers():
    # e→p, p→b, p→nf and b→f with e observed: f and nf read as in tp2; dst keeps p certain,
    # while dsm rests only 0.19 inside p, as most of its mass is on (e∩p) ∪ (e∩b∩f) and on e
    code, out, err = run_main(["fuse", str(SCENARIOS / "penguin_chain.json"), "--format", "csv"])
    assert (code, err) == (EXIT_OK, "")
    note = "not applicable: scenario is not a three-rule triangle with one observation"
    assert out.splitlines()[1:] == [
        f"bayes,f,,,{note}",
        f"bayes,nf,,,{note}",
        f"bayes,p,,,{note}",
        *TP2_EVIDENTIAL_ROWS[:2],
        "dst,p,1,1,",
        *TP2_EVIDENTIAL_ROWS[2:],
        "dsm,p,0.19,1,",
    ]


# ------------------------------------------------------------------- reading


def test_a_file_that_is_not_utf8_exits_two(tmp_path):
    # the file is decoded once, as a whole, so the message names the decoder's
    # reason and the offset of the refused byte in the file
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(TP2_TEXT.replace('"p"', '"p\u00e9"').encode("latin-1"))
    at = latin1.read_bytes().index(b"\xe9")
    assert run_main(["fuse", str(latin1)]) == (
        EXIT_INPUT_ERROR, "", f"error: not valid UTF-8: invalid continuation byte (byte {at})\n"
    )
    data = TP2_TEXT.replace('"p"', '"鳥"').encode("utf-8")
    at = data.index("鳥".encode("utf-8"))
    cut = tmp_path / "cut.json"
    cut.write_bytes(data[: at + 1])  # the first of the character's three bytes
    assert run_main(["compare", str(cut)]) == (
        EXIT_INPUT_ERROR, "", f"error: not valid UTF-8: unexpected end of data (byte {at})\n"
    )


def test_stdin_is_read_as_bytes_whatever_its_text_decoder():
    # the locale or PYTHONIOENCODING picks stdin's text decoder, strict or
    # surrogateescape; the reader takes stdin's bytes, so neither ever runs
    for encoding in ("utf-8:strict", "utf-8:surrogateescape"):
        run = run_process("-m", "hyperbelief", "fuse", "-", input=b'{"frame": ["p\xe9"]}', env={"PYTHONIOENCODING": encoding})
        err = b"error: not valid UTF-8: invalid continuation byte (byte 13)\n"
        assert (run.returncode, run.stdout, run.stderr) == (EXIT_INPUT_ERROR, b"", err)


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
def test_a_file_reads_its_line_ends_as_text_mode_does(tmp_path, end):
    path = tmp_path / "tp2.json"
    path.write_bytes(TP2_TEXT.replace("\n", end).encode("utf-8"))
    assert end.encode() in path.read_bytes()
    for fmt in ("table", "json"):
        assert run_main(["fuse", str(path), "--format", fmt]) == run_main(["fuse", str(TP2_PATH), "--format", fmt])


_RENAMES = ("p", "b", "pé", "ñ", "鳥", "Ω", "x y")


@st.composite
def scenario_bytes(draw) -> bytes:
    """The bundled scenario as a file's bytes: its names renamed (to
    non-ASCII ones, or among themselves), written with or without indent and
    ASCII escapes, its line ends LF, CRLF or a lone CR each, more line ends
    scattered anywhere (inside strings too), then a BOM, a cut that can split
    a character, or a byte that is never UTF-8."""
    names = dict(zip(("p", "b", "f", "nf"), draw(st.lists(st.sampled_from(_RENAMES), min_size=4, max_size=4, unique=True))))
    blob = json.loads(re.sub('"(p|b|f|nf)"', lambda m: json.dumps(names[m[1]]), TP2_TEXT))
    text = json.dumps(blob, indent=draw(st.sampled_from((None, 1, 2))), ensure_ascii=draw(st.booleans()))
    lines = text.split("\n")
    ends = draw(st.lists(st.sampled_from(("\n", "\r\n", "\r")), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(("\r", "\n", "\r\n", "\n\r"))) + text[at:]
    data = b"\xef\xbb\xbf" * draw(st.booleans()) + text.encode("utf-8")
    change = draw(st.sampled_from(("none", "cut", "bad byte")))
    if change == "cut":
        data = data[: draw(st.integers(0, len(data)))]
    elif change == "bad byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from((b"\xff", b"\xc3", b"\xe9", b"\xed\xa0\x80"))) + data[at:]
    return data


@settings(max_examples=200, deadline=None)
@given(data=scenario_bytes(), command=st.sampled_from(("fuse", "compare")), fmt=st.sampled_from(("table", "json", "csv")))
def test_file_reader_matches_the_text_mode_reference(tmp_path_factory, data, command, fmt):
    # the bytes read once and decoded once, from the file or on stdin, give
    # what text mode gave, in exit code, stdout and stderr; bytes that are not
    # UTF-8 escaped text mode as a UnicodeDecodeError, and are now an input
    # error naming the same byte; and stdin gives what the file gives
    path = tmp_path_factory.mktemp("read") / "scenario.json"
    path.write_bytes(data)
    runs = []
    for source in (str(path), "-"):
        argv = [command, source, "--format", fmt]
        try:
            with mock.patch.object(cli, "_read_input", oracle.read_input):
                want = run_main(argv, data)
        except UnicodeDecodeError as exc:
            want = (EXIT_INPUT_ERROR, "", f"error: not valid UTF-8: {exc.reason} (byte {exc.start})\n")
        runs.append(run_main(argv, data))
        assert runs[-1] == want
    assert runs[0] == runs[1]


_NAME_VALUES = st.one_of(
    st.text(st.characters(max_codepoint=127)),
    st.lists(st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr)), max_size=6).map("".join),
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.lists(st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


@given(value=_NAME_VALUES, where=st.sampled_from(("frame[{}]", "dst_axes.axes[{}][{}]", "dst_axes.map key")))
def test_name_check_matches_the_reference(value, where):
    # an ASCII string returns at once, since a lone surrogate is never ASCII;
    # anything else gives the reference's value, or its error type and message
    at = (2, 1)[: where.count("{}")]

    def outcome(check):
        try:
            name = check(value, where, *at)
        except Exception as exc:
            return type(exc), str(exc)
        return type(name), name

    assert outcome(_name) == outcome(oracle.checked_name)


def test_enumerate_prints_all_propositions():
    code, out, _ = run_main(["enumerate", "--n", "4"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[-1] == "total 167"
    assert len(lines) == 168
    assert lines[0] == "∅"
    assert len(set(lines[:-1])) == 167


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_lines_are_the_propositions(n):
    code, out, _ = run_main(["enumerate", "--n", str(n)])
    assert code == EXIT_OK
    props = enumerate_hyper_power_set(Frame(tuple("abcde"[:n])))
    assert out.splitlines() == [str(p) for p in props] + [f"total {len(props)}"]


SIX = Frame(tuple("abcdef"))
SIX_RANK = {s: r for r, s in enumerate(_term_order(6))}
SIX_LINES = _enumeration_lines(6)


@settings(max_examples=200)
@given(st.integers(0, 63), st.lists(st.tuples(st.integers(1, 63), st.booleans()), max_size=8))
def test_enumerate_six_renders_each_antichain_as_its_proposition(floor, drawn):
    # n = 6 prints about 1 GB, so its lines are checked one drawn antichain at a
    # time; widening some terms by a shared floor reaches the large, high-rank ones
    masks = [t | floor if widen else t for t, widen in drawn]
    bits = sum(1 << SIX_RANK[t] for t in _absorb(masks))
    assert SIX_LINES([bits]) == [str(Proposition(SIX, tuple(masks)))]


# Six singletons, ten rules, one exclusive pair and one exclusive triple; the
# last query is not reduced (a∩d is declared empty).
DSM_SCENARIO = {
    "frame": ["a", "b", "c", "d", "e", "g"],
    "constraints": [["a", "d"], ["b", "c", "e"]],
    "rules": [
        {"if": [["b", "g"]], "then": [["d"]], "weight": 0.9},
        {"if": [["e"]], "then": [["d"]], "weight": 0.95},
        {"if": [["d"]], "then": [["b", "g"]], "weight": 0.73},
        {"if": [["e"]], "then": [["a"], ["d"]], "weight": 0.86},
        {"if": [["g"]], "then": [["b", "d"]], "weight": 0.69},
        {"if": [["d", "e"]], "then": [["b"], ["e"]], "weight": 0.9},
        {"if": [["b"], ["g"]], "then": [["a", "g"]], "weight": 0.75},
        {"if": [["d"]], "then": [["b", "g"]], "weight": 0.89},
        {"if": [["a"], ["b"]], "then": [["a"], ["d"]], "weight": 0.76},
        {"if": [["g"]], "then": [["c"], ["d"]], "weight": 0.83},
    ],
    "observations": [[["d"], ["e"]]],
    "queries": [[["a"]], [["b", "g"]], [["c"], ["d"]], [["e"]], [["a", "d"], ["g"]]],
}


# Twelve singletons and eighteen single-literal rules with no observation:
# the rule fold ends with 256 states, whose joins hold up to 16 terms.
UNSTRUCTURED_SCENARIO = {
    "frame": list("abcdefghijkl"),
    "constraints": [["a", "b"], ["c", "d", "e"]],
    "rules": [
        {"if": [[pair[0]]], "then": [[pair[1]]], "weight": round(0.55 + 0.021 * k, 3)}
        for k, pair in enumerate("he ki kf cg af he kh lj di ak jc hf cf da jd bi kf kg".split())
    ],
    "queries": [[["a"]], [["c"], ["f"]], [["d", "g"]]],
}


# 2 × 2 × 2 × 2 × 4 = 64 atoms, named by non-ASCII axis values.
DST_WIDE_SCENARIO = {
    "frame": ["p", "b", "f", "nf", "w", "s"],
    "constraints": [["f", "nf"]],
    "rules": [
        {"if": [["p"]], "then": [["nf"]], "weight": 0.9},
        {"if": [["b"]], "then": [["f"]], "weight": 0.9},
        {"if": [["p"]], "then": [["b"]], "weight": 0.95},
        {"if": [["s"]], "then": [["w"]], "weight": 0.6},
        {"if": [["b"]], "then": [["w"], ["s"]], "weight": 0.7},
    ],
    "observations": [[["p", "b"]]],
    "queries": [[["f"]], [["nf"]], [["w"], ["s"]], [["s"]]],
    "engines": ["dst"],
    "dst_axes": {
        "axes": [
            ["vuela", "no vuela"],
            ["pájaro", "¬pájaro"],
            ["pingüino", "¬pingüino"],
            ["ala", "sin ala"],
            ["frío", "calor", "templado", "nieve"],
        ],
        "map": {"f": [0, 0], "nf": [0, 1], "b": [1, 0], "p": [2, 0], "w": [3, 0], "s": [4, 3]},
    },
}


FUSE_JSON = ["fuse", "-", "--format", "json"]


@pytest.mark.parametrize(
    ("argv", "stdin", "size", "digest"),
    [
        (["enumerate", "--n", "4"], "", 4620, "5e0a42836ba26bfcf6a5d250975ea87fb4933b0a76ef77bed951840253c2f34c"),
        (["enumerate", "--n", "5"], "", 465141, "403e8fc2ff75f004fb3ee1de4dd8f85557a5520d824a600244bf0d0534e81c2d"),
        (FUSE_JSON, json.dumps(DSM_SCENARIO), 6723, "5b9ff2bc67cc48b6db2779b4797e061d295d24f263004e7ba1a155ed77469b70"),
        (FUSE_JSON, json.dumps(UNSTRUCTURED_SCENARIO), 204718, "67603c5fc936b57e7f9c79d7ae0e20fd7f250be5ab4b0964935c401d9c2bd80d"),
        # tp2 selects all three engines, so both commands print the bayes
        # estimates, the dst atom sets and the dsm lattice keys.
        (FUSE_JSON, TP2_TEXT, 3539, "df3e9f30aaae157beee05ab37d79579c30e3a8cc15ced9406fa16335809cb8a9"),
        (["compare", "-", "--format", "json"], TP2_TEXT, 3539, "df3e9f30aaae157beee05ab37d79579c30e3a8cc15ced9406fa16335809cb8a9"),
        (FUSE_JSON, json.dumps(DST_WIDE_SCENARIO), 2973, "d27f08a90013cd2bc80a6732b4e70fff0083c4600c90222ba0378cfffbf42390"),
    ],
    ids=["enumerate-4", "enumerate-5", "dsm", "unstructured-dsm", "tp2-fuse", "tp2-compare", "wide-dst"],
)
def test_output_bytes_are_pinned(argv, stdin, size, digest):
    code, out, _ = run_main(argv, stdin)
    assert code == EXIT_OK
    out = out.encode("utf-8")
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


def test_dst_frame_past_the_atom_limit_exits_four(tmp_path):
    # 2^43 atoms: building one atom mask would exhaust memory
    blob = json.loads(TP2_TEXT)
    blob["dst_axes"]["axes"] += [[f"x{i}", f"y{i}"] for i in range(40)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_main(["fuse", str(path)])
    assert code == EXIT_LIMIT
    assert time.perf_counter() - start < 1.0
    assert out == ""
    assert err == "error: dst_axes: the axes span 8796093022208 atoms, more than the limit of 524288\n"
    assert run_main(["fuse", str(path), "--engine", "dsm"])[0] == EXIT_OK  # only the dst engine builds atoms
    blob["rules"], blob["observations"] = [], []  # the vacuous state is the first mask built
    path.write_text(json.dumps(blob), encoding="utf-8")
    code, _, err = run_main(["fuse", str(path), "--engine", "dst"])
    assert code == EXIT_LIMIT
    assert err.startswith("error: dst_axes: the axes span 8796093022208 atoms")


def test_enumerate_limits():
    for argv, code, err in (
        (["--n", "6"], EXIT_LIMIT, "enumeration over 6 singletons exceeds the limit of 5 (pass --allow-large for n=6)"),
        (["--n", "7", "--allow-large"], EXIT_LIMIT, "enumeration over 7 singletons exceeds the limit of 6"),
        (["--n", "0"], EXIT_INPUT_ERROR, "--n must be at least 1"),
    ):
        assert run_main(["enumerate", *argv]) == (code, "", f"error: {err}\n")


def test_check_logic_exits_zero():
    code, out, _ = run_main(["check-logic"])
    assert code == EXIT_OK
    assert out.count("tautology") == 6


def test_verbose_writes_to_stderr():
    code, _, err = run_main(["-v", "fuse", str(TP2_PATH)])
    assert code == EXIT_OK
    assert "running" in err


def test_contradicted_inputs_exit_two():
    code, _, err = run_main(["fuse", "-"], tp2_with(("rules", 1, "then"), [["f", "nf"]]))
    assert code == EXIT_INPUT_ERROR
    assert "rules[1]" in err

    code, _, err = run_main(["fuse", "-"], tp2_with(("observations",), [[["p", "b"]], [["p", "f", "nf"]]]))
    assert code == EXIT_INPUT_ERROR
    assert "observations[1]" in err


@pytest.mark.parametrize(
    ("owner", "field"),
    [((), "observation"), (("rules", 2), "rules[2].wieght"), (("dst_axes",), "dst_axes.maps")],
)
def test_unknown_keys_exit_two(owner, field):
    code, _, err = run_main(["fuse", "-"], tp2_with((*owner, field.rsplit(".", 1)[-1]), []))
    assert code == EXIT_INPUT_ERROR
    assert f"unknown field {field}" in err


def test_repeated_calls_read_argv_alike():
    def call(*argv):
        return run_main(list(argv))

    fresh = call("fuse", str(TP2_PATH))
    usage = call("fuse")
    assert usage[:2] == (EXIT_INPUT_ERROR, "") and usage[2].startswith("usage:")
    helped = call("--help")
    assert (helped[0], helped[2]) == (EXIT_OK, "") and helped[1].startswith("usage:")
    assert call("fuse", str(TP2_PATH)) == fresh
    assert [call("fuse"), call("--help")] == [usage, helped]


def test_the_command_line_loads_no_argparse():
    """Every run is a fresh process, so none of argparse, gettext and locale may load.

    ``-S`` keeps site hooks from loading modules of their own.
    """
    code = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from hyperbelief.cli import main\n"
        "with redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['fuse', {str(TP2_PATH)!r}]), main(['enumerate', '--n', '3']),"
        " main(['check-logic']), main(['--help'])]\n"
        "print(codes, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    run = run_process("-S", "-c", code, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[0, 0, 0, 0] []\n"


# ---------------------------------------------------------------------- argv

_COMMANDS = ("fuse", "compare", "enumerate", "check-logic")
# subcommands, a bogus one, top-level flags, whole and cut options, "=" forms, "--", "-" and values
_ARGV_WORDS = (
    *_COMMANDS, "bogus", "",
    "-v", "-vv", "-vh", "--verb", "--verbose=1", "-h", "--help", "--he",
    "--engine", "--eng", "--engine=dst", "--format", "--form", "--f", "--format=json", "--form=csv",
    "--n", "--n=5", "--n=x", "--allow-large", "--allow", "--allow-large=1", "--bogus",
    "--", "--=x", "-", "table", "json", "csv", "dsm", "all", "magic", "5", "05", " 5", "-1", "x",
)


def read_argv(argv: list[str]) -> tuple[int, dict | None, str, str]:
    """(exit code, parsed values or None, stdout, stderr) of the argv table."""
    try:
        command, args = _read_argv(list(argv))
    except _Stop as stop:
        out, err = (stop.text, "") if stop.code == EXIT_OK else ("", stop.text)
        return stop.code, None, out, err
    return EXIT_OK, {"subcommand": command, **args}, "", ""


def read_argv_by_argparse(argv: list[str]) -> tuple[int, dict | None, str, str]:
    """``read_argv`` by the argparse parser in ``oracle``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace = oracle.build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code, None, out.getvalue(), err.getvalue()
    return EXIT_OK, vars(namespace), "", ""


def argparse_releases_agree(argv: list[str]) -> bool:
    """Whether argparse reads ``argv`` alike on every Python the CI runs.

    argparse 3.13 drops a "--" before the subcommand, which 3.11 reads as the
    subcommand's name (pinned in ``test_argv_forms_argparse_reads_differently``),
    and releases after 3.11 changed how "--" reads elsewhere, so only 3.11
    compares argv holding one.
    """
    if "--" not in argv:
        return True
    head = argv[: next((i for i, word in enumerate(argv) if word in _COMMANDS), len(argv))]
    return sys.version_info[:2] == (3, 11) and "--" not in head


def assert_read_as_argparse_did(argv: list[str]) -> None:
    code, values, out, err = read_argv(argv)
    want = read_argv_by_argparse(argv)
    assert (code, values) == want[:2], argv
    # the usage block is on stdout for --help and on stderr for a usage error
    assert ("usage:" in out, "usage:" in err) == ("usage:" in want[2], "usage:" in want[3]), argv
    if sys.version_info[:2] == (3, 11):  # the fixed texts are what argparse prints there at 80 columns
        assert (out, err) == want[2:], argv


def test_argv_table_reads_every_short_argv_as_argparse_did():
    """Every argv of up to two words, and every subcommand followed by up to two."""
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for size in range(3):
            for words in product(_ARGV_WORDS, repeat=size):
                for argv in ([*words], *([command, *words] for command in _COMMANDS)):
                    if argparse_releases_agree(argv):
                        assert_read_as_argparse_did(argv)


@settings(max_examples=500)
@given(
    head=st.lists(st.sampled_from(_ARGV_WORDS), max_size=2),
    command=st.sampled_from(_COMMANDS),
    tail=st.lists(st.sampled_from(_ARGV_WORDS), max_size=6),
)
def test_argv_table_reads_argv_as_argparse_did(head, command, tail):
    argv = [*head, command, *tail]
    assume(argparse_releases_agree(argv))
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert_read_as_argparse_did(argv)


_TOP_USAGE = "usage: hyperbelief [-h] [-v] {fuse,compare,enumerate,check-logic} ...\n"
_FUSE_USAGE = """\
usage: hyperbelief fuse [-h] [--engine {bayes,dst,dsm,all}]
                        [--format {table,json,csv}]
                        path
"""
_ENUMERATE_USAGE = "usage: hyperbelief enumerate [-h] --n N [--allow-large]\n"


@pytest.mark.parametrize(
    ("argv", "text"),
    [
        (
            ["--help"],
            _TOP_USAGE
            + """
Fuse weighted rule bases with Bayesian, Dempster-Shafer, and hybrid DSm
engines.

positional arguments:
  {fuse,compare,enumerate,check-logic}
    fuse                run a scenario file ('-' reads stdin)
    compare             run every engine the scenario supports
    enumerate           print the hyper-power set
    check-logic         verify the classical principles by truth table

options:
  -h, --help            show this help message and exit
  -v, --verbose         diagnostics on stderr
""",
        ),
        (
            ["fuse", "-h"],
            _FUSE_USAGE
            + """
positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --engine {bayes,dst,dsm,all}
                        override the scenario's engines
  --format {table,json,csv}
""",
        ),
        (
            ["compare", "--he"],
            """\
usage: hyperbelief compare [-h] [--format {table,json,csv}] path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --format {table,json,csv}
""",
        ),
        (
            ["enumerate", "--help"],
            _ENUMERATE_USAGE
            + """
options:
  -h, --help     show this help message and exit
  --n N          number of singletons
  --allow-large  permit n above the default cap
""",
        ),
        (
            ["check-logic", "-h"],
            """\
usage: hyperbelief check-logic [-h]

options:
  -h, --help  show this help message and exit
""",
        ),
    ],
)
def test_help_texts_are_pinned(argv, text):
    assert run_main(argv) == (EXIT_OK, text, "")


@pytest.mark.parametrize(
    ("argv", "err"),
    [
        ([], _TOP_USAGE + "hyperbelief: error: the following arguments are required: subcommand\n"),
        (
            ["fuze", "x"],
            _TOP_USAGE + "hyperbelief: error: argument subcommand: invalid choice: 'fuze' "
            "(choose from 'fuse', 'compare', 'enumerate', 'check-logic')\n",
        ),
        (["fuse"], _FUSE_USAGE + "hyperbelief fuse: error: the following arguments are required: path\n"),
        (
            ["enumerate", "--allow-large"],
            _ENUMERATE_USAGE + "hyperbelief enumerate: error: the following arguments are required: --n\n",
        ),
        (
            ["fuse", "x", "--eng", "magic"],
            _FUSE_USAGE + "hyperbelief fuse: error: argument --engine: invalid choice: 'magic' "
            "(choose from 'bayes', 'dst', 'dsm', 'all')\n",
        ),
        (["fuse", "x", "--format"], _FUSE_USAGE + "hyperbelief fuse: error: argument --format: expected one argument\n"),
        (["enumerate", "--n=x"], _ENUMERATE_USAGE + "hyperbelief enumerate: error: argument --n: invalid int value: 'x'\n"),
        (["fuse", "-v", "x", "y"], _TOP_USAGE + "hyperbelief: error: unrecognized arguments: -v y\n"),
        (
            ["--verbose=1", "check-logic"],
            _TOP_USAGE + "hyperbelief: error: argument -v/--verbose: ignored explicit argument '1'\n",
        ),
        (
            ["-v=", "check-logic"],
            _TOP_USAGE + "hyperbelief: error: argument -v/--verbose: ignored explicit argument ''\n",
        ),
    ],
)
def test_usage_errors_are_pinned(argv, err):
    assert run_main(argv) == (EXIT_INPUT_ERROR, "", err)


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        # argparse 3.13 drops this "--"; 3.11 reads it as the subcommand's name
        (["--", "fuse", "x"], "argument subcommand: invalid choice: '--' (choose from "),
        # argparse 3.11 drops a "--" value and stores [], so the command crashed
        (["fuse", "--format=--", "x"], "argument --format: invalid choice: '--' (choose from "),
        (["enumerate", "--n=--"], "argument --n: invalid int value: '--'\n"),
    ],
)
def test_argv_forms_argparse_reads_differently(argv, message):
    code, out, err = run_main(argv)
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.partition(": error: ")[2].startswith(message)


def test_argv_forms_give_one_report():
    argvs = [
        ["fuse", "-", "--format", "csv"],
        ["fuse", "--format=csv", "-"],
        ["fuse", "--form", "csv", "--", "-"],
        ["-vv", "fuse", "--f=csv", "-", "--engine", "all"],
    ]
    runs = [run_main(argv, TP2_TEXT) for argv in argvs]
    assert runs[0][1].startswith("engine,query,bel,pl,note\n")
    assert {run[:2] for run in runs} == {runs[0][:2]}
    assert runs[3][2] == "running bayes, dst, dsm on 3 rule(s), 1 observation(s)\n"
