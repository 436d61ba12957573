"""End-to-end tests for the command-line interface."""

import hashlib
import json
from pathlib import Path

import pytest

from hyperbelief import Frame, enumerate_hyper_power_set
from hyperbelief.cli import (
    EXIT_INCONSISTENT,
    EXIT_INPUT_ERROR,
    EXIT_LIMIT,
    EXIT_OK,
    ScenarioError,
    _build_parser,
    emit_report,
    main,
    parse_scenario,
)
from hyperbelief.rulebase import run_scenario

TP2_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "tp2.json"
TP2_TEXT = TP2_PATH.read_text(encoding="utf-8")


def tweaked(**weights) -> str:
    """The bundled scenario with selected rule weights replaced."""
    blob = json.loads(TP2_TEXT)
    for index, weight in weights.items():
        blob["rules"][int(index[1:])]["weight"] = weight
    return json.dumps(blob)


# ------------------------------------------------------------------- parsing


def test_bundled_scenario_parses():
    scenario = parse_scenario(TP2_TEXT)
    assert len(scenario.rules) == 3
    assert len(scenario.observations) == 1
    assert [str(q) for q in scenario.queries] == ["f", "nf"]
    assert scenario.engines == ("bayes", "dst", "dsm")
    assert scenario.dst_axes is not None
    assert scenario.model.kind == "hybrid"


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
        ('{"frame": ["a", "b"], "queries": [[["z"]]]}', "queries[0]"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "rules": [{"then": [["a"]], "weight": 1}]}', "rules[0].if"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "rules": [{"if": [["a"]], "then": [["b"]], "weight": "high"}]}', "rules[0].weight"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "rules": [{"if": [["a"]], "then": [["b"]], "weight": 1.2}]}', "rules[0]"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "constraints": [["a", "z"]]}', "constraints[0][1]"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "constraints": [["a"]]}', "constraints"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "engines": ["magic"]}', "unknown engine"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "engines": ["dst"]}', "dst_axes"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "dst_axes": {"axes": [["x", "y"]]}}', "dst_axes.map"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "dst_axes": {"axes": [["x", "y"]], "map": {"a": [0]}}}', "dst_axes.map"),
        ('{"frame": ["a", "b"], "queries": [[["a"]]], "dst_axes": {"axes": [["x∩y", "x"], ["z", "y∩z"]], "map": {}}}', "dst_axes:"),
    ],
)
def test_parse_errors_name_the_field(text, needle):
    with pytest.raises(ScenarioError, match=None) as excinfo:
        parse_scenario(text)
    assert needle.split(" ")[0] in str(excinfo.value)


def test_frame_name_with_a_connective_is_refused(capsys, tmp_path):
    # the table would print the singleton a∩b and the term a∩b under one label
    scenario = {
        "frame": ["a∩b", "a", "b"],
        "rules": [{"if": [["a"]], "then": [["b"]], "weight": 0.9}],
        "queries": [[["a∩b"]], [["a", "b"]]],
    }
    path = tmp_path / "ambiguous.json"
    path.write_text(json.dumps(scenario, ensure_ascii=False), encoding="utf-8")
    assert main(["fuse", str(path)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "frame[0]" in captured.err


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


def test_fuse_bundled_scenario(capsys):
    assert main(["fuse", str(TP2_PATH)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dsm" in out and "dst" in out and "bayes" in out


def test_fuse_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(TP2_TEXT))
    assert main(["fuse", "-", "--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("engine,query,bel,pl,note")


def test_engine_override(capsys):
    assert main(["fuse", str(TP2_PATH), "--engine", "dsm", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("dsm,") for line in lines[1:])


def test_engine_all_requires_axes(capsys, monkeypatch):
    import io

    blob = json.loads(TP2_TEXT)
    del blob["dst_axes"]
    blob["engines"] = ["dsm"]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(blob)))
    assert main(["fuse", "-", "--engine", "all"]) == EXIT_INPUT_ERROR
    assert "dst_axes" in capsys.readouterr().err


def test_total_conflict_exits_three(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(tweaked(r0=1.0, r1=1.0)))
    assert main(["fuse", "-", "--engine", "dst"]) == EXIT_INCONSISTENT
    assert "inconsistent" in capsys.readouterr().out


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


def test_dst_one_source_is_normalised_like_many(capsys, monkeypatch):
    import io

    answers = []
    for observations in ([], [[["f"], ["nf"]]]):
        monkeypatch.setattr("sys.stdin", io.StringIO(one_rule_dst(observations)))
        assert main(["fuse", "-", "--format", "json"]) == EXIT_OK
        (result,) = json.loads(capsys.readouterr().out)["results"]
        (row,) = result["queries"]
        answers.append((result["conflict_mass"], result["normalization_constant"], row["bel"], row["pl"]))
    assert answers[0] == answers[1]
    conflict, k, bel, pl = answers[0]
    assert (conflict, k, bel, pl) == pytest.approx((0.9, 0.1, 1.0, 1.0), abs=1e-12)


def test_dst_observation_without_atoms_exits_three(capsys, monkeypatch):
    import io

    blob = json.loads(one_rule_dst([[["f", "nf"]]]))
    blob["rules"] = []
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(blob)))
    assert main(["fuse", "-"]) == EXIT_INCONSISTENT
    assert "inconsistent" in capsys.readouterr().out


def test_degenerate_dsm_stays_ok(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(tweaked(r0=1.0, r1=1.0)))
    assert main(["fuse", "-", "--engine", "dsm", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "dsm,f,0,1,"
    assert lines[2] == "dsm,nf,0,1,"


def test_compare_runs_supported_engines(capsys):
    assert main(["compare", str(TP2_PATH), "--format", "csv"]) == EXIT_OK
    engines = {line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]}
    assert engines == {"bayes", "dst", "dsm"}


def test_compare_skips_dst_without_axes(capsys, monkeypatch):
    import io

    blob = json.loads(TP2_TEXT)
    del blob["dst_axes"]
    blob["engines"] = ["dsm"]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(blob)))
    assert main(["compare", "-", "--format", "csv"]) == EXIT_OK
    captured = capsys.readouterr()
    engines = {line.split(",")[0] for line in captured.out.splitlines()[1:]}
    assert engines == {"bayes", "dsm"}
    assert "dst skipped" in captured.err


def test_input_error_exit_codes(capsys, monkeypatch, tmp_path):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("{broken"))
    assert main(["fuse", "-"]) == EXIT_INPUT_ERROR
    assert main(["fuse", str(tmp_path / "missing.json")]) == EXIT_INPUT_ERROR
    assert main(["nonsense"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_enumerate_prints_all_propositions(capsys):
    assert main(["enumerate", "--n", "4"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "total 167"
    assert len(lines) == 168
    assert lines[0] == "∅"
    assert len(set(lines[:-1])) == 167


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_lines_are_the_propositions(capsys, n):
    assert main(["enumerate", "--n", str(n)]) == EXIT_OK
    props = enumerate_hyper_power_set(Frame(tuple("abcd"[:n])))
    assert capsys.readouterr().out.splitlines() == [str(p) for p in props] + [f"total {len(props)}"]


@pytest.mark.parametrize(
    "n,size,digest",
    [
        (4, 4620, "5e0a42836ba26bfcf6a5d250975ea87fb4933b0a76ef77bed951840253c2f34c"),
        (5, 465141, "403e8fc2ff75f004fb3ee1de4dd8f85557a5520d824a600244bf0d0534e81c2d"),
    ],
)
def test_enumerate_output_bytes_are_pinned(capsys, n, size, digest):
    assert main(["enumerate", "--n", str(n)]) == EXIT_OK
    out = capsys.readouterr().out.encode("utf-8")
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


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


def test_dsm_output_bytes_are_pinned(capsys, tmp_path):
    path = tmp_path / "dsm.json"
    path.write_text(json.dumps(DSM_SCENARIO), encoding="utf-8")
    assert main(["fuse", str(path), "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out.encode("utf-8")
    assert (len(out), hashlib.sha256(out).hexdigest()) == (
        6723,
        "5b9ff2bc67cc48b6db2779b4797e061d295d24f263004e7ba1a155ed77469b70",
    )


def test_enumerate_limits(capsys):
    assert main(["enumerate", "--n", "6"]) == EXIT_LIMIT
    assert main(["enumerate", "--n", "7", "--allow-large"]) == EXIT_LIMIT
    assert main(["enumerate", "--n", "0"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_check_logic_exits_zero(capsys):
    assert main(["check-logic"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("tautology") == 6


def test_verbose_writes_to_stderr(capsys):
    assert main(["-v", "fuse", str(TP2_PATH)]) == EXIT_OK
    assert "running" in capsys.readouterr().err


def test_contradicted_inputs_exit_two(capsys, monkeypatch):
    import io

    blob = json.loads(TP2_TEXT)
    blob["rules"][1]["then"] = [["f", "nf"]]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(blob)))
    assert main(["fuse", "-"]) == EXIT_INPUT_ERROR
    assert "rules[1]" in capsys.readouterr().err

    blob = json.loads(TP2_TEXT)
    blob["observations"].append([["p", "f", "nf"]])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(blob)))
    assert main(["fuse", "-"]) == EXIT_INPUT_ERROR
    assert "observations[1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("owner", "field"),
    [((), "observation"), (("rules", 2), "rules[2].wieght"), (("dst_axes",), "dst_axes.maps")],
)
def test_unknown_keys_exit_two(capsys, monkeypatch, owner, field):
    import io

    blob = json.loads(TP2_TEXT)
    target = blob
    for step in owner:
        target = target[step]
    target[field.rsplit(".", 1)[-1]] = []
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(blob)))
    assert main(["fuse", "-"]) == EXIT_INPUT_ERROR
    assert f"unknown field {field}" in capsys.readouterr().err


def test_one_parser_serves_every_call(capsys):
    def call(*argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    _build_parser.cache_clear()
    fresh = call("fuse", str(TP2_PATH))
    usage = call("fuse")
    assert usage[0] == EXIT_INPUT_ERROR and "usage:" in usage[2]
    helped = call("--help")
    assert helped[0] == EXIT_OK and "usage:" in helped[1]
    assert call("fuse", str(TP2_PATH)) == fresh
    assert [call("fuse"), call("--help")] == [usage, helped]
    assert _build_parser.cache_info().misses == 1
