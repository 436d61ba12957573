"""Command-line front end: scenario ingestion, engine dispatch, report output.

Subcommands:

* ``fuse <file>``      — run the engines a scenario selects (``-`` = stdin).
* ``compare <file>``   — run every engine the scenario can support.
* ``enumerate --n k``  — print the canonical propositions over k singletons.
* ``check-logic``      — re-verify the classical principles by truth table.

Exit codes: 0 success, 2 input error, 3 inconsistent system (total conflict),
4 enumeration limit exceeded.  Inconsistency is a finding, not a fault, so it
gets its own code instead of a generic failure.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import sys
from functools import cache
from itertools import islice
from typing import Callable, Iterable, Sequence

from .analysis import CLASSICAL_PRINCIPLES, parse_formula, tautology_check
from .json_report import render_json
from .lattice import (
    AtomFrame,
    EnumerationLimitError,
    Frame,
    Model,
    Proposition,
    _antichains,
    _check_enumeration_limit,
    _brief,
    _members,
    _rank_tables,
    _term_order,
    _term_text,
    _union_text,
    proposition_from_names,
)
from .rulebase import ENGINES, DstAxes, FusionReport, Scenario, WeightedRule, run_scenario

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_INCONSISTENT = 3
EXIT_LIMIT = 4

_ENUM_NAMES = "abcdef"  # one name per singleton, up to the hard enumeration limit
_ENUM_CHUNK = 4096  # lines per write, so n = 6 never holds its output at once


class ScenarioError(ValueError):
    """Scenario text that cannot be turned into a valid Scenario."""


def _checked(where: str, build: Callable, *args):
    """``build(*args)``; its ValueError becomes a ScenarioError, prefixed ``where: `` if ``where``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}" if where else str(exc)) from exc


# ------------------------------------------------------------------- parsing


def _expect(value, kind, where: str):
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"{where} must be a number, got {_brief(repr(value))}")
        try:
            return float(value)
        except OverflowError:  # an integer literal past the float range
            raise ScenarioError(f"{where} is too large for a float") from None
    if not isinstance(value, kind):
        raise ScenarioError(f"{where} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _name(value, where: str) -> str:
    """A string the reports print: it must encode as UTF-8, so no lone surrogate."""
    name = _expect(value, str, where)
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:  # JSON can escape half of a surrogate pair, "\ud800"
        raise ScenarioError(f"{where} holds a lone surrogate, got {_brief(repr(name))}") from None
    return name


def _get(mapping: dict, key: str, kind, where: str, default=None, required=False):
    if key not in mapping:
        if required:
            raise ScenarioError(f"missing required field {where}{key}")
        return default
    return _expect(mapping[key], kind, f"{where}{key}")


def _fields(value, where: str, known: tuple[str, ...]) -> dict:
    """A JSON object whose keys all lie in ``known``; ``where`` prefixes field paths."""
    blob = _expect(value, dict, where.rstrip(".") or "scenario")
    for key in blob:
        if key not in known:
            raise ScenarioError(f"unknown field {where}{_brief(key)}")
    return blob


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object; a key given twice is an error, not a silent overwrite."""
    blob = dict(pairs)
    if len(blob) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ScenarioError(f"key {_brief(repr(key))} is given twice")
            seen.add(key)
    return blob


# one decoder for every parse: json.loads builds a new one for each call given a hook
_DECODER = json.JSONDecoder(object_pairs_hook=_object)


def _proposition(frame: Frame, nested, where: str) -> Proposition:
    terms = _expect(nested, list, where)
    for i, term in enumerate(terms):
        term = _expect(term, list, f"{where}[{i}]")
        for j, name in enumerate(term):
            _expect(name, str, f"{where}[{i}][{j}]")
    return _checked(where, proposition_from_names, frame, terms)


def parse_scenario(text: str) -> Scenario:
    """Validate scenario JSON, raising ScenarioError naming the broken field."""
    try:
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        data = _DECODER.decode(text)
    except ScenarioError:
        raise
    except (ValueError, RecursionError) as exc:  # also too deep, or an integer too long to read
        # a scenario author cannot act on Python's advice to raise its digit limit
        reason = str(exc).partition("; use sys.set_int_max_str_digits()")[0]
        raise ScenarioError(f"not valid JSON: {reason}") from exc
    data = _fields(
        data,
        "",
        ("frame", "constraints", "rules", "observations", "queries", "engines", "dst_axes"),
    )

    names = _get(data, "frame", list, "", required=True)
    for i, name in enumerate(names):
        _name(name, f"frame[{i}]")
        # the reports print terms as names joined by ∩ and ∪, so a name holding one is ambiguous
        if "∩" in name or "∪" in name:
            raise ScenarioError(f"frame[{i}] must not contain ∩ or ∪, got {_brief(repr(name))}")
        if name == "∅":  # the reports print the empty proposition as ∅
            raise ScenarioError(f"frame[{i}] must not be ∅, the name of the empty proposition")
    frame = _checked("frame", Frame, tuple(names))

    constraint_sets = []
    for i, group in enumerate(_get(data, "constraints", list, "", default=[])):
        group = _expect(group, list, f"constraints[{i}]")
        members = set()
        for j, name in enumerate(group):
            where = f"constraints[{i}][{j}]"
            members.add(_checked(where, frame.index, _expect(name, str, where)))
        constraint_sets.append(frozenset(members))
    model = _checked("constraints", Model.from_constraints, frame, constraint_sets)

    rules = []
    for i, blob in enumerate(_get(data, "rules", list, "", default=[])):
        blob = _fields(blob, f"rules[{i}].", ("if", "then", "weight"))
        antecedent = _proposition(frame, _get(blob, "if", list, f"rules[{i}].", required=True), f"rules[{i}].if")
        consequent = _proposition(frame, _get(blob, "then", list, f"rules[{i}].", required=True), f"rules[{i}].then")
        weight = _get(blob, "weight", float, f"rules[{i}].", required=True)
        rules.append(_checked(f"rules[{i}]", WeightedRule, antecedent, consequent, weight))

    observations = tuple(
        _proposition(frame, blob, f"observations[{i}]")
        for i, blob in enumerate(_get(data, "observations", list, "", default=[]))
    )
    queries = tuple(
        _proposition(frame, blob, f"queries[{i}]")
        for i, blob in enumerate(_get(data, "queries", list, "", default=[]))
    )

    engines = _get(data, "engines", list, "", default=["dsm"])
    for i, engine in enumerate(engines):
        _expect(engine, str, f"engines[{i}]")

    dst_axes = None
    if "dst_axes" in data:
        axes_blob = _fields(data["dst_axes"], "dst_axes.", ("axes", "map"))
        axes = _get(axes_blob, "axes", list, "dst_axes.", required=True)
        for i, axis in enumerate(axes):
            axis = _expect(axis, list, f"dst_axes.axes[{i}]")
            for j, value in enumerate(axis):
                _name(value, f"dst_axes.axes[{i}][{j}]")
        literal_map = {}
        for name, coordinate in _get(axes_blob, "map", dict, "dst_axes.", required=True).items():
            where = f"dst_axes.map[{_brief(repr(name))}]"
            coordinate = _expect(coordinate, list, where)
            if len(coordinate) != 2:
                raise ScenarioError(f"{where} must be [axis, value]")
            axis = _expect(coordinate[0], float, f"{where}[0]")
            value = _expect(coordinate[1], float, f"{where}[1]")
            if not (axis.is_integer() and value.is_integer()):  # also NaN and ±inf
                raise ScenarioError(f"{where} must hold integers")
            literal_map[_name(name, "dst_axes.map key")] = (int(axis), int(value))
        dst_axes = _checked("dst_axes", lambda: DstAxes(AtomFrame(axes), literal_map))

    return _checked(
        "", Scenario, frame, model, tuple(rules), observations, queries, tuple(engines), dst_axes
    )


# ------------------------------------------------------------------ emission


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def _rows(report: FusionReport) -> list[tuple[str, str, str, str, str]]:
    rows = []
    for result in report.results:
        for row in result.queries:
            if row.estimate is not None:
                bel = pl = _fmt(row.estimate)
            else:
                bel, pl = _fmt(row.bel), _fmt(row.pl)
            rows.append((result.engine, str(row.query), bel, pl, row.note))
    return rows


def _table(report: FusionReport) -> str:
    lines = []
    summary = [("engine", "status", "conflict", "K", "flags")]
    for result in report.results:
        summary.append(
            (
                result.engine,
                result.status,
                _fmt(result.conflict_mass),
                _fmt(result.normalization_constant),
                "; ".join(result.flags),
            )
        )
    lines.extend(_align(summary))
    for result in report.results:
        if result.estimates is not None:
            est = result.estimates
            lines.append(
                f"{result.engine} estimates: p_fly={_fmt(float(est.p_fly))} "
                f"p_not_fly={_fmt(float(est.p_not_fly))} "
                f"additivity_deficit={_fmt(float(est.additivity_deficit))} "
                f"bound={_fmt(float(est.bound))}"
            )
    lines.append("")
    lines.extend(_align([("engine", "query", "bel", "pl", "note")] + _rows(report)))
    return "\n".join(lines) + "\n"


def _align(rows: list[tuple[str, ...]]) -> list[str]:
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    return [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


def _csv(report: FusionReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("engine", "query", "bel", "pl", "note"))
    writer.writerows(_rows(report))
    return buffer.getvalue()


def emit_report(report: FusionReport, fmt: str = "table") -> str:
    """Render a report deterministically; same report, same bytes.

    ``json`` is :func:`~hyperbelief.json_report.render_json`, the one
    definition of that format.  ``table`` and ``csv`` print one row per
    engine and query.
    """
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return _csv(report)
    if fmt == "table":
        return _table(report)
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------- subcommands


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _report(scenario: Scenario, fmt: str) -> int:
    """Run the scenario and print its report; exit 3 if an engine found it inconsistent."""
    report = run_scenario(scenario)
    sys.stdout.write(emit_report(report, fmt))
    if any(result.status == "inconsistent" for result in report.results):
        return EXIT_INCONSISTENT
    return EXIT_OK


def _run_fuse(args: argparse.Namespace) -> int:
    scenario = parse_scenario(_read_input(args.path))
    if args.engine:
        engines = ENGINES if args.engine == "all" else (args.engine,)
        scenario = _checked("", scenario.with_engines, engines)
    if args.verbose:
        print(
            f"running {', '.join(scenario.engines)} on {len(scenario.rules)} rule(s), "
            f"{len(scenario.observations)} observation(s)",
            file=sys.stderr,
        )
    return _report(scenario, args.fmt)


def _run_compare(args: argparse.Namespace) -> int:
    scenario = parse_scenario(_read_input(args.path))
    engines = tuple(
        engine
        for engine in ENGINES
        if engine != "dst" or scenario.dst_axes is not None
    )
    if "dst" not in engines:
        print("note: dst skipped (scenario declares no dst_axes)", file=sys.stderr)
    return _report(_checked("", scenario.with_engines, engines), args.fmt)


def _enumeration_lines(n: int) -> Callable[[Iterable[int]], list[str]]:
    """A renderer of rank bit sets from ``_antichains(n)``, one line of text each.

    A line of one term (or none) is looked up whole.  A longer one is its
    bracketed terms, each followed by " ∪ ", with the last separator cut.
    """
    members = [_members(s) for s in _term_order(n)]
    alone = {1 << r: _term_text(_ENUM_NAMES, term, False) for r, term in enumerate(members)}
    alone[0] = _union_text([])
    w, (t0, t1, t2, t3) = _rank_tables(n, [_term_text(_ENUM_NAMES, term, True) + " ∪ " for term in members])
    m, w2, w3 = (1 << w) - 1, 2 * w, 3 * w

    def lines(antichains: Iterable[int]) -> list[str]:
        return [
            (t0[b & m] + t1[b >> w & m] + t2[b >> w2 & m] + t3[b >> w3])[:-3] if b & b - 1 else alone[b]
            for b in antichains
        ]

    return lines


def _run_enumerate(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ScenarioError("--n must be at least 1")
    _check_enumeration_limit(args.n, args.allow_large, "--allow-large")
    render = _enumeration_lines(args.n)
    antichains = _antichains(args.n)
    count = 0
    while lines := render(islice(antichains, _ENUM_CHUNK)):
        count += len(lines)
        sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.write(f"total {count}\n")
    return EXIT_OK


def _run_check_logic(args: argparse.Namespace) -> int:
    all_hold = True
    for name, text in CLASSICAL_PRINCIPLES.items():
        holds = tautology_check(parse_formula(text))
        all_hold &= holds
        print(f"{name:20s} {text:45s} {'tautology' if holds else 'FALSIFIABLE'}")
    return EXIT_OK if all_hold else 1


# -------------------------------------------------------------------- driver


@cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperbelief",
        description="Fuse weighted rule bases with Bayesian, Dempster-Shafer, "
        "and hybrid DSm engines.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="diagnostics on stderr")
    commands = parser.add_subparsers(dest="subcommand", required=True)

    fuse = commands.add_parser("fuse", help="run a scenario file ('-' reads stdin)")
    fuse.add_argument("path")
    fuse.add_argument("--engine", choices=(*ENGINES, "all"), help="override the scenario's engines")
    fuse.add_argument("--format", dest="fmt", choices=("table", "json", "csv"), default="table")

    compare = commands.add_parser("compare", help="run every engine the scenario supports")
    compare.add_argument("path")
    compare.add_argument("--format", dest="fmt", choices=("table", "json", "csv"), default="table")

    enumerate_cmd = commands.add_parser("enumerate", help="print the hyper-power set")
    enumerate_cmd.add_argument("--n", type=int, required=True, help="number of singletons")
    enumerate_cmd.add_argument("--allow-large", action="store_true", help="permit n above the default cap")

    commands.add_parser("check-logic", help="verify the classical principles by truth table")
    return parser


_COMMANDS = {
    "fuse": _run_fuse,
    "compare": _run_compare,
    "enumerate": _run_enumerate,
    "check-logic": _run_check_logic,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.subcommand](args)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except EnumerationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT


# park the imports' objects outside the collector, so no op pays to rescan them
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
