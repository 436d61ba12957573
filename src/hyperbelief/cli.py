"""Command-line front end: scenario ingestion, engine dispatch, report output.

Subcommands:

* ``fuse <file>``      — run the engines a scenario selects (``-`` = stdin).
* ``compare <file>``   — run every engine the scenario can support.
* ``enumerate --n k``  — print the canonical propositions over k singletons.
* ``check-logic``      — re-verify the classical principles by truth table.

Exit codes: 0 success, 1 the report could not be written (or ``check-logic``
found a principle falsifiable), 2 input error, 3 inconsistent system (total
conflict), 4 size limit exceeded: an enumeration above its cap, or a dst
frame of more atoms than ``lattice.ATOM_LIMIT``.  Inconsistency is a
finding, not a fault, so it gets its own code instead of a generic failure.

The argv is read by one table, ``_PARSERS``: an entry per subcommand with
its handler, its positional argument and its long options (dest, choices or
``int``, default), and one for the top level with ``-h/--help`` and
``-v/--verbose``.  Options and the positional come in any order; a long
option may be cut to a unique prefix and given as ``--opt=value``; ``--``
ends the options, and ``-`` names stdin.  ``--help`` prints a fixed text.  A
usage error prints a usage block and the reason on stderr, and exits 2.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import os
import re
import sys
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
    _name_masks,
    _rank_tables,
    _term_order,
    _term_text,
    _union_text,
    proposition_from_names,
)
from .rulebase import ENGINES, DstAxes, FusionReport, Scenario, WeightedRule, run_scenario

EXIT_OK = 0
EXIT_WRITE_ERROR = 1
EXIT_INPUT_ERROR = 2
EXIT_INCONSISTENT = 3
EXIT_LIMIT = 4

_ENUM_NAMES = "abcdef"  # one name per singleton, up to the hard enumeration limit


class ScenarioError(ValueError):
    """Scenario text that cannot be turned into a valid Scenario."""


def _checked(where: str, build: Callable, *args, at: tuple = ()):
    """``build(*args)``; its ValueError becomes a ScenarioError, prefixed with the path ``where``, if any."""
    try:
        return build(*args)
    except ValueError as exc:
        where = _path(where, at)
        raise ScenarioError(f"{where}: {exc}" if where else str(exc)) from exc


# ------------------------------------------------------------------- parsing
# One pass over the decoded JSON; a field path is built only for a value that
# is refused, by ``_path`` from a format string and the steps that fill it.

_SCENARIO_FIELDS = frozenset(("frame", "constraints", "rules", "observations", "queries", "engines", "dst_axes"))
_RULE_FIELDS = frozenset(("if", "then", "weight"))
_AXES_FIELDS = frozenset(("axes", "map"))


def _path(where: str, at: tuple) -> str:
    """The field path ``where.format(*at)``; a name in ``at`` is echoed quoted and cut short."""
    return where.format(*(_brief(repr(step)) if type(step) is str else step for step in at))


def _typed(value, kind: type, where: str, *at):
    """``value``, which must be of JSON type ``kind``; for float, any number, as a float."""
    if type(value) is kind:
        return value
    if kind is not float:
        raise ScenarioError(f"{_path(where, at)} must be {kind.__name__}, got {type(value).__name__}")
    if type(value) is not int:
        raise ScenarioError(f"{_path(where, at)} must be a number, got {_brief(repr(value))}")
    try:
        return float(value)
    except OverflowError:  # an integer literal past the float range
        raise ScenarioError(f"{_path(where, at)} is too large for a float") from None


def _name(value, where: str, *at) -> str:
    """A string the reports print: it must encode as UTF-8, so no lone surrogate."""
    if type(value) is str and value.isascii():  # a lone surrogate is never ASCII
        return value
    name = _typed(value, str, where, *at)
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:  # JSON can escape half of a surrogate pair, "\ud800"
        raise ScenarioError(f"{_path(where, at)} holds a lone surrogate, got {_brief(repr(name))}") from None
    return name


def _get(blob: dict, key: str, kind: type, where: str = "", *at, default=...):
    """``blob[key]``, of JSON type ``kind``; ``default`` if absent, which ``...`` refuses."""
    if key not in blob:
        if default is ...:
            raise ScenarioError(f"missing required field {_path(where, at)}{key}")
        return default
    value = blob[key]
    return value if type(value) is kind else _typed(value, kind, where + key, *at)


def _fields(value, known: frozenset[str], where: str = "", *at) -> dict:
    """A JSON object whose keys all lie in ``known``; ``where`` prefixes their paths."""
    if type(value) is not dict:
        _typed(value, dict, _path(where, at).rstrip(".") or "scenario")
    if not value.keys() <= known:
        key = next(key for key in value if key not in known)
        raise ScenarioError(f"unknown field {_path(where, at)}{_brief(key)}")
    return value


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


def _proposition(frame: Frame, nested, where: str, *at) -> Proposition:
    """The proposition ``nested`` spells; a refused one is walked again for its first fault."""
    try:
        if type(nested) is list:
            return proposition_from_names(frame, nested)
    except (ValueError, TypeError):
        pass
    where = _path(where, at)  # built from fixed names and indices, so it holds no braces
    for i, term in enumerate(_typed(nested, list, where)):
        for j, name in enumerate(_typed(term, list, where + "[{}]", i)):
            _typed(name, str, where + "[{}][{}]", i, j)
    return _checked(where, proposition_from_names, frame, nested)


def parse_scenario(text: str) -> Scenario:
    """Validate scenario JSON, raising ScenarioError naming the broken field.

    The first fault is reported: invalid JSON (a key given twice too), then
    the fields in the order read below, each value before its parts.  Within
    a proposition a wrong type anywhere comes first, then the first unknown
    name, then an empty term.  The frame, the model, each rule and
    ``dst_axes`` are checked as wholes after their parts; the scenario
    (queries, engines, each rule and observation against the model) last.
    """
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
    data = _fields(data, _SCENARIO_FIELDS)

    names = _get(data, "frame", list)
    for i, name in enumerate(names):
        _name(name, "frame[{}]", i)
        # the reports print terms as names joined by ∩ and ∪, so a name holding one is ambiguous
        if "∩" in name or "∪" in name:
            raise ScenarioError(f"frame[{i}] must not contain ∩ or ∪, got {_brief(repr(name))}")
        if name == "∅":  # the reports print the empty proposition as ∅
            raise ScenarioError(f"frame[{i}] must not be ∅, the name of the empty proposition")
    frame = _checked("frame", Frame, names)

    groups = _get(data, "constraints", list, default=[])
    try:
        masks = _name_masks(frame._index, groups)
    except (KeyError, TypeError):  # walk again for the first fault: a wrong type or an unknown name
        for i, group in enumerate(groups):
            for j, name in enumerate(_typed(group, list, "constraints[{}]", i)):
                _checked("constraints[{}][{}]", frame.index, _typed(name, str, "constraints[{}][{}]", i, j), at=(i, j))
        raise
    model = _checked("constraints", Model, frame, frozenset(masks))

    rules = []
    for i, blob in enumerate(_get(data, "rules", list, default=[])):
        blob = _fields(blob, _RULE_FIELDS, "rules[{}].", i)
        antecedent = _proposition(frame, _get(blob, "if", list, "rules[{}].", i), "rules[{}].if", i)
        consequent = _proposition(frame, _get(blob, "then", list, "rules[{}].", i), "rules[{}].then", i)
        weight = _get(blob, "weight", float, "rules[{}].", i)
        rules.append(_checked("rules[{}]", WeightedRule, antecedent, consequent, weight, at=(i,)))

    observations = tuple(
        _proposition(frame, blob, "observations[{}]", i)
        for i, blob in enumerate(_get(data, "observations", list, default=[]))
    )
    queries = tuple(
        _proposition(frame, blob, "queries[{}]", i)
        for i, blob in enumerate(_get(data, "queries", list, default=[]))
    )

    engines = _get(data, "engines", list, default=["dsm"])
    for i, engine in enumerate(engines):
        _typed(engine, str, "engines[{}]", i)

    dst_axes = None
    if "dst_axes" in data:
        axes_blob = _fields(data["dst_axes"], _AXES_FIELDS, "dst_axes.")
        axes = _get(axes_blob, "axes", list, "dst_axes.")
        for i, axis in enumerate(axes):
            for j, value in enumerate(_typed(axis, list, "dst_axes.axes[{}]", i)):
                _name(value, "dst_axes.axes[{}][{}]", i, j)
        literal_map = {}
        where = "dst_axes.map[{}]"
        for name, coordinate in _get(axes_blob, "map", dict, "dst_axes.").items():
            if len(_typed(coordinate, list, where, name)) != 2:
                raise ScenarioError(f"{_path(where, (name,))} must be [axis, value]")
            axis = _typed(coordinate[0], float, where + "[0]", name)
            value = _typed(coordinate[1], float, where + "[1]", name)
            if not (axis.is_integer() and value.is_integer()):  # also NaN and ±inf
                raise ScenarioError(f"{_path(where, (name,))} must hold integers")
            literal_map[_name(name, "dst_axes.map key")] = (int(axis), int(value))
        dst_axes = _checked("dst_axes", lambda: DstAxes(AtomFrame(axes), literal_map))

    return _checked(
        "", Scenario, model, tuple(rules), observations, queries, tuple(engines), dst_axes
    )


# ------------------------------------------------------------------ emission


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def _rows(report: FusionReport) -> list[tuple[str, str, str, str, str]]:
    rows = []
    texts: dict[Proposition, str] = {}  # the engines share the scenario's queries
    for result in report.results:
        for row in result.queries:
            if row.estimate is not None:
                bel = pl = _fmt(row.estimate)
            else:
                bel, pl = _fmt(row.bel), _fmt(row.pl)
            text = texts.get(row.query)
            if text is None:
                text = texts[row.query] = str(row.query)
            rows.append((result.engine, text, bel, pl, row.note))
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
    """The text of the file at ``path``, or of stdin for ``-``.

    Either is read once, as bytes, and decoded as strict UTF-8.  A refused
    byte, and a file that cannot be opened or read, turn into a
    ScenarioError.  The line ends then read as text mode reads them:
    ``\\r\\n`` and a lone ``\\r`` become ``\\n``.
    """
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb", buffering=0) as handle:
                data = handle.read()
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not valid UTF-8: {exc.reason} (byte {exc.start})") from None
    except OSError as exc:
        raise ScenarioError(str(exc)) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _report(scenario: Scenario, fmt: str) -> int:
    """Run the scenario and print its report; exit 3 if an engine found it inconsistent."""
    report = run_scenario(scenario)
    sys.stdout.write(emit_report(report, fmt))
    if any(result.status == "inconsistent" for result in report.results):
        return EXIT_INCONSISTENT
    return EXIT_OK


def _run_fuse(args: dict) -> int:
    scenario = parse_scenario(_read_input(args["path"]))
    engine = args["engine"]
    if engine:
        engines = ENGINES if engine == "all" else (engine,)
        scenario = _checked(f"--engine {engine}", scenario.with_engines, engines)
    if args["verbose"]:
        print(
            f"running {', '.join(scenario.engines)} on {len(scenario.rules)} rule(s), "
            f"{len(scenario.observations)} observation(s)",
            file=sys.stderr,
        )
    return _report(scenario, args["fmt"])


def _run_compare(args: dict) -> int:
    scenario = parse_scenario(_read_input(args["path"]))
    engines = tuple(
        engine
        for engine in ENGINES
        if engine != "dst" or scenario.dst_axes is not None
    )
    if "dst" not in engines:
        print("note: dst skipped (scenario declares no dst_axes)", file=sys.stderr)
    return _report(_checked("", scenario.with_engines, engines), args["fmt"])


def _enumeration_lines(n: int) -> Callable[[Iterable[int]], list[str]]:
    """A renderer of a block of rank bit sets from ``_antichains(n)``, one line of text each.

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


def _run_enumerate(args: dict) -> int:
    n = args["n"]
    if n < 1:
        raise ScenarioError("--n must be at least 1")
    _check_enumeration_limit(n, args["allow_large"], "--allow-large")
    render = _enumeration_lines(n)
    count = 0
    for block in _antichains(n):  # one write per block: n = 6 never holds its output at once
        count += len(block)
        sys.stdout.write("\n".join(render(block)) + "\n")
    sys.stdout.write(f"total {count}\n")
    return EXIT_OK


def _run_check_logic(args: dict) -> int:
    all_hold = True
    for name, text in CLASSICAL_PRINCIPLES.items():
        holds = tautology_check(parse_formula(text))
        all_hold &= holds
        print(f"{name:20s} {text:45s} {'tautology' if holds else 'FALSIFIABLE'}")
    return EXIT_OK if all_hold else 1


# -------------------------------------------------------------------- driver

_HELP = ("-h/--help", "help", "help", None)
_FORMAT = ("--format", "fmt", ("table", "json", "csv"), "table")


def _options(*specs: tuple) -> dict[str, tuple]:
    """Each spec under each of its option strings, ``-h`` before ``--help``."""
    return {string: spec for spec in specs for string in spec[0].split("/")}


# The argv table: one entry per subcommand, and the top level under None.
# An entry is (handler, positional, options, help).  ``positional`` is the
# dest of the one positional argument; at the top level it names the
# subcommand, which reads every later string.  ``options`` maps each option
# string to its spec (name, dest, kind, default): ``kind`` is a tuple of
# choices, ``int``, None for a flag that stores True, or "help"; a default of
# ``...`` marks an option that must be given.  ``help`` is the fixed text of
# ``--help``; its first paragraph is the usage block of a usage error.
_PARSERS: dict[str | None, tuple] = {
    None: (
        None,
        "subcommand",
        _options(_HELP, ("-v/--verbose", "verbose", None, False)),
        """\
usage: hyperbelief [-h] [-v] {fuse,compare,enumerate,check-logic} ...

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
    "fuse": (
        _run_fuse,
        "path",
        _options(_HELP, ("--engine", "engine", (*ENGINES, "all"), None), _FORMAT),
        """\
usage: hyperbelief fuse [-h] [--engine {bayes,dst,dsm,all}]
                        [--format {table,json,csv}]
                        path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --engine {bayes,dst,dsm,all}
                        override the scenario's engines
  --format {table,json,csv}
""",
    ),
    "compare": (
        _run_compare,
        "path",
        _options(_HELP, _FORMAT),
        """\
usage: hyperbelief compare [-h] [--format {table,json,csv}] path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --format {table,json,csv}
""",
    ),
    "enumerate": (
        _run_enumerate,
        None,
        _options(_HELP, ("--n", "n", int, ...), ("--allow-large", "allow_large", None, False)),
        """\
usage: hyperbelief enumerate [-h] --n N [--allow-large]

options:
  -h, --help     show this help message and exit
  --n N          number of singletons
  --allow-large  permit n above the default cap
""",
    ),
    "check-logic": (
        _run_check_logic,
        None,
        _options(_HELP),
        """\
usage: hyperbelief check-logic [-h]

options:
  -h, --help  show this help message and exit
""",
    ),
}

_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # read as a positional, not as an option


class _Stop(Exception):
    """The end of reading argv: ``--help`` (exit 0, text for stdout) or a usage error (exit 2)."""

    def __init__(self, code: int, text: str) -> None:
        super().__init__(text)
        self.code = code
        self.text = text


def _usage_error(command: str | None, message: str) -> _Stop:
    usage = _PARSERS[command][3].partition("\n\n")[0]
    prog = "hyperbelief" if command is None else f"hyperbelief {command}"
    return _Stop(EXIT_INPUT_ERROR, f"{usage}\n{prog}: error: {message}\n")


def _read_option(command: str | None, arg: str):
    """None if ``arg`` is a positional, else (spec, option string, explicit value or None).

    The spec is None for an option the table does not know.  A long option
    may be cut to a unique prefix, and any option may carry ``=value``; a
    short one may carry more short flags, as in ``-vv``.
    """
    options = _PARSERS[command][2]
    if arg[:1] != "-":
        return None
    if arg in options:
        return options[arg], arg, None
    if arg == "-":
        return None
    string, eq, explicit = arg.partition("=")
    if eq and string in options:
        return options[string], string, explicit
    if arg[1] == "-":
        found = [(option, explicit if eq else None) for option in options if option.startswith(string)]
    else:
        found = [(arg[:2], arg[2:])] if arg[:2] in options else []
    if len(found) > 1:
        matches = ", ".join(option for option, _ in found)
        raise _usage_error(command, f"ambiguous option: {arg} could match {matches}")
    if found:
        option, explicit = found[0]
        return options[option], option, explicit
    if _NEGATIVE.match(arg) or " " in arg:
        return None
    return None, arg, None


def _read_options(command: str | None, argv: list[str]) -> tuple[list, int]:
    """``_read_option`` of each string, and the index of the first ``--``, after which all are positionals."""
    ends = argv.index("--") if "--" in argv else len(argv)
    return [_read_option(command, arg) for arg in argv[:ends]] + [None] * (len(argv) - ends), ends


def _take_option(command: str | None, argv: list[str], reads: list, i: int, args: dict, extras: list) -> int:
    """Store the option at ``argv[i]`` and its value in ``args``; return the index after them."""
    spec, string, explicit = reads[i]
    if spec is None:
        extras.append(argv[i])
        return i + 1
    options = _PARSERS[command][2]
    taken = []  # (spec, value or None): -vh is -v then -h
    while explicit is not None and spec[2] in (None, "help"):
        if string[1] == "-" or not explicit or "-" + explicit[0] not in options:
            raise _usage_error(command, f"argument {spec[0]}: ignored explicit argument {explicit!r}")
        taken.append((spec, None))
        string = "-" + explicit[0]
        spec, explicit = options[string], explicit[1:] or None
    stop = i + 1
    if explicit is None and spec[2] not in (None, "help"):  # the value is the next string
        if stop == len(argv) or reads[stop] is not None or argv[stop] == "--":
            raise _usage_error(command, f"argument {spec[0]}: expected one argument")
        explicit, stop = argv[stop], stop + 1
    taken.append((spec, explicit))
    for (name, dest, kind, _), value in taken:
        if kind == "help":
            raise _Stop(EXIT_OK, _PARSERS[command][3])
        if kind is None:
            value = True
        elif kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _usage_error(command, f"argument {name}: invalid int value: {value!r}") from None
        elif value not in kind:
            choices = ", ".join(map(repr, kind))
            raise _usage_error(command, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        args[dest] = value
    return stop


def _read_argv(argv: list[str]) -> tuple[str, dict]:
    """The subcommand and its arguments, read by the argv table; raises _Stop instead."""
    args = {"verbose": False}
    extras: list[str] = []
    reads, _ = _read_options(None, argv)
    i = 0
    while i < len(argv) and reads[i] is not None:
        i = _take_option(None, argv, reads, i, args, extras)
    name = _PARSERS[None][1]
    if argv[i:] in ([], ["--"]):
        raise _usage_error(None, f"the following arguments are required: {name}")
    command = argv[i]
    if command not in _PARSERS:
        choices = ", ".join(repr(known) for known in _PARSERS if known is not None)
        raise _usage_error(None, f"argument {name}: invalid choice: {command!r} (choose from {choices})")
    _, positional, options, _ = _PARSERS[command]
    for _, dest, kind, default in options.values():
        if kind != "help":
            args[dest] = None if default is ... else default
    if positional:
        args[positional] = None
    argv = argv[i + 1 :]
    reads, ends = _read_options(command, argv)
    i = 0
    while i < len(argv):
        if reads[i] is not None:
            i = _take_option(command, argv, reads, i, args, extras)
            continue
        at = i + (i == ends)  # a "--" before the positional is taken with it
        if positional and args[positional] is None and at < len(argv):
            args[positional] = argv[at]
            i = at + 1 + (at + 1 == ends)  # and so is a "--" straight after it
        else:
            extras.append(argv[i])
            i += 1
    missing = [positional] if positional and args[positional] is None else []
    missing += [name for name, dest, _, default in options.values() if default is ... and args[dest] is None]
    if missing:
        raise _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _usage_error(None, f"unrecognized arguments: {' '.join(extras)}")
    return command, args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            command, args = _read_argv(sys.argv[1:] if argv is None else list(argv))
        except _Stop as stop:
            (sys.stdout if stop.code == EXIT_OK else sys.stderr).write(stop.text)
            code = stop.code
        else:
            code = _PARSERS[command][0](args)
        sys.stdout.flush()  # a block-buffered report fails here, not at exit
        return code
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except EnumerationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except OSError as exc:  # the report could not be written
        print(f"error: {exc}", file=sys.stderr)
        if sys.stdout is sys.__stdout__:  # so exit's flush of the rest cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_WRITE_ERROR


# park the imports' objects outside the collector, so no op pays to rescan them
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
