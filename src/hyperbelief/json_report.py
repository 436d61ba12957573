"""The ``--format json`` report, written from its fixed schema.

``render_json(report)`` is the one definition of these bytes, and
:meth:`FusionReport.to_json` parses them back.  They are what
``json.dumps(tree, indent=2, ensure_ascii=False)`` prints for the report's
dict tree, plus a newline, but no tree is built: with ``indent`` set,
``json.dumps`` runs CPython's pure-Python encoder over every key, list and
float of a report whose name blocks mostly repeat.  The strings go through
the encoder's own ``encode_basestring`` and the floats through
``float.__repr__``, as ``json.dumps`` does.

Each object of the schema (the report, a result, a query row, a fused item
and its ``masses`` wrapper, the estimates) is one ``%`` template, built once
at import from its keys and indent depth, so rendering one fills in its
values and nothing more.  The engines of a report ask the same queries, so
one report renders each query tuple's propositions once.  The result types
are annotations only, so ``rulebase`` imports this module without a cycle.
"""

from __future__ import annotations

from json.encoder import encode_basestring
from math import isfinite
from typing import TYPE_CHECKING, Sequence

from .analysis import BayesEstimates
from .belief import BBA
from .lattice import AtomFrame, Frame, Proposition, _members, _term_ranks

if TYPE_CHECKING:
    from .rulebase import AtomMasses, EngineResult, FusionReport

_BREAK = tuple("\n" + "  " * depth for depth in range(10))  # a new line at each indent depth


def _number(value: float | None) -> str:
    """A float or None as ``json.dumps`` prints it."""
    if value is None:
        return "null"
    if not isfinite(value):
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _array(items: list[str], depth: int) -> str:
    """A JSON array at ``depth`` of items already rendered one level deeper."""
    if not items:
        return "[]"
    inner = _BREAK[depth + 1]
    return "[" + inner + ("," + inner).join(items) + _BREAK[depth] + "]"


def _template(keys: tuple[str, ...], depth: int) -> str:
    """A ``%`` template of a JSON object at ``depth`` with these ASCII keys,
    whose values come rendered one level deeper."""
    inner = _BREAK[depth + 1]
    return "{" + inner + ("," + inner).join(f'"{key}": %s' for key in keys) + _BREAK[depth] + "}"


_REPORT = _template(("results",), 0)
_RESULT = _template(
    (
        "engine",
        "status",
        "fused",
        "conflict_mass",
        "stage_conflicts",
        "normalization_constant",
        "queries",
        "flags",
        "estimates",
    ),
    2,
)
_MASSES = _template(("masses",), 3)
_FUSED_ITEM = _template(("prop", "mass"), 5)
_QUERY = _template(("query", "bel", "pl", "estimate", "note"), 4)
_ESTIMATES = _template(("p_fly", "p_not_fly", "additivity_deficit", "bound", "validity_flags"), 3)


class _JsonWriter:
    """The writer of one report: it renders each distinct term's indented
    name block once, from the term mask for a lattice proposition and from
    the atom index for a dst atom set."""

    def __init__(self) -> None:
        # (frame names, depth) -> term mask -> block; axes -> atom index -> block
        self._terms: dict[tuple[tuple[str, ...], int], dict[int, str]] = {}
        self._atoms: dict[tuple[tuple[str, ...], ...], dict[int, str]] = {}
        # query propositions -> their rendered arrays; the engines share one query tuple
        self._queries: dict[tuple[Proposition, ...], list[str]] = {}

    def report(self, report: FusionReport) -> str:
        return _REPORT % _array([self._result(result) for result in report.results], 1)

    def _result(self, result: EngineResult) -> str:
        queries = tuple([row.query for row in result.queries])
        props = self._queries.get(queries)
        if props is None:
            props = self._props(queries[0].frame, queries, 5) if queries else []
            self._queries[queries] = props
        rows = [
            _QUERY
            % (
                prop,
                _number(row.bel),
                _number(row.pl),
                _number(row.estimate),
                encode_basestring(row.note),
            )
            for row, prop in zip(result.queries, props)
        ]
        return _RESULT % (
            encode_basestring(result.engine),
            encode_basestring(result.status),
            "null" if result.fused is None else self._fused(result.fused),
            _number(result.conflict_mass),
            _array(list(map(_number, result.stage_conflicts)), 3),
            _number(result.normalization_constant),
            _array(rows, 3),
            _array(list(map(encode_basestring, result.flags)), 3),
            "null" if result.estimates is None else _estimates(result.estimates),
        )

    def _fused(self, fused: BBA | AtomMasses) -> str:
        if isinstance(fused, BBA):
            props = self._props(fused.frame, list(fused.masses), 6)
        else:
            props = [self._atom_set(fused.axes, focal) for focal in fused.masses]
        items = [
            _FUSED_ITEM % (prop, _number(mass)) for prop, mass in zip(props, fused.masses.values())
        ]
        return _MASSES % _array(items, 4)

    def _props(self, frame: Frame, props: Sequence[Proposition], depth: int) -> list[str]:
        """Each proposition as an array at ``depth`` of its term arrays, in canonical order.

        A proposition's terms sort as their ranks among all the distinct
        terms (:func:`_term_ranks`).  Ranks among more terms keep the same
        relative order, so each proposition reads the same whatever list
        it is rendered in.
        """
        blocks = self._terms.setdefault((frame.names, depth), {})
        rank = _term_ranks(t for p in props for t in p.masks)
        texts = []
        for t in rank:
            text = blocks.get(t)
            if text is None:
                names = [encode_basestring(frame.names[i]) for i in _members(t)]
                text = blocks[t] = _array(names, depth + 1)
            texts.append(text)
        return [
            _array([texts[r] for r in sorted(map(rank.__getitem__, p.masks))], depth) for p in props
        ]

    def _atom_set(self, axes: AtomFrame, focal: int) -> str:
        """An atom mask as one single-name term array per atom, atoms ascending."""
        blocks = self._atoms.setdefault(axes.axes, {})
        terms = []
        for i in _members(focal):
            block = blocks.get(i)
            if block is None:
                block = blocks[i] = _array([encode_basestring(axes.atom_name(i))], 7)
            terms.append(block)
        return _array(terms, 6)


def _estimates(estimates: BayesEstimates) -> str:
    return _ESTIMATES % (
        _number(float(estimates.p_fly)),
        _number(float(estimates.p_not_fly)),
        _number(float(estimates.additivity_deficit)),
        _number(float(estimates.bound)),
        _array(list(map(encode_basestring, estimates.validity_flags)), 4),
    )


def render_json(report: FusionReport) -> str:
    """The report's ``--format json`` text: a ``results`` array, one object per engine."""
    return _JsonWriter().report(report) + "\n"
