"""The ``--format json`` report, written from its fixed schema.

``render_json(report)`` is the one definition of these bytes, and
:meth:`FusionReport.to_json` parses them back.  They are what
``json.dumps(tree, indent=2, ensure_ascii=False)`` prints for the report's
dict tree, plus a newline, but no tree is built: with ``indent`` set,
``json.dumps`` runs CPython's pure-Python encoder over every key, list and
float of a report whose name blocks mostly repeat.  The strings go through
the encoder's own ``encode_basestring`` and the floats through
``float.__repr__``, as ``json.dumps`` does.  The result types are
annotations only, so ``rulebase`` imports this module without a cycle.
"""

from __future__ import annotations

from json.encoder import encode_basestring
from math import isfinite
from typing import TYPE_CHECKING

from .analysis import BayesEstimates
from .belief import BBA
from .lattice import AtomFrame, Frame, Proposition, _members, _term_key

if TYPE_CHECKING:
    from .rulebase import AtomMasses, EngineResult, FusionReport, QueryResult

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


def _object(fields: list[tuple[str, str]], depth: int) -> str:
    """A JSON object at ``depth`` of (ASCII key, value rendered one level deeper) fields."""
    inner = _BREAK[depth + 1]
    body = ("," + inner).join(f'"{key}": {value}' for key, value in fields)
    return "{" + inner + body + _BREAK[depth] + "}"


class _JsonWriter:
    """The writer of one report: it renders each distinct term's indented
    name block once, from the term mask for a lattice proposition and from
    the atom index for a dst atom set."""

    def __init__(self) -> None:
        # (frame names, depth) -> term mask -> block; axes -> atom index -> block
        self._terms: dict[tuple[tuple[str, ...], int], dict[int, str]] = {}
        self._atoms: dict[tuple[tuple[str, ...], ...], dict[int, str]] = {}

    def report(self, report: FusionReport) -> str:
        results = [self._result(result) for result in report.results]
        return _object([("results", _array(results, 1))], 0)

    def _result(self, result: EngineResult) -> str:
        return _object(
            [
                ("engine", encode_basestring(result.engine)),
                ("status", encode_basestring(result.status)),
                ("fused", "null" if result.fused is None else self._fused(result.fused)),
                ("conflict_mass", _number(result.conflict_mass)),
                ("stage_conflicts", _array(list(map(_number, result.stage_conflicts)), 3)),
                ("normalization_constant", _number(result.normalization_constant)),
                ("queries", _array(list(map(self._query, result.queries)), 3)),
                ("flags", _array(list(map(encode_basestring, result.flags)), 3)),
                ("estimates", "null" if result.estimates is None else _estimates(result.estimates)),
            ],
            2,
        )

    def _fused(self, fused: BBA | AtomMasses) -> str:
        if isinstance(fused, BBA):
            props = self._props(fused.frame, list(fused.masses), 6)
        else:
            props = [self._atom_set(fused.axes, focal) for focal in fused.masses]
        # each item is _object([("prop", prop), ("mass", mass)], 5), spelled out
        head, middle = "{" + _BREAK[6] + '"prop": ', "," + _BREAK[6] + '"mass": '
        tail = _BREAK[5] + "}"
        items = [
            head + prop + middle + _number(mass) + tail
            for prop, mass in zip(props, fused.masses.values())
        ]
        return _object([("masses", _array(items, 4))], 3)

    def _query(self, row: QueryResult) -> str:
        return _object(
            [
                ("query", self._props(row.query.frame, [row.query], 5)[0]),
                ("bel", _number(row.bel)),
                ("pl", _number(row.pl)),
                ("estimate", _number(row.estimate)),
                ("note", encode_basestring(row.note)),
            ],
            4,
        )

    def _props(self, frame: Frame, props: list[Proposition], depth: int) -> list[str]:
        """Each proposition as an array at ``depth`` of its term arrays, in canonical order.

        The distinct terms are sorted once by :func:`_term_key`, and a
        proposition's terms then sort as their ranks among them.
        """
        blocks = self._terms.setdefault((frame.names, depth), {})
        terms = sorted({t for p in props for t in p.masks}, key=_term_key)
        texts = []
        for t in terms:
            text = blocks.get(t)
            if text is None:
                names = [encode_basestring(frame.names[i]) for i in _members(t)]
                text = blocks[t] = _array(names, depth + 1)
            texts.append(text)
        rank = {t: r for r, t in enumerate(terms)}
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
    flags = list(map(encode_basestring, estimates.validity_flags))
    return _object(
        [
            ("p_fly", _number(float(estimates.p_fly))),
            ("p_not_fly", _number(float(estimates.p_not_fly))),
            ("additivity_deficit", _number(float(estimates.additivity_deficit))),
            ("bound", _number(float(estimates.bound))),
            ("validity_flags", _array(flags, 4)),
        ],
        3,
    )


def render_json(report: FusionReport) -> str:
    """The report's ``--format json`` text: a ``results`` array, one object per engine."""
    return _JsonWriter().report(report) + "\n"
