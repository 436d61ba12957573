"""Weighted if-then rules, observations, and the per-engine fusion pipeline.

A weighted rule ``antecedent -w-> consequent`` becomes the least-committed
conditional assignment {antecedent∧consequent: w, antecedent: 1−w}: it gives
the consequent exactly the support the weight justifies and parks the rest on
the antecedent alone.  ``run_scenario`` then fuses rules and observations
three ways:

* ``dsm``   — hybrid DSm fusion directly on the constrained lattice: all rule
  BBAs (or the vacuous one) in one pass, then each observation in order.
* ``dst``   — every proposition is refined to its atoms on an exclusive
  frame (``dst_axes``), as an int atom mask with bit i for atom i, by AND/OR
  over one per-run atom table of the singletons' literals, in which an
  unmapped singleton holds no atom and so forbids none; Dempster's rule is
  one fold over those masks from the vacuous assignment on the atoms where
  no declared constraint holds, meeting with ``&`` and normalized as in
  ``dempster_combine``.  The result keeps the masks as keys, ordered by their
  ascending atom lists, and the report names each atom by
  :meth:`AtomFrame.atom_name`.  Total conflict is an inconsistency, not
  raised.
* ``bayes`` — no fusion at all: if the scenario is a three-rule triangle
  (x→cx, y→cy, x→y with observation x∧y and cx, cy exclusive), the
  chain-rule point estimates and their defects are reported.  The match runs
  on term masks: each rule side, the observation and each query is reduced
  under the constraints once, and the sides are compared and met as tuples.

A scenario encodes each rule and each observation once, straight to a mask
dict (see :mod:`~hyperbelief.belief`): reduced term-mask tuples mapped to
their merged, non-zero masses, which sum to 1.  The dsm engine hands one
stage's mask dict to the next and builds a :class:`BBA` only for the result
it reports; the dst engine refines the same dicts.  The public
``rule_to_conditional_bba`` and ``observation_to_bba`` wrap the same dicts.
A scenario, like a BBA, reads its frame from its model, and an engine
result reads its ``conflict_mass`` from its ``stage_conflicts``.
"""

from __future__ import annotations

import json
from functools import cached_property, reduce
from itertools import permutations
from math import fsum
from operator import or_
from typing import Sequence

from ._value import Value, _set
from .analysis import indifference_estimates
from .belief import (
    BBA,
    Masks,
    TotalConflictError,
    _dempster_normalise,
    _hybrid_step,
    _observe,
    belief_intervals,
    fsum_by_key,
)
from .json_report import render_json
from .lattice import (
    Frame,
    Model,
    Proposition,
    _atom_mask,
    _brief,
    _literal_atoms,
    _meet,
    _members,
    _reduce_masks,
    total_ignorance,
)

ENGINES = ("bayes", "dst", "dsm")


class WeightedRule(Value):
    """``antecedent -w-> consequent`` with w = 1 − ε."""

    _fields = ("antecedent", "consequent", "weight")

    def __post_init__(self) -> None:
        if self.antecedent.frame != self.consequent.frame:
            raise ValueError("rule antecedent and consequent use different frames")
        if self.antecedent.is_empty:
            raise ValueError("rule antecedent must not be empty")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"rule weight {self.weight!r} outside [0, 1]")

    def __str__(self) -> str:
        return f"if {self.antecedent} then {self.consequent} (w={self.weight:g})"


def _rule_masses(rule: WeightedRule, model: Model) -> dict[Masks, float]:
    """The mask dict of :func:`rule_to_conditional_bba`."""
    allowed = model._allowed
    antecedent = _reduce_masks(rule.antecedent.masks, allowed)
    if not antecedent:
        raise ValueError(f"antecedent of [{_brief(str(rule))}] is impossible under the model")
    both = _meet(antecedent, rule.consequent.masks, allowed)
    w = rule.weight
    if not both and w > 0.0:
        raise ValueError(f"rule [{_brief(str(rule))}] contradicts the model's constraints")
    # WeightedRule bounds w to [0, 1], so the two masses sum to 1 and need no check
    if both == antecedent:  # the antecedent implies the consequent
        return {antecedent: fsum((w, 1.0 - w))}
    return {masks: m for masks, m in ((both, w), (antecedent, 1.0 - w)) if m > 0.0}


def _observation_masses(obs: Proposition, model: Model) -> dict[Masks, float]:
    """The mask dict of :func:`observation_to_bba`."""
    reduced = _reduce_masks(obs.masks, model._allowed)
    if not reduced:
        raise ValueError(f"observation {_brief(str(obs))} is impossible under the model")
    return {reduced: 1.0}


def rule_to_conditional_bba(rule: WeightedRule, model: Model) -> BBA:
    """The least-committed BBA encoding a weighted rule.

    m(antecedent∧consequent) = w and m(antecedent) = 1−w, both keys reduced
    under the model, so Bel(consequent | antecedent) = w and nothing else is
    committed.
    """
    if rule.antecedent.frame != model.frame:
        raise ValueError("rule does not live on the model's frame")
    return BBA._trusted(model, _rule_masses(rule, model))


def observation_to_bba(obs: Proposition, model: Model) -> BBA:
    """Certain evidence: m(obs) = 1."""
    if obs.frame != model.frame:
        raise ValueError("observation does not live on the model's frame")
    return BBA._trusted(model, _observation_masses(obs, model))


class DstAxes(Value):
    """Refinement declaration for the exclusive-frame engine.

    ``axes`` spans the atom space; ``literal_map`` pins each mapped singleton
    name to one (axis, value) coordinate.  Singletons the map omits cannot be
    refined, so scenarios using them cannot select the dst engine.
    """

    _fields = ("axes", "literal_map")

    def __post_init__(self) -> None:
        axes, checked = self.axes, {}
        for name, coordinate in self.literal_map.items():
            axis, value = coordinate
            if not 0 <= axis < len(axes.axes):
                raise ValueError(
                    f"literal {_brief(repr(name))} names axis {axis}, which does not exist"
                )
            if not 0 <= value < len(axes.axes[axis]):
                raise ValueError(
                    f"literal {_brief(repr(name))} names value {value} outside axis {axis}"
                )
            checked[name] = (axis, value)
        _set(self, "literal_map", checked)


class Scenario(Value):
    """One fusion problem: a model (frame and constraints), rules, evidence, questions."""

    _fields = ("model", "rules", "observations", "queries", "engines", "dst_axes")
    _defaults = {"engines": ("dsm",), "dst_axes": None}

    @property
    def frame(self) -> Frame:
        return self.model.frame

    def __post_init__(self) -> None:
        if not self.queries:
            raise ValueError("queries: scenario needs at least one query")
        for prop in (*self.observations, *self.queries):
            if prop.frame != self.frame:
                raise ValueError(f"{prop} does not live on the scenario frame")
        for rule in self.rules:
            if rule.antecedent.frame != self.frame:
                raise ValueError(f"rule [{rule}] does not live on the scenario frame")
        self._check_engines()
        self._sources  # encode now, so a contradicted input fails here

    def with_engines(self, engines: tuple[str, ...]) -> Scenario:
        """This scenario run by ``engines``: checked again, but not encoded again."""
        other = object.__new__(self.__class__)
        _set(other, "__dict__", {**self.__dict__, "engines": engines})  # with the cached _sources
        other._check_engines()
        return other

    def _check_engines(self) -> None:
        if not self.engines:
            raise ValueError("engines: scenario selects no engine")
        for i, engine in enumerate(self.engines):
            if engine not in ENGINES:
                raise ValueError(f"engines[{i}]: unknown engine {_brief(repr(engine))}; choose from {ENGINES}")
            if engine in self.engines[:i]:
                raise ValueError(f"engines: {engine!r} is given twice")
        if "dst" in self.engines:
            if self.dst_axes is None:
                raise ValueError("missing required field dst_axes, which the dst engine needs")
            unmapped = sorted(self.used_singletons() - self.dst_axes.literal_map.keys())
            if unmapped:
                raise ValueError(
                    f"dst_axes.map does not cover singleton(s): {_brief(', '.join(unmapped))}"
                )

    @cached_property
    def _sources(self) -> tuple[tuple[dict[Masks, float], ...], tuple[dict[Masks, float], ...]]:
        """The rules and the observations as mask dicts, in declared order.

        An input the model contradicts raises ValueError naming its field.
        """

        def encode(field: str, items: Sequence, to_masses) -> tuple[dict[Masks, float], ...]:
            sources = []
            for i, item in enumerate(items):
                try:
                    sources.append(to_masses(item, self.model))
                except ValueError as exc:
                    raise ValueError(f"{field}[{i}]: {exc}") from exc
            return tuple(sources)

        return (
            encode("rules", self.rules, _rule_masses),
            encode("observations", self.observations, _observation_masses),
        )

    def used_singletons(self) -> frozenset[str]:
        rules = (prop for rule in self.rules for prop in (rule.antecedent, rule.consequent))
        used = reduce(or_, (t for prop in (*rules, *self.observations, *self.queries) for t in prop.masks), 0)
        return frozenset(self.frame.names[i] for i in _members(used))


class QueryResult(Value):
    """One output row: [Bel, Pl] for evidential engines, a point estimate for
    the chain-rule engine, with a free-text note when neither applies."""

    _fields = ("query", "bel", "pl", "estimate", "note")
    _defaults = {"bel": None, "pl": None, "estimate": None, "note": ""}


class AtomMasses(Value):
    """The dst engine's fused masses on ``axes``.

    Each key is an int atom mask, bit i for atom i, and the keys are ordered
    by their ascending atom lists (not by their numeric value).  The report
    names atom i by ``axes.atom_name(i)``.
    """

    _fields = ("axes", "masses")


class EngineResult(Value):
    """One engine's answer: a status, a row per query and the fusion's diagnostics."""

    _fields = (
        "engine",
        "status",  # "ok" | "inconsistent" | "not_applicable"
        "queries",
        "fused",  # a BBA for dsm, atom masks for dst
        "stage_conflicts",
        "normalization_constant",
        "flags",
        "estimates",
    )
    _defaults = {
        "fused": None,
        "stage_conflicts": (),
        "normalization_constant": None,
        "flags": (),
        "estimates": None,
    }

    @property
    def conflict_mass(self) -> float | None:
        """The largest stage conflict, or None when no stage fused anything."""
        return max(self.stage_conflicts, default=None)


class FusionReport(Value):
    _fields = ("results",)

    def engine(self, name: str) -> EngineResult:
        for result in self.results:
            if result.engine == name:
                return result
        raise KeyError(f"no result for engine {name!r}")

    def to_json(self) -> dict:
        """The ``--format json`` text, parsed: see :func:`~hyperbelief.json_report.render_json`."""
        return json.loads(render_json(self))


def _intervals(fused: BBA, queries: Sequence[Proposition]) -> tuple[QueryResult, ...]:
    return tuple(
        QueryResult(q, bel, pl, None, "") for q, (bel, pl) in zip(queries, belief_intervals(fused, queries))
    )


def _unanswered(
    scenario: Scenario, engine: str, status: str, note: str, flag: str, **fields
) -> EngineResult:
    """A result with ``note`` on every query row and ``flag`` as its only flag."""
    return EngineResult(
        engine=engine,
        status=status,
        queries=tuple(QueryResult(query=q, note=note) for q in scenario.queries),
        flags=(flag,),
        **fields,
    )


def _run_dsm(scenario: Scenario) -> EngineResult:
    """The rules in one hybrid step, then each observation in file order.

    An observation stage is the map :func:`~hyperbelief.belief._observe`,
    which gives the floats of the two-source hybrid step.
    """
    model = scenario.model
    rules, observations = scenario._sources
    fused, conflict = _hybrid_step(rules or ({total_ignorance(model.frame).masks: 1.0},), model)
    stage_conflicts = [conflict]
    for observation in observations:
        (obs,) = observation  # one focal with mass 1
        fused, conflict = _observe(fused, obs, model._allowed)
        stage_conflicts.append(conflict)
    fused = BBA._trusted(model, fused)
    flags = ()
    if max(stage_conflicts) >= 1.0 - 1e-9:
        flags = ("all prior mass conflicts; the intervals below are uninformative",)
    return EngineResult(
        engine="dsm",
        status="ok",
        fused=fused,
        stage_conflicts=tuple(stage_conflicts),
        queries=_intervals(fused, scenario.queries),
        flags=flags,
    )


def _run_dst(scenario: Scenario) -> EngineResult:
    """Dempster's rule as one fold over atom masks.

    Each distinct term-mask tuple is refined once per run, since rules,
    observations and queries share propositions and a refinement on a wide
    frame ANDs and ORs long ints.  A source whose atom masks are distinct
    keeps its masses as they are, since the ``fsum`` of one mass is that
    mass.
    """
    axes = scenario.dst_axes
    table = _literal_atoms(scenario.frame.names, axes.axes, axes.literal_map)  # checks ATOM_LIMIT first
    refined: dict[Masks, int] = {}

    def atoms(masks: Masks) -> int:
        mask = refined.get(masks)
        if mask is None:
            mask = refined[masks] = _atom_mask(masks, table)
        return mask

    forbidden = _atom_mask(scenario.model.masks, table)  # the atoms where some declared constraint holds
    rules, observations = scenario._sources
    sources = []
    for b in (*rules, *observations):
        source = {atoms(p): m for p, m in b.items()}
        if len(source) < len(b):  # two focals refine to one atom set
            source = fsum_by_key((atoms(p), m) for p, m in b.items())
        sources.append(source)
    states = {((1 << axes.axes.atom_count) - 1) & ~forbidden: 1.0}
    for source in sources:
        step: dict[int, list[float]] = {}
        for s, ms in states.items():
            for f, m in source.items():
                step.setdefault(s & f, []).append(ms * m)
        states = {key: fsum(masses) for key, masses in step.items()}
    try:
        conflict, k, kept = _dempster_normalise(states)
    except TotalConflictError:
        note = "inconsistent (total conflict)"
        flag = f"{note}: the rules admit no common world"
        return _unanswered(scenario, "dst", "inconsistent", note, flag, stage_conflicts=(1.0,))
    fused = {focal: kept[focal] for focal in sorted(kept, key=_members)}
    rows = []
    for q in scenario.queries:
        target = atoms(q.masks)
        bel = fsum([m for focal, m in fused.items() if not focal & ~target])
        pl = fsum([m for focal, m in fused.items() if focal & target])
        rows.append(QueryResult(q, bel, pl, None, ""))
    return EngineResult(
        engine="dst",
        status="ok",
        fused=AtomMasses(axes.axes, fused),
        stage_conflicts=(conflict,),
        normalization_constant=k,
        queries=tuple(rows),
    )


def _run_bayes(scenario: Scenario) -> EngineResult:
    def not_applicable(reason: str) -> EngineResult:
        return _unanswered(scenario, "bayes", "not_applicable", reason, reason)

    allowed = scenario.model._allowed

    def reduced(prop: Proposition) -> Masks:
        return _reduce_masks(prop.masks, allowed)

    # the first permutation, in rule order, that is a triangle: the chain x→y, x∧y observed, cx∧cy = ∅
    match = None
    if len(scenario.rules) == 3 and len(scenario.observations) == 1:
        obs = reduced(scenario.observations[0])
        sides = [(rule, reduced(rule.antecedent), reduced(rule.consequent)) for rule in scenario.rules]
        match = next(
            (
                (rx, ry, chain, cx, cy)
                for (rx, x, cx), (ry, y, cy), (chain, a, b) in permutations(sides)
                if a == x and b == y and not _meet(cx, cy, allowed) and _meet(x, y, allowed) == obs
            ),
            None,
        )
    if match is None:
        return not_applicable(
            "not applicable: scenario is not a three-rule triangle with one observation"
        )
    rx, ry, chain, cx, cy = match
    eps1, eps2, eps3 = 1.0 - rx.weight, 1.0 - ry.weight, 1.0 - chain.weight
    if eps3 == 1.0:
        return not_applicable(
            "not applicable: the chain rule has weight 0, so the estimates' denominator vanishes"
        )
    estimates = indifference_estimates(eps1, eps2, eps3)
    by_target = {cy: float(estimates.p_fly), cx: float(estimates.p_not_fly)}
    rows = []
    for q in scenario.queries:
        value = by_target.get(reduced(q))
        if value is None:
            rows.append(QueryResult(query=q, note="no closed-form estimate for this query"))
        else:
            rows.append(
                QueryResult(query=q, estimate=value, note="non-additive point estimate")
            )
    return EngineResult(
        engine="bayes",
        status="ok",
        queries=tuple(rows),
        flags=estimates.validity_flags,
        estimates=estimates,
    )


_RUNNERS = {"dsm": _run_dsm, "dst": _run_dst, "bayes": _run_bayes}


def run_scenario(scenario: Scenario) -> FusionReport:
    """Run every engine the scenario selects, in its declared order."""
    return FusionReport(tuple(_RUNNERS[name](scenario) for name in scenario.engines))
