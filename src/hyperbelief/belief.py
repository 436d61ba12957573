"""Basic belief assignments and combination rules over the proposition lattice.

Masses are keyed by model-reduced canonical propositions, so two keys that
are equal under the declared constraints always share one entry.  Three
combination rules are provided, each over one or more sources:

* ``conjunctive_combine`` -- the unnormalized conjunctive rule; conflicting
  mass stays on the empty proposition.
* ``dempster_combine`` -- the conjunctive meets normalized by
  ``_dempster_normalise`` (K is the mass the meets keep), which the dst
  engine shares; raises :class:`TotalConflictError` when nothing is kept.
* ``dsm_hybrid_combine`` -- no normalization; mass whose meet is empty is
  rerouted inside the lattice to the join of the inputs, or to total
  ignorance when the join is empty too.

All three rules read one fold over the sources, which merges the focal
tuples into (meet, join) states as it goes.  A source is a mask dict: each
focal is the ascending tuple of int term masks a :class:`Proposition`
stores, mapped to its mass's int numerator (see below).  A meet is such a
tuple reduced against the model's constraint masks, as
:func:`~hyperbelief.lattice._meet` builds it.
A join is a union of focals, so its terms are among the sources' own terms;
the fold holds it as an int bit set over those terms, so that a join step
is one ``|``, and decodes each distinct join to term masks once, at the end.
The hybrid step hands its merged targets on as a mask dict too, so a chain
of stages (``rulebase._run_dsm``) orders its keys and wraps them as
propositions once, in the one :class:`BBA` it reports.  The fold's output
keys are already reduced, absorbed and ascending, so that BBA wraps them as
they are (``BBA._trusted``) instead of checking and reducing them again.

Masses stay exact until they are reported.  A float is a dyadic rational,
so a source holds its masses as int numerators over one denominator, and a
stage's denominator is the product of its sources'.  Folds, merges and Bel
or Pl sums add ints, and each reported number is one correctly rounded
int/int division: none exceeds 1, and no order of the sources moves a bit.
"""

from __future__ import annotations

from math import isfinite, lcm, prod
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from ._value import Value, _set
from .lattice import (
    Frame,
    Model,
    Proposition,
    _absorb,
    _Allowed,
    _meet,
    _reduce_masks,
    _term_ranks,
    reduce_under_model,
    total_ignorance,
)

_MASS_SUM_TOL = 1e-9


class TotalConflictError(ArithmeticError):
    """All combined mass is conflicting: the sources describe an impossible world."""


Masks = tuple[int, ...]


def _summed(pairs: Iterable[tuple[Hashable, int]]) -> dict:
    """The numerators of equal keys summed, keys in first-seen order."""
    summed: dict = {}
    for key, n in pairs:
        summed[key] = summed.get(key, 0) + n
    return summed


def _canonical(frame: Frame, num: Mapping[Masks, int], den: int) -> dict[Proposition, float]:
    """The masses ``n / den`` of ``num``, keyed by propositions in canonical order.

    A key sorts by its terms' ranks (:func:`~hyperbelief.lattice._term_ranks`)
    in ascending order, as :attr:`Proposition.sort_key` does.  A mass that
    rounds to 0.0 is dropped.
    """
    rank = _term_ranks(t for masks in num for t in masks)
    order = sorted(num, key=lambda masks: sorted(map(rank.__getitem__, masks)))
    return {Proposition._trusted(frame, masks): m for masks in order if (m := num[masks] / den)}


class BBA(Value):
    """A normalized basic belief assignment, keyed in canonical order.

    Next to ``masses`` a BBA keeps its exact ledger: int numerators by term
    masks (``_num``) over one denominator (``_den``), each float in
    ``masses`` being ``n / _den``.  The public constructor checks everything:
    each key is a proposition of the frame with a finite non-negative mass,
    keys are reduced under the model, each mass is held exactly, equal keys
    are summed, zero masses dropped, and the total must be 1 to within
    ``_MASS_SUM_TOL``, as a caller's floats may not sum to 1 exactly.
    :meth:`_trusted` is the engines' path for a ledger whose keys are
    already reduced, absorbed and ascending; both end in the same ordering.
    Mass on the empty proposition is representable (the conjunctive rule
    emits it) but every other producer keeps ∅ at zero.
    """

    _fields = ("model", "masses")

    @property
    def frame(self) -> Frame:
        return self.model.frame

    def __post_init__(self) -> None:
        for prop, mass in self.masses.items():
            if prop.frame != self.frame:
                raise ValueError("mass keyed by a proposition from another frame")
            if not (isfinite(mass) and mass >= 0.0):
                raise ValueError(f"mass {mass} on {prop} is not a finite non-negative number")
        allowed = self.model._allowed
        ratios = {p: mass.as_integer_ratio() for p, mass in self.masses.items()}
        den = lcm(*(d for _, d in ratios.values()))
        num = _summed((_reduce_masks(p.masks, allowed), n * den // d) for p, (n, d) in ratios.items() if n)
        total = sum(num.values()) / den
        if abs(total - 1.0) > _MASS_SUM_TOL:
            raise ValueError(f"masses sum to {total!r}, not 1")
        self.__dict__.update(masses=_canonical(self.frame, num, den), _num=num, _den=den)

    @classmethod
    def _trusted(cls, model: Model, num: dict[Masks, int], den: int) -> "BBA":
        """The BBA of the positive numerators ``num`` over ``den``, whose keys
        are distinct and already reduced under ``model``, absorbed and ascending."""
        bba = object.__new__(cls)
        masses = _canonical(model.frame, num, den)
        _set(bba, "__dict__", {"model": model, "masses": masses, "_num": num, "_den": den})
        return bba

    def items(self) -> list[tuple[Proposition, float]]:
        """Focal elements with their masses, in canonical order."""
        return list(self.masses.items())

    def focals(self) -> list[Proposition]:
        return list(self.masses)

    def mass(self, prop: Proposition) -> float:
        return self.masses.get(reduce_under_model(prop, self.model), 0.0)

    def mass_on_empty(self) -> float:
        return self.masses.get(Proposition.empty(self.frame), 0.0)

    def __iter__(self) -> Iterator[Proposition]:
        return iter(self.masses)


class CombinationReport(Value):
    """A fused BBA plus conflict diagnostics.

    ``normalization_constant`` is K, the mass the meets keep, for Dempster's
    rule and None for the rules that do not normalize.
    """

    _fields = ("result", "conflict_mass", "normalization_constant")


def belief_intervals(b: BBA, queries: Sequence[Proposition]) -> list[tuple[float, float]]:
    """[Bel(a), Pl(a)] for each query ``a``, from one pass over the ledger.

    Bel(a) is the total mass on non-empty focals below ``a``: a reduced focal
    is below ``a`` iff each of its terms contains a term of ``a``.  Pl(a) is
    the total mass on focals compatible with ``a``: some term of the focal,
    joined with some term of ``a``, contains no constraint.  A focal below
    ``a`` is compatible with it, since its terms contain no constraint.  Both
    tests are settled once per distinct focal term and query, whether a
    union contains a constraint once per model (its ``_allowed`` memo), and
    each value is an int sum of numerators divided once by the denominator.
    """
    for a in queries:
        if a.frame != b.frame:
            raise ValueError("query belongs to a different frame")
    allowed = b.model._allowed
    num = b._num
    terms = {t for x in num for t in x}
    tests = []  # per query: (terms holding one of its terms, terms compatible with it, [Bel, Pl] numerators)
    for a in queries:
        inside, compatible = set(), set()
        for t in terms:
            unions = [t | s for s in a.masks]
            if t in unions:  # t holds a term of the query
                inside.add(t)
                compatible.add(t)
                continue
            for u in unions:
                if allowed[u]:
                    compatible.add(t)
                    break
        tests.append((inside, compatible, [0, 0]))
    for x, n in num.items():
        for inside, compatible, sums in tests:
            if not compatible.isdisjoint(x):
                sums[1] += n
                if inside.issuperset(x):
                    sums[0] += n
    return [(bel / b._den, pl / b._den) for _, _, (bel, pl) in tests]


def belief(b: BBA, a: Proposition) -> float:
    """Bel(a): total mass on non-empty focal elements below ``a``."""
    return belief_intervals(b, [a])[0][0]


def plausibility(b: BBA, a: Proposition) -> float:
    """Pl(a): total mass on focal elements compatible with ``a``."""
    return belief_intervals(b, [a])[0][1]


def _common_context(bbas: Sequence[BBA]) -> tuple[Model, list[dict[Masks, int]], int]:
    """The sources' shared model, each source's numerators, and the product of their denominators."""
    if not bbas:
        raise ValueError("combination needs at least one source")
    model = bbas[0].model
    for b in bbas[1:]:
        if b.model != model:
            raise ValueError("sources disagree on frame or model")
    return model, [b._num for b in bbas], prod(b._den for b in bbas)


def _fold(sources: Sequence[Mapping[Masks, int]], model: Model) -> dict[tuple[Masks, Masks], int]:
    """Fold mask-dict sources into merged (reduced meet, join) states with their numerators.

    Each source maps reduced, absorbed, ascending term-mask tuples to int
    numerators, in focal order; a state's numerator is over the product of
    the sources' denominators.  Each step pairs every state with every focal
    of the next source and sums equal states, so the table stays as small as
    the distinct states allow instead of growing with the product of the
    sources.

    A meet is a term-mask tuple.  Its meet with a focal is
    :func:`~hyperbelief.lattice._meet`, computed once per (focal, meet);
    whether a union contains a constraint is settled once per model, by
    its ``_allowed`` memo.

    A join is a union of focals, so its terms are among the sources' own
    terms T, sorted ascending.  The fold holds a join as an int whose bit j
    is set iff one of its terms lies inside T[j]: the OR of ``up[t]`` =
    {j : t ⊆ T[j]} over its terms t.  A join step is then one ``|``, and
    equal joins are equal ints, so states merge exactly as they would on
    absorbed term tuples, in the same order.  Source keys are reduced, so
    joins need no reduction.  Each distinct final join is decoded once: its
    lowest bit is a minimal term (a subset is a smaller int), and clearing
    that term's ``up`` removes it and every term above it.

    A state whose meet is empty (the hybrid rule reroutes it) is keyed by
    its join bits alone, an int, instead of ``((), join)``.  Its meet with
    any later focal is empty again, so each later step only ORs in the
    focal's join bits: no meet memo, no union test and no tuple key.  Live
    and rerouted states share one step dict, so the keys keep the
    first-seen order that ``((), join)`` keys would give.
    """
    allowed = model._allowed
    terms = sorted({t for source in sources for p in source for t in p})
    up = dict.fromkeys(terms, 0)
    for j, u in enumerate(terms):
        for t in terms[: j + 1]:  # a subset is never a larger int
            if u & t == t:
                up[t] |= 1 << j
    coded = []  # per source: (focal masks, join bits, numerator, meet memo) per focal
    for source in sources:
        focals = []
        for p, m in source.items():
            bits = 0
            for t in p:
                bits |= up[t]
            focals.append((p, bits, m, {}))
        coded.append(focals)
    states = {((p, bits) if p else bits): m for p, bits, m, _ in coded[0]}
    for focals in coded[1:]:
        step: dict[tuple[Masks, int] | int, int] = {}
        for key, mass in states.items():
            if key.__class__ is int:  # an empty meet stays empty: only the join grows
                for _, bits, m, _ in focals:
                    state = key | bits
                    step[state] = step.get(state, 0) + mass * m
                continue
            meet, join = key
            for p, bits, m, meets in focals:
                reduced = meets.get(meet)
                if reduced is None:
                    reduced = meets[meet] = _meet(meet, p, allowed)
                state = (reduced, join | bits) if reduced else join | bits
                step[state] = step.get(state, 0) + mass * m
        states = step
    decoded: dict[int, Masks] = {}
    folded = {}
    for key, m in states.items():
        meet, join = ((), key) if key.__class__ is int else key
        kept = decoded.get(join)
        if kept is None:
            kept, bits = [], join
            while bits:
                t = terms[(bits & -bits).bit_length() - 1]
                kept.append(t)
                bits &= ~up[t]
            kept = decoded[join] = tuple(kept)
        folded[(meet, kept)] = m
    return folded


def conjunctive_combine(bbas: Sequence[BBA]) -> CombinationReport:
    """Unnormalized conjunctive rule; conflicting mass is kept on ∅."""
    model, sources, den = _common_context(bbas)
    result = BBA._trusted(model, _summed((meet, n) for (meet, _), n in _fold(sources, model).items()), den)
    return CombinationReport(result, result.mass_on_empty(), None)


def _dempster_normalise(merged: Mapping[Hashable, int], den: int) -> tuple[float, float, dict, int]:
    """Dempster's normalization of conjunctive numerators over ``den``, keyed by meets.

    The one falsy key (``()`` or the atom mask ``0``) holds the conflict.
    Returns (conflict, K, the other numerators, their total): K is that
    total over ``den``, and each normalised mass is a kept numerator over the
    total.  Raises :class:`TotalConflictError` when no mass is kept.
    """
    kept = {key: n for key, n in merged.items() if key}
    total = sum(kept.values())
    conflict = (sum(merged.values()) - total) / den
    if not kept:
        raise TotalConflictError(f"conflict mass {conflict!r} leaves nothing to normalize")
    return conflict, total / den, kept, total


def dempster_combine(bbas: Sequence[BBA]) -> CombinationReport:
    """Dempster's rule: the conjunctive meets normalized by :func:`_dempster_normalise`."""
    model, sources, den = _common_context(bbas)
    merged = _summed((meet, n) for (meet, _), n in _fold(sources, model).items())
    conflict, k, kept, total = _dempster_normalise(merged, den)
    return CombinationReport(BBA._trusted(model, kept, total), conflict, k)


def _hybrid_step(sources: Sequence[Mapping[Masks, int]], model: Model) -> tuple[dict[Masks, int], int]:
    """The hybrid DSm rule on mask dicts: (merged target numerators, rerouted numerator).

    Each folded state routes its mass to the first of:

    1. its reduced meet, when non-empty;
    2. otherwise its join, the union of the inputs;
    3. total ignorance, when the join is empty too (every input was ∅).

    The rerouted numerator is the total that branches 2 and 3 receive.  Both
    are over the product of the sources' denominators, and the targets can
    be the next step's source.
    """
    ignorance = total_ignorance(model.frame).masks
    states = _fold(sources, model)
    rerouted = sum(n for (meet, _), n in states.items() if not meet)
    return _summed((meet or join or ignorance, n) for (meet, join), n in states.items()), rerouted


def _observe(fused: Mapping[Masks, int], obs: Masks, allowed: _Allowed) -> tuple[dict[Masks, int], int]:
    """One observation stage: ``_hybrid_step([fused, {obs: 1}], model)`` as a map.

    Each focal F goes to F∩O, or to F∪O when that meet is empty, and then
    its mass counts as rerouted; O's mass 1 leaves the denominator as it is.
    The two-source fold would key F by (F∩O, F∪O), and in a distributive
    lattice these two determine F (cancellation), so each of its states
    holds one focal.  The map therefore gives the same targets and
    numerators, and builds no term table, join bits or decode.

    F∩O is :func:`~hyperbelief.lattice._meet`, each distinct union of F's
    and O's terms tested through ``allowed``, the model's constraint memo.
    """
    targets, rerouted = {}, 0
    for focal, n in fused.items():
        target = _meet(focal, obs, allowed)
        if not target:
            target = _absorb(focal + obs)
            rerouted += n
        targets[target] = targets.get(target, 0) + n
    return targets, rerouted


def dsm_hybrid_combine(bbas: Sequence[BBA]) -> CombinationReport:
    """Hybrid DSm rule: conflicting mass is rerouted, never normalized away.

    See :func:`_hybrid_step`; ``conflict_mass`` reports the rerouted mass.
    """
    model, sources, den = _common_context(bbas)
    targets, rerouted = _hybrid_step(sources, model)
    return CombinationReport(BBA._trusted(model, targets, den), rerouted / den, None)
