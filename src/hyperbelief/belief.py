"""Basic belief assignments and combination rules over the proposition lattice.

Masses are keyed by model-reduced canonical propositions, so two keys that
are equal under the declared constraints always share one entry.  Three
combination rules are provided, each over one or more sources:

* ``conjunctive_combine`` -- the unnormalized conjunctive rule; conflicting
  mass stays on the empty proposition.
* ``dempster_combine`` -- the conjunctive meets normalized by
  ``_dempster_normalise`` (K = 1 - conflict), which the dst engine shares;
  raises :class:`TotalConflictError` when nothing is left.
* ``dsm_hybrid_combine`` -- no normalization; mass whose meet is empty is
  rerouted inside the lattice to the join of the inputs, or to total
  ignorance when the join is empty too.

All three rules read one fold over the sources, which merges the focal
tuples into (meet, join) states as it goes.  A source is a mask dict: each
focal is the ascending tuple of int term masks a :class:`Proposition`
stores, mapped to its mass.  A meet is such a tuple reduced against the
model's constraint masks, as :func:`~hyperbelief.lattice._meet` builds it.
A join is a union of focals, so its terms are among the sources' own terms;
the fold holds it as an int bit set over those terms, so that a join step
is one ``|``, and decodes each distinct join to term masks once, at the end.
The hybrid step hands its merged targets on as a mask dict too, so a chain
of stages (``rulebase._run_dsm``) orders its keys and wraps them as
propositions once, in the one :class:`BBA` it reports.  The fold's output
keys are already reduced, absorbed and ascending, so that BBA wraps them as
they are (``BBA._trusted``) instead of checking and reducing them again.
Every mask dict a stage or an encoding hands on is as :func:`_merged`
returns it: equal keys merged, zero masses dropped, and a total of 1.  Bel
and Pl read the same term masks, for every query in one pass over the
focals.  Each state's mass, each output key's mass and each Bel or Pl is an
``math.fsum`` over a fixed order (source order, then focal order), so
results are bit-reproducible across runs.
"""

from __future__ import annotations

from math import fsum, isfinite
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from ._value import Value, _set
from .lattice import (
    Frame,
    Model,
    Proposition,
    _absorb,
    _Allowed,
    _meet,
    _term_ranks,
    reduce_under_model,
    total_ignorance,
)

TOTAL_CONFLICT_EPS = 1e-12
_MASS_SUM_TOL = 1e-9


class TotalConflictError(ArithmeticError):
    """All combined mass is conflicting: the sources describe an impossible world."""


def fsum_by_key(pairs: Iterable[tuple[Hashable, float]]) -> dict:
    """Sum the masses of equal keys with ``fsum``, keys in first-seen order."""
    grouped: dict[Hashable, list[float]] = {}
    for key, mass in pairs:
        grouped.setdefault(key, []).append(mass)
    return {key: fsum(masses) for key, masses in grouped.items()}


Masks = tuple[int, ...]


def _merged(pairs: Iterable[tuple[Masks, float]]) -> dict[Masks, float]:
    """The masses of equal keys merged by ``fsum``, zeros dropped; they must sum to 1."""
    merged = {masks: m for masks, m in fsum_by_key(pairs).items() if m > 0.0}
    total = fsum(merged.values())
    if abs(total - 1.0) > _MASS_SUM_TOL:
        raise ValueError(f"masses sum to {total!r}, not 1")
    return merged


def _canonical(frame: Frame, merged: Mapping[Masks, float]) -> dict[Proposition, float]:
    """The masses of ``merged`` (see :func:`_merged`), keyed by propositions in canonical order.

    A key sorts by its terms' ranks (:func:`~hyperbelief.lattice._term_ranks`)
    in ascending order, as :attr:`Proposition.sort_key` does.
    """
    rank = _term_ranks(t for masks in merged for t in masks)
    focals = sorted(merged.items(), key=lambda focal: sorted(map(rank.__getitem__, focal[0])))
    return {Proposition._trusted(frame, masks): m for masks, m in focals}


class BBA(Value):
    """A normalized basic belief assignment, keyed in canonical order.

    The public constructor checks everything: each key is a proposition of
    the frame with a finite non-negative mass, keys are reduced under the
    model and equal keys merged by ``fsum``, zero masses are dropped and the
    total must be 1.  :meth:`_trusted` is the engines' path for a mask dict
    that has passed :func:`_merged` and whose keys are already reduced,
    absorbed and ascending; both end in the same ordering.  Mass on the
    empty proposition is representable (the conjunctive rule emits it) but
    every other producer keeps ∅ at zero.
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
        merged = _merged(
            (reduce_under_model(p, self.model).masks, m) for p, m in self.masses.items()
        )
        _set(self, "masses", _canonical(self.frame, merged))

    @classmethod
    def _trusted(cls, model: Model, merged: Mapping[Masks, float]) -> "BBA":
        """The BBA of a mask dict that has passed :func:`_merged`, whose keys
        are already reduced under ``model``, absorbed and ascending."""
        bba = object.__new__(cls)
        _set(bba, "model", model)
        _set(bba, "masses", _canonical(model.frame, merged))
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

    ``normalization_constant`` is K = 1 - conflict for Dempster's rule and
    None for the rules that do not normalize.
    """

    _fields = ("result", "conflict_mass", "normalization_constant")


def vacuous(model: Model) -> BBA:
    """The all-ignorance assignment m(Θ₁∪...∪Θₙ) = 1."""
    return BBA._trusted(model, {total_ignorance(model.frame).masks: 1.0})


def belief_intervals(b: BBA, queries: Sequence[Proposition]) -> list[tuple[float, float]]:
    """[Bel(a), Pl(a)] for each query ``a``, from one pass over the focals.

    Bel(a) is the total mass on non-empty focals below ``a``: a reduced focal
    is below ``a`` iff each of its terms contains a term of ``a``.  Pl(a) is
    the total mass on focals compatible with ``a``: some term of the focal,
    joined with some term of ``a``, contains no constraint.  A focal below
    ``a`` is compatible with it, since its terms contain no constraint.  Both
    tests are settled once per distinct focal term and query, whether a
    union contains a constraint once per model (its ``_allowed`` memo), and
    each value is one ``fsum`` over the focals in order.
    """
    for a in queries:
        if a.frame != b.frame:
            raise ValueError("query belongs to a different frame")
    allowed = b.model._allowed
    terms = {t for x in b.masses for t in x.masks}
    tests = []  # per query: (terms holding one of its terms, terms compatible with it, Bel, Pl)
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
        tests.append((inside, compatible, [], []))
    for x, m in b.masses.items():
        masks = x.masks
        for inside, compatible, bel, pl in tests:
            if not compatible.isdisjoint(masks):
                pl.append(m)
                if inside.issuperset(masks):
                    bel.append(m)
    return [(fsum(bel), fsum(pl)) for _, _, bel, pl in tests]


def belief(b: BBA, a: Proposition) -> float:
    """Bel(a): total mass on non-empty focal elements below ``a``."""
    return belief_intervals(b, [a])[0][0]


def plausibility(b: BBA, a: Proposition) -> float:
    """Pl(a): total mass on focal elements compatible with ``a``."""
    return belief_intervals(b, [a])[0][1]


def _common_context(bbas: Sequence[BBA]) -> tuple[Model, list[dict[Masks, float]]]:
    """The sources' shared model, and each source as a mask dict."""
    if not bbas:
        raise ValueError("combination needs at least one source")
    model = bbas[0].model
    for b in bbas[1:]:
        if b.model != model:
            raise ValueError("sources disagree on frame or model")
    return model, [{p.masks: m for p, m in b.masses.items()} for b in bbas]


def _fold(
    sources: Sequence[Mapping[Masks, float]], model: Model
) -> dict[tuple[Masks, Masks], float]:
    """Fold mask-dict sources into merged (reduced meet, join) states with their masses.

    Each source maps reduced, absorbed, ascending term-mask tuples to
    masses, in focal order.  Each step pairs every state with every focal of
    the next source and merges equal states by ``fsum``, so the table stays
    as small as the distinct states allow instead of growing with the
    product of the sources.

    A meet is a term-mask tuple.  Its meet with a focal is
    :func:`~hyperbelief.lattice._meet`, computed once per (focal, meet);
    whether a union contains a constraint is settled once per model, by
    its ``_allowed`` memo.

    A join is a union of focals, so its terms are among the sources' own
    terms T, sorted ascending.  The fold holds a join as an int whose bit j
    is set iff one of its terms lies inside T[j]: the OR of ``up[t]`` =
    {j : t ⊆ T[j]} over its terms t.  A join step is then one ``|``, and
    equal joins are equal ints, so states merge exactly as they would on
    absorbed term tuples, in the same order and with the same ``fsum``
    groups.  Source keys are reduced, so joins need no reduction.  Each
    distinct final join is decoded once: its lowest bit is a minimal term
    (a subset is a smaller int), and clearing that term's ``up`` removes it
    and every term above it.

    A state whose meet is empty (the hybrid rule reroutes it) is keyed by
    its join bits alone, an int, instead of ``((), join)``.  Its meet with
    any later focal is empty again, so each later step only ORs in the
    focal's join bits: no meet memo, no union test and no tuple key.  Live
    and rerouted states share one step dict, so the keys keep their
    first-seen order and every ``fsum`` group is the one that ``((), join)``
    keys would give.
    """
    allowed = model._allowed
    terms = sorted({t for source in sources for p in source for t in p})
    up = dict.fromkeys(terms, 0)
    for j, u in enumerate(terms):
        for t in terms[: j + 1]:  # a subset is never a larger int
            if u & t == t:
                up[t] |= 1 << j
    coded = []  # per source: (focal masks, join bits, mass, meet memo) per focal
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
        step: dict[tuple[Masks, int] | int, list[float]] = {}
        for key, mass in states.items():
            if key.__class__ is int:  # an empty meet stays empty: only the join grows
                for _, bits, m, _ in focals:
                    step.setdefault(key | bits, []).append(mass * m)
                continue
            meet, join = key
            for p, bits, m, meets in focals:
                reduced = meets.get(meet)
                if reduced is None:
                    reduced = meets[meet] = _meet(meet, p, allowed)
                state = (reduced, join | bits) if reduced else join | bits
                step.setdefault(state, []).append(mass * m)
        states = {k: fsum(v) for k, v in step.items()}
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
    model, sources = _common_context(bbas)
    merged = _merged((meet, m) for (meet, _), m in _fold(sources, model).items())
    result = BBA._trusted(model, merged)
    return CombinationReport(result, result.mass_on_empty(), None)


def _dempster_normalise(merged: Mapping[Hashable, float]) -> tuple[float, float, dict]:
    """Dempster's normalization of conjunctive masses keyed by meets.

    The one falsy key (``()`` or the atom mask ``0``) holds the conflict.  Returns
    (conflict, K = 1 - conflict, the other positive masses over their total);
    raises :class:`TotalConflictError` when K leaves nothing to normalize.
    """
    conflict = next((m for key, m in merged.items() if not key), 0.0)
    k = 1.0 - conflict
    if k <= TOTAL_CONFLICT_EPS:
        raise TotalConflictError(f"conflict mass {conflict!r} leaves nothing to normalize")
    kept = {key: m for key, m in merged.items() if key and m > 0.0}
    # divide by the kept mass: 1 − conflict loses digits when K is small
    total = fsum(kept.values())
    return conflict, k, {key: m / total for key, m in kept.items()}


def dempster_combine(bbas: Sequence[BBA]) -> CombinationReport:
    """Dempster's rule: the conjunctive meets normalized by :func:`_dempster_normalise`."""
    model, sources = _common_context(bbas)
    merged = fsum_by_key((meet, m) for (meet, _), m in _fold(sources, model).items())
    conflict, k, kept = _dempster_normalise(merged)
    return CombinationReport(BBA._trusted(model, _merged(kept.items())), conflict, k)


def _hybrid_step(
    sources: Sequence[Mapping[Masks, float]], model: Model
) -> tuple[dict[Masks, float], float]:
    """The hybrid DSm rule on mask dicts: (merged targets, rerouted mass).

    Each folded state routes its mass to the first of:

    1. its reduced meet, when non-empty;
    2. otherwise its join, the union of the inputs;
    3. total ignorance, when the join is empty too (every input was ∅).

    The rerouted mass is the total that branches 2 and 3 receive.  The
    targets pass :func:`_merged`, so they can be the next step's source.
    """
    ignorance = total_ignorance(model.frame).masks
    states = _fold(sources, model)
    rerouted = fsum(m for (meet, _), m in states.items() if not meet)
    targets = _merged((meet or join or ignorance, m) for (meet, join), m in states.items())
    return targets, rerouted


def _observe(
    fused: Mapping[Masks, float], obs: Masks, allowed: _Allowed
) -> tuple[dict[Masks, float], float]:
    """One observation stage: ``_hybrid_step([fused, {obs: 1.0}], model)`` as a map.

    Each focal F goes to F∩O, or to F∪O when that meet is empty, and then
    its mass counts as rerouted.  The two-source fold would key F by
    (F∩O, F∪O), and in a distributive lattice these two determine F
    (cancellation), so each of its states holds one focal and its one-term
    ``fsum`` is F's mass.  The map therefore gives the same targets, in the
    same order, with the same floats, and builds no term table, join bits
    or decode.

    F∩O is :func:`~hyperbelief.lattice._meet`, each distinct union of F's
    and O's terms tested through ``allowed``, the model's constraint memo.
    """
    targets, rerouted = [], []
    for focal, m in fused.items():
        target = _meet(focal, obs, allowed)
        if not target:
            target = _absorb(focal + obs)
            rerouted.append(m)
        targets.append((target, m))
    return _merged(targets), fsum(rerouted)


def dsm_hybrid_combine(bbas: Sequence[BBA]) -> CombinationReport:
    """Hybrid DSm rule: conflicting mass is rerouted, never normalized away.

    See :func:`_hybrid_step`; ``conflict_mass`` reports the rerouted mass.
    """
    model, sources = _common_context(bbas)
    targets, rerouted = _hybrid_step(sources, model)
    return CombinationReport(BBA._trusted(model, targets), rerouted, None)
