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
tuples into (meet, join) states as it goes.  A meet is the ascending tuple
of int term masks each :class:`Proposition` stores, reduced against the
model's constraint masks (a term t breaks constraint c iff ``t & c == c``).
A join is a union of focals, so its terms are among the sources' own terms;
the fold holds it as an int bit set over those terms, so that a join step
is one ``|``, and decodes each distinct join to term masks once, at the end.
The fold's output keys are already reduced, absorbed and ascending, so the
result :class:`BBA` wraps them as they are (``BBA._trusted``) instead of
checking and reducing them again; the rule and observation encodings in
``rulebase`` do the same.  Bel and Pl read the same term masks, for every
query in one pass over the focals.  Each state's mass, each output key's
mass and each Bel or Pl is an ``math.fsum`` over a fixed order (source
order, then focal order), so results are bit-reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, isfinite
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .lattice import (
    Frame,
    Model,
    Proposition,
    _absorb,
    _term_key,
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


def _canonical(frame: Frame, merged: Mapping[Masks, float]) -> dict[Proposition, float]:
    """The non-zero masses of ``merged``, keyed in canonical order; they must sum to 1.

    A key sorts by its terms' :func:`~hyperbelief.lattice._term_key` in
    ascending order, as :attr:`Proposition.sort_key` does.  Each distinct
    term's key is computed once and stands in as its rank among the terms.
    """
    focals = [(masks, m) for masks, m in merged.items() if m > 0.0]
    terms = sorted({t for masks, _ in focals for t in masks}, key=_term_key)
    rank = {t: r for r, t in enumerate(terms)}
    focals.sort(key=lambda focal: sorted(map(rank.__getitem__, focal[0])))
    total = fsum(m for _, m in focals)
    if abs(total - 1.0) > _MASS_SUM_TOL:
        raise ValueError(f"masses sum to {total!r}, not 1")
    return {Proposition._trusted(frame, masks): m for masks, m in focals}


@dataclass(frozen=True)
class BBA:
    """A normalized basic belief assignment, keyed in canonical order.

    The public constructor checks everything: each key is a proposition of
    the frame with a finite non-negative mass, keys are reduced under the
    model and equal keys merged by ``fsum``, zero masses are dropped and the
    total must be 1.  :meth:`_trusted` is the engines' path for keys that are
    already reduced, absorbed and ascending; both end in the same ordering
    and total check.  Mass on the empty proposition is representable (the
    conjunctive rule emits it) but every other producer keeps ∅ at zero.
    """

    frame: Frame
    model: Model
    masses: Mapping[Proposition, float]

    def __post_init__(self) -> None:
        if self.model.frame != self.frame:
            raise ValueError("model belongs to a different frame")
        for prop, mass in self.masses.items():
            if prop.frame != self.frame:
                raise ValueError("mass keyed by a proposition from another frame")
            if not (isfinite(mass) and mass >= 0.0):
                raise ValueError(f"mass {mass} on {prop} is not a finite non-negative number")
        merged = fsum_by_key(
            (reduce_under_model(p, self.model).masks, m) for p, m in self.masses.items()
        )
        object.__setattr__(self, "masses", _canonical(self.frame, merged))

    @classmethod
    def _trusted(cls, frame: Frame, model: Model, pairs: Iterable[tuple[Masks, float]]) -> "BBA":
        """The BBA of (key masks, mass) pairs whose keys are already reduced
        under ``model``, absorbed and ascending; equal keys are merged by ``fsum``."""
        bba = object.__new__(cls)
        object.__setattr__(bba, "frame", frame)
        object.__setattr__(bba, "model", model)
        object.__setattr__(bba, "masses", _canonical(frame, fsum_by_key(pairs)))
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


@dataclass(frozen=True)
class CombinationReport:
    """A fused BBA plus conflict diagnostics.

    ``normalization_constant`` is K = 1 - conflict for Dempster's rule and
    None for the rules that do not normalize.
    """

    result: BBA
    conflict_mass: float
    normalization_constant: float | None


def vacuous(frame: Frame, model: Model) -> BBA:
    """The all-ignorance assignment m(Θ₁∪...∪Θₙ) = 1."""
    return BBA._trusted(frame, model, [(total_ignorance(frame).masks, 1.0)])


def belief_intervals(b: BBA, queries: Sequence[Proposition]) -> list[tuple[float, float]]:
    """[Bel(a), Pl(a)] for each query ``a``, from one pass over the focals.

    Bel(a) is the total mass on non-empty focals below ``a``: a reduced focal
    is below ``a`` iff each of its terms contains a term of ``a``.  Pl(a) is
    the total mass on focals compatible with ``a``: some term of the focal,
    joined with some term of ``a``, contains no constraint.  A focal below
    ``a`` is compatible with it, since its terms contain no constraint.  Both
    tests are settled once per distinct focal term and query, and each value
    is one ``fsum`` over the focals in order.
    """
    for a in queries:
        if a.frame != b.frame:
            raise ValueError("query belongs to a different frame")
    constraints = b.model.masks
    terms = {t for x in b.masses for t in x.masks}
    tests = []  # per query: (terms holding one of its terms, terms compatible with it, Bel, Pl)
    for a in queries:
        inside, compatible = set(), set()
        for t in terms:
            unions = [t | s for s in a.masks]
            if t in unions:  # t holds a term of the query
                inside.add(t)
                compatible.add(t)
            elif any(all(u & c != c for c in constraints) for u in unions):
                compatible.add(t)
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


def _common_context(bbas: Sequence[BBA]) -> tuple[Frame, Model]:
    if not bbas:
        raise ValueError("combination needs at least one source")
    frame, model = bbas[0].frame, bbas[0].model
    for b in bbas[1:]:
        if b.frame != frame or b.model != model:
            raise ValueError("sources disagree on frame or model")
    return frame, model


def _fold(bbas: Sequence[BBA], model: Model) -> dict[tuple[Masks, Masks], float]:
    """Fold the sources into merged (reduced meet, join) states with their masses.

    Each step pairs every state with every focal of the next source and
    merges equal states by ``fsum``, so the table stays as small as the
    distinct states allow instead of growing with the product of the sources.

    A meet is a term-mask tuple.  Its meet with a focal drops every term
    union that contains a constraint, and is computed once per (focal, meet).

    A join is a union of focals, so its terms are among the sources' own
    terms T, sorted ascending.  The fold holds a join as an int whose bit j
    is set iff one of its terms lies inside T[j]: the OR of ``up[t]`` =
    {j : t ⊆ T[j]} over its terms t.  A join step is then one ``|``, and
    equal joins are equal ints, so states merge exactly as they would on
    absorbed term tuples, in the same order and with the same ``fsum``
    groups.  BBA keys are reduced, so joins need no reduction.  Each
    distinct final join is decoded once: its lowest bit is a minimal term
    (a subset is a smaller int), and clearing that term's ``up`` removes it
    and every term above it.
    """
    constraints = model.masks
    terms = sorted({t for b in bbas for p in b.masses for t in p.masks})
    up = dict.fromkeys(terms, 0)
    for j, u in enumerate(terms):
        for t in terms[: j + 1]:  # a subset is never a larger int
            if u & t == t:
                up[t] |= 1 << j
    sources = []  # per source: (focal masks, join bits, mass, meet memo) per focal
    for b in bbas:
        source = []
        for p, m in b.items():
            bits = 0
            for t in p.masks:
                bits |= up[t]
            source.append((p.masks, bits, m, {}))
        sources.append(source)
    states = {(p, bits): m for p, bits, m, _ in sources[0]}
    for source in sources[1:]:
        step: dict[tuple[Masks, int], list[float]] = {}
        for (meet, join), mass in states.items():
            for p, bits, m, meets in source:
                reduced = meets.get(meet)
                if reduced is None:
                    unions = (t | s for t in meet for s in p)
                    reduced = meets[meet] = _absorb(
                        u for u in unions if all(u & c != c for c in constraints)
                    )
                step.setdefault((reduced, join | bits), []).append(mass * m)
        states = {k: fsum(v) for k, v in step.items()}
    decoded: dict[int, Masks] = {}
    for _, join in states:
        if join not in decoded:
            kept, bits = [], join
            while bits:
                t = terms[(bits & -bits).bit_length() - 1]
                kept.append(t)
                bits &= ~up[t]
            decoded[join] = tuple(kept)
    return {(meet, decoded[join]): m for (meet, join), m in states.items()}


def conjunctive_combine(bbas: Sequence[BBA]) -> CombinationReport:
    """Unnormalized conjunctive rule; conflicting mass is kept on ∅."""
    frame, model = _common_context(bbas)
    result = BBA._trusted(frame, model, ((meet, m) for (meet, _), m in _fold(bbas, model).items()))
    return CombinationReport(result, result.mass_on_empty(), None)


def _dempster_normalise(merged: Mapping[Hashable, float]) -> tuple[float, float, dict]:
    """Dempster's normalization of conjunctive masses keyed by meets.

    The one falsy key (``()`` or ``frozenset()``) holds the conflict.  Returns
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
    frame, model = _common_context(bbas)
    merged = fsum_by_key((meet, m) for (meet, _), m in _fold(bbas, model).items())
    conflict, k, kept = _dempster_normalise(merged)
    return CombinationReport(BBA._trusted(frame, model, kept.items()), conflict, k)


def dsm_hybrid_combine(bbas: Sequence[BBA]) -> CombinationReport:
    """Hybrid DSm rule: conflicting mass is rerouted, never normalized away.

    Each folded state routes its mass to the first of:

    1. its reduced meet, when non-empty;
    2. otherwise its join, the union of the inputs;
    3. total ignorance, when the join is empty too (every input was ∅).

    ``conflict_mass`` reports the total mass rerouted by branches 2 and 3.
    """
    frame, model = _common_context(bbas)
    ignorance = total_ignorance(frame).masks
    states = _fold(bbas, model)
    rerouted = fsum(m for (meet, _), m in states.items() if not meet)
    targets = ((meet or join or ignorance, m) for (meet, join), m in states.items())
    return CombinationReport(BBA._trusted(frame, model, targets), rerouted, None)
