"""Basic belief assignments and combination rules over the proposition lattice.

Masses are keyed by model-reduced canonical propositions, so two keys that
are equal under the declared constraints always share one entry.  Three
combination rules are provided:

* ``conjunctive_combine`` -- the unnormalized conjunctive rule; conflicting
  mass stays on the empty proposition.
* ``dempster_combine`` -- conjunctive followed by normalization (reporting
  K = 1 - conflict); raises :class:`TotalConflictError` when nothing is left.
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
Bel and Pl read the same term masks, and one :class:`Proposition` is built
per output key.  Each state's mass and each output key's mass is an
``math.fsum`` over a fixed order (source order, then focal order), so
results are bit-reproducible across runs.
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


@dataclass(frozen=True)
class BBA:
    """A normalized basic belief assignment.

    Keys are reduced under the model on construction and equal keys are
    merged; zero-mass entries are dropped.  Mass on the empty proposition is
    representable (the conjunctive rule emits it) but every other producer
    keeps ∅ at zero.
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
        merged = fsum_by_key((reduce_under_model(p, self.model), m) for p, m in self.masses.items())
        ordered = sorted(merged.items(), key=lambda kv: kv[0].sort_key)
        final = {k: m for k, m in ordered if m > 0.0}
        total = fsum(final.values())
        if abs(total - 1.0) > _MASS_SUM_TOL:
            raise ValueError(f"masses sum to {total!r}, not 1")
        object.__setattr__(self, "masses", final)

    def items(self) -> list[tuple[Proposition, float]]:
        """Focal elements with their masses, in canonical order."""
        return list(self.masses.items())

    def focals(self) -> list[Proposition]:
        return list(self.masses)

    def mass(self, prop: Proposition) -> float:
        return self.masses.get(reduce_under_model(prop, self.model), 0.0)

    def mass_on_empty(self) -> float:
        return self.masses.get(Proposition.empty(self.frame), 0.0)

    def to_json(self) -> dict:
        return {
            "masses": [
                {"prop": prop.to_names(), "mass": mass} for prop, mass in self.items()
            ]
        }

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

    def to_json(self) -> dict:
        return {
            **self.result.to_json(),
            "conflict_mass": self.conflict_mass,
            "normalization_constant": self.normalization_constant,
        }


def vacuous(frame: Frame, model: Model) -> BBA:
    """The all-ignorance assignment m(Θ₁∪...∪Θₙ) = 1."""
    return BBA(frame, model, {total_ignorance(frame): 1.0})


def belief(b: BBA, a: Proposition) -> float:
    """Bel(a): total mass on non-empty focal elements below ``a``.

    A reduced focal is below ``a`` iff each of its terms contains a term of ``a``.
    """
    if a.frame != b.frame:
        raise ValueError("query belongs to a different frame")
    query = a.masks
    return fsum(
        m for x, m in b.items() if x.masks and all(any(s & t == s for s in query) for t in x.masks)
    )


def plausibility(b: BBA, a: Proposition) -> float:
    """Pl(a): total mass on focal elements compatible with ``a``.

    A focal is compatible iff the union of one of its terms with one of
    ``a``'s contains no constraint.
    """
    if a.frame != b.frame:
        raise ValueError("query belongs to a different frame")
    query, constraints = a.masks, b.model.masks
    return fsum(
        m
        for x, m in b.items()
        if any(all((t | s) & c != c for c in constraints) for t in x.masks for s in query)
    )


def _common_context(bbas: Sequence[BBA]) -> tuple[Frame, Model]:
    if len(bbas) < 2:
        raise ValueError("combination needs at least two sources")
    frame, model = bbas[0].frame, bbas[0].model
    for b in bbas[1:]:
        if b.frame != frame or b.model != model:
            raise ValueError("sources disagree on frame or model")
    return frame, model


Masks = tuple[int, ...]


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


def _bba(frame: Frame, model: Model, pairs: Iterable[tuple[Masks, float]]) -> BBA:
    """The BBA summing the masses of equal keys, one Proposition per key."""
    return BBA(frame, model, {Proposition(frame, k): m for k, m in fsum_by_key(pairs).items()})


def conjunctive_combine(bbas: Sequence[BBA]) -> CombinationReport:
    """Unnormalized conjunctive rule; conflicting mass is kept on ∅."""
    frame, model = _common_context(bbas)
    result = _bba(frame, model, ((meet, m) for (meet, _), m in _fold(bbas, model).items()))
    return CombinationReport(result, result.mass_on_empty(), None)


def dempster_combine(bbas: Sequence[BBA]) -> CombinationReport:
    """Dempster's rule: conjunctive combination renormalized to sum to one.

    The reported normalization constant is K = 1 - conflict.
    """
    conjunctive = conjunctive_combine(bbas)
    k = 1.0 - conjunctive.conflict_mass
    if k <= TOTAL_CONFLICT_EPS:
        raise TotalConflictError(
            f"conflict mass {conjunctive.conflict_mass!r} leaves nothing to normalize"
        )
    # divide by the kept mass: 1 − conflict loses digits when K is small
    kept = {prop: mass for prop, mass in conjunctive.result.items() if not prop.is_empty}
    total = fsum(kept.values())
    masses = {prop: mass / total for prop, mass in kept.items()}
    return CombinationReport(
        BBA(bbas[0].frame, bbas[0].model, masses), conjunctive.conflict_mass, k
    )


def dsm_hybrid_combine(bbas: Sequence[BBA]) -> CombinationReport:
    """Hybrid DSm rule: conflicting mass is rerouted, never normalized away.

    Each folded state routes its mass to the first of:

    1. its reduced meet, when non-empty;
    2. otherwise its join, the union of the inputs;
    3. total ignorance, when the join is empty too (every input was ∅).

    ``conflict_mass`` reports the total mass rerouted by branches 2 and 3.
    """
    frame, model = _common_context(bbas)
    ignorance = tuple(1 << i for i in range(len(frame)))
    states = _fold(bbas, model)
    rerouted = fsum(m for (meet, _), m in states.items() if not meet)
    targets = ((meet or join or ignorance, m) for (meet, join), m in states.items())
    return CombinationReport(_bba(frame, model, targets), rerouted, None)
