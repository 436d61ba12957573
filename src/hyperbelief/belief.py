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
tuples into (reduced meet, join) states as it goes.  The fold, Bel and Pl
read the term masks each :class:`Proposition` stores and the model's
constraint masks, so a constraint test is ``t & c == c`` and one
:class:`Proposition` is built per output key.  Each state's mass and each
output key's mass is an ``math.fsum`` over a fixed order (source order,
then focal order), so results are bit-reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, isfinite
from typing import Iterator, Mapping, Sequence

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
        merged: dict[Proposition, list[float]] = {}
        for prop, mass in self.masses.items():
            if prop.frame != self.frame:
                raise ValueError("mass keyed by a proposition from another frame")
            if not (isfinite(mass) and mass >= 0.0):
                raise ValueError(f"mass {mass} on {prop} is not a finite non-negative number")
            key = reduce_under_model(prop, self.model)
            merged.setdefault(key, []).append(mass)
        final = {k: fsum(v) for k, v in sorted(merged.items(), key=lambda kv: kv[0].sort_key)}
        final = {k: m for k, m in final.items() if m > 0.0}
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
    States are term-mask tuples.  The meet drops every term union that
    contains a constraint; BBA keys are reduced, so their joins need no
    further reduction.
    """
    constraints = model.masks
    sources = [[(p.masks, m) for p, m in b.items()] for b in bbas]
    states = {(p, p): m for p, m in sources[0]}
    for source in sources[1:]:
        step: dict[tuple[Masks, Masks], list[float]] = {}
        for (meet, join), mass in states.items():
            for p, m in source:
                unions = (t | s for t in meet for s in p)
                reduced = _absorb(u for u in unions if all(u & c != c for c in constraints))
                step.setdefault((reduced, _absorb(join + p)), []).append(mass * m)
        states = {k: fsum(v) for k, v in step.items()}
    return states


def _bba(frame: Frame, model: Model, contributions: dict[Masks, list[float]]) -> BBA:
    """The BBA summing each key's contributions, one Proposition per key."""
    return BBA(frame, model, {Proposition(frame, k): fsum(v) for k, v in contributions.items()})


def conjunctive_combine(bbas: Sequence[BBA]) -> CombinationReport:
    """Unnormalized conjunctive rule; conflicting mass is kept on ∅."""
    frame, model = _common_context(bbas)
    contributions: dict[Masks, list[float]] = {}
    for (meet, _), mass in _fold(bbas, model).items():
        contributions.setdefault(meet, []).append(mass)
    result = _bba(frame, model, contributions)
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
    contributions: dict[Masks, list[float]] = {}
    rerouted: list[float] = []
    for (meet, join), mass in _fold(bbas, model).items():
        target = meet
        if not meet:
            rerouted.append(mass)
            target = join or ignorance
        contributions.setdefault(target, []).append(mass)
    return CombinationReport(_bba(frame, model, contributions), fsum(rerouted), None)
