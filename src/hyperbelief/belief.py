"""Basic belief assignments and combination rules over the proposition lattice.

Masses are keyed by model-reduced canonical propositions, so two keys that
are equal under the declared constraints always share one entry.  Three
combination rules are provided:

* ``conjunctive_combine`` -- the unnormalized conjunctive rule; conflicting
  mass stays on the empty proposition.
* ``dempster_combine`` -- conjunctive followed by normalization (reporting
  K = 1 - conflict); raises :class:`TotalConflictError` when nothing is left.
* ``dsm_hybrid_combine`` -- no normalization; mass from conflicting source
  tuples is rerouted inside the lattice (to the join of the inputs, or for
  tuples of empty inputs to the union of the singletons they mention, with
  total ignorance as the last resort).

All three rules read one fold over the sources, which merges the focal
tuples into (reduced meet, join) states as it goes.  Each state's mass and
each output key's mass is an ``math.fsum`` over a fixed order (source order,
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
    conjoin,
    disjoin,
    leq,
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
    """Bel(a): total mass on non-empty focal elements below ``a``."""
    if a.frame != b.frame:
        raise ValueError("query belongs to a different frame")
    return fsum(m for x, m in b.items() if not x.is_empty and leq(x, a, b.model))


def plausibility(b: BBA, a: Proposition) -> float:
    """Pl(a): total mass on focal elements compatible with ``a``."""
    if a.frame != b.frame:
        raise ValueError("query belongs to a different frame")
    return fsum(
        m
        for x, m in b.items()
        if not reduce_under_model(conjoin(x, a), b.model).is_empty
    )


def _common_context(bbas: Sequence[BBA]) -> tuple[Frame, Model]:
    if len(bbas) < 2:
        raise ValueError("combination needs at least two sources")
    frame, model = bbas[0].frame, bbas[0].model
    for b in bbas[1:]:
        if b.frame != frame or b.model != model:
            raise ValueError("sources disagree on frame or model")
    return frame, model


def _fold(bbas: Sequence[BBA], model: Model) -> dict[tuple[Proposition, Proposition], float]:
    """Fold the sources into merged (reduced meet, join) states with their masses.

    Each step pairs every state with every focal of the next source and
    merges equal states by ``fsum``, so the table stays as small as the
    distinct states allow instead of growing with the product of the sources.
    BBA keys are reduced, so their joins need no further reduction.
    """
    states = {(p, p): m for p, m in bbas[0].items()}
    for b in bbas[1:]:
        step: dict[tuple[Proposition, Proposition], list[float]] = {}
        for (meet, join), mass in states.items():
            for p, m in b.items():
                key = (reduce_under_model(conjoin(meet, p), model), disjoin(join, p))
                step.setdefault(key, []).append(mass * m)
        states = {k: fsum(v) for k, v in step.items()}
    return states


def conjunctive_combine(bbas: Sequence[BBA]) -> CombinationReport:
    """Unnormalized conjunctive rule; conflicting mass is kept on ∅."""
    frame, model = _common_context(bbas)
    contributions: dict[Proposition, list[float]] = {}
    for (meet, _), mass in _fold(bbas, model).items():
        contributions.setdefault(meet, []).append(mass)
    masses = {k: fsum(v) for k, v in contributions.items()}
    result = BBA(frame, model, masses)
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
    2. for states whose inputs were all empty under the model, the union of
       the singletons the inputs mention (total ignorance when that union is
       itself empty);
    3. otherwise its join, falling back to total ignorance if the join is
       empty.

    ``conflict_mass`` reports the total mass rerouted by branches 2 and 3.
    """
    frame, model = _common_context(bbas)
    ignorance = total_ignorance(frame)
    contributions: dict[Proposition, list[float]] = {}
    rerouted: list[float] = []
    for (meet, join), mass in _fold(bbas, model).items():
        target = meet
        if meet.is_empty:
            rerouted.append(mass)
            # An empty join means every input was empty: stored keys are
            # reduced, so they name no singletons and the reroute to the
            # union of mentioned singletons degenerates to ignorance.
            target = join if not join.is_empty else ignorance
        contributions.setdefault(target, []).append(mass)
    masses = {k: fsum(v) for k, v in contributions.items()}
    result = BBA(frame, model, masses)
    return CombinationReport(result, fsum(rerouted), None)
