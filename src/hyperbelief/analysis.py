"""Probabilistic point estimates for weighted rule triangles, and the
propositional-logic checks that back the conclusions drawn from them.

The estimates here are intentionally naive: they treat a weighted rule
``a -w-> b`` as a conditional probability P(b|a) = w and push it through the
chain rule under an indifference prior.  The point of exposing them is that
they misbehave — the two conditional "probabilities" for a penguin-style
triangle do not add up to one, and plugging unknown priors into the
Modus Tollens direction can leave [0, 1] entirely.  Out-of-range values are
therefore returned with flags, never clamped.

All arithmetic is exact rational arithmetic (``fractions.Fraction``; float
arguments convert losslessly), so the defining identities — for example
p_fly · (1−ε₃) = ε₁·(1−ε₂) — hold exactly, not just to rounding error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping

from ._value import Value, _set

MAX_FORMULA_VARIABLES = 6


# --------------------------------------------------------------------- logic


class Formula(Value):
    """A propositional formula over named boolean variables."""

    rank = 4  # how tightly it binds; an operand that binds more loosely is bracketed

    def evaluate(self, env: Mapping[str, bool]) -> bool:
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        raise NotImplementedError


class Var(Formula):
    _fields = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)

    def evaluate(self, env):
        return bool(env[self.name])

    def variables(self):
        return frozenset((self.name,))

    def __str__(self):
        return self.name


class Not(Formula):
    _fields = ("operand",)

    def __init__(self, operand: Formula) -> None:
        _set(self, "operand", operand)

    def evaluate(self, env):
        return not self.operand.evaluate(env)

    def variables(self):
        return self.operand.variables()

    def __str__(self):
        return f"~{_wrap(self.operand, self.rank)}"


class _Connective(Formula):
    """A binary connective; each subclass gives its symbol, rank and truth
    function, and whether it groups to the right."""

    _fields = ("left", "right")
    groups_right = False

    def __init__(self, left: Formula, right: Formula) -> None:
        _set(self, "left", left)
        _set(self, "right", right)

    def evaluate(self, env):
        return self.truth(self.left.evaluate(env), self.right.evaluate(env))

    def variables(self):
        return self.left.variables() | self.right.variables()

    def __str__(self):
        # an operand of equal rank is bracketed on the side it does not group towards
        left = _wrap(self.left, self.rank + self.groups_right)
        right = _wrap(self.right, self.rank + (not self.groups_right))
        return f"{left} {self.symbol} {right}"


class And(_Connective):
    symbol, rank, truth = "&", 3, staticmethod(lambda p, q: p and q)


class Or(_Connective):
    symbol, rank, truth = "|", 2, staticmethod(lambda p, q: p or q)


class Implies(_Connective):
    symbol, rank, truth = "->", 1, staticmethod(lambda p, q: not p or q)
    groups_right = True


def _wrap(f: Formula, rank: int) -> str:
    """``f`` as an operand that must bind at least as tightly as ``rank``."""
    return str(f) if f.rank >= rank else f"({f})"


_CONNECTIVES = {cls.symbol: cls for cls in (And, Or, Implies)}

_TOKEN = re.compile(r"\s*(->|[~&|()]|[A-Za-z_][A-Za-z_0-9]*)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or not m.group(1):
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"can't read formula at {rest[:10]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    """Precedence climbing over ``_CONNECTIVES`` with ~ > & > | > -> and a
    right-associative arrow."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("formula ends unexpectedly")
        self.pos += 1
        return tok

    def formula(self, rank: int = 1) -> Formula:
        """The longest formula whose connectives all bind at least as tightly as ``rank``."""
        f = self.negation()
        while (kind := _CONNECTIVES.get(self.peek())) is not None and kind.rank >= rank:
            self.take()
            f = kind(f, self.formula(kind.rank + (not kind.groups_right)))
        return f

    def negation(self) -> Formula:
        if self.peek() == "~":
            self.take()
            return Not(self.negation())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.take()
        if tok == "(":
            inner = self.formula()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis")
            return inner
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            return Var(tok)
        raise ValueError(f"unexpected token {tok!r}")


def parse_formula(text: str) -> Formula:
    parser = _Parser(_tokenize(text))
    formula = parser.formula()
    if parser.peek() is not None:
        raise ValueError(f"trailing input after formula: {parser.peek()!r}")
    return formula


def assignments(names: tuple[str, ...]) -> Iterator[dict[str, bool]]:
    for values in product((False, True), repeat=len(names)):
        yield dict(zip(names, values))


def tautology_check(formula: Formula | str) -> bool:
    """True iff the formula holds under every assignment (truth-table method)."""
    if isinstance(formula, str):
        formula = parse_formula(formula)
    names = tuple(sorted(formula.variables()))
    if len(names) > MAX_FORMULA_VARIABLES:
        raise ValueError(
            f"{len(names)} variables; truth tables are capped at {MAX_FORMULA_VARIABLES}"
        )
    return all(formula.evaluate(env) for env in assignments(names))


#: The classical principles a weighted rule base silently leans on.  All six
#: are tautologies; ``check-logic`` re-verifies them on demand.
CLASSICAL_PRINCIPLES: dict[str, str] = {
    "excluded middle": "a | ~a",
    "non-contradiction": "~(a & ~a)",
    "modus ponens": "(a & (a -> b)) -> b",
    "modus tollens": "(~b & (a -> b)) -> ~a",
    "modus barbara": "((a -> b) & (b -> c)) -> (a -> c)",
    "implication pairing": "((a -> b) & (c -> d)) -> ((a & c) -> (b & d))",
}


# ------------------------------------------------------------ point estimates


def _unit(name: str, value) -> Fraction:
    x = Fraction(value)
    if not 0 <= x <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return x


class BayesEstimates(Value):
    """Chain-rule point estimates for a rule triangle, with their defects.

    ``p_fly`` and ``p_not_fly`` are the two conditional estimates for the
    competing conclusions; ``additivity_deficit`` is 1 − (p_fly + p_not_fly),
    the mass the "probabilities" fail to account for; ``bound`` is the upper
    bound ε₁/(1−ε₃) that holds regardless of the second rule.  All values are
    exact rationals.
    """

    _fields = ("p_fly", "p_not_fly", "additivity_deficit", "bound", "validity_flags")

    def __init__(
        self,
        p_fly: Fraction,
        p_not_fly: Fraction,
        additivity_deficit: Fraction,
        bound: Fraction,
        validity_flags: tuple[str, ...],
    ) -> None:
        _set(self, "p_fly", p_fly)
        _set(self, "p_not_fly", p_not_fly)
        _set(self, "additivity_deficit", additivity_deficit)
        _set(self, "bound", bound)
        _set(self, "validity_flags", validity_flags)


def pearl_flying_bound(eps1, eps3) -> Fraction:
    """Upper bound ε₁/(1−ε₃) on the first conclusion's conditional probability.

    The bound does not involve ε₂ at all: no matter how reliable the second
    rule is, the estimate can never rise above it.
    """
    e1 = _unit("eps1", eps1)
    e3 = _unit("eps3", eps3)
    if e3 == 1:
        raise ValueError("eps3 = 1 makes the bound's denominator vanish")
    return e1 / (1 - e3)


def _range_flags(**named: Fraction) -> tuple[str, ...]:
    return tuple(
        f"{name} = {float(value):g} outside [0, 1]"
        for name, value in named.items()
        if not 0 <= value <= 1
    )


def indifference_estimates(eps1, eps2, eps3) -> BayesEstimates:
    """The two chain-rule estimates under an indifference prior.

    p_fly = ε₁(1−ε₂)/(1−ε₃) and p_not_fly = (1−ε₁)ε₂/(1−ε₃).  Their sum
    falls strictly short of one whenever 0 < ε₁, ε₂ < 1: the deficit is what
    this analysis cannot assign to either conclusion.
    """
    e1 = _unit("eps1", eps1)
    e2 = _unit("eps2", eps2)
    e3 = _unit("eps3", eps3)
    if e3 == 1:
        raise ValueError("eps3 = 1 makes the estimates' denominator vanish")
    p_fly = e1 * (1 - e2) / (1 - e3)
    p_not_fly = (1 - e1) * e2 / (1 - e3)
    deficit = 1 - (p_fly + p_not_fly)
    return BayesEstimates(
        p_fly=p_fly,
        p_not_fly=p_not_fly,
        additivity_deficit=deficit,
        bound=e1 / (1 - e3),
        # a negative deficit means the two "probabilities" exceed one
        # together, so it is a range violation just like an estimate > 1
        validity_flags=_range_flags(
            p_fly=p_fly, p_not_fly=p_not_fly, additivity_deficit=deficit
        ),
    )


class ModusTollensPosteriors(Value):
    """Both reverse-direction posteriors of a single weighted rule a -w-> b.

    Computed from assumed priors P(a) = pa and P(b) = pb; the flags record
    when a "posterior" leaves [0, 1], which is the demonstration that the
    reverse direction is underdetermined by the rule weight alone.
    """

    _fields = ("not_a_given_not_b", "not_a_given_b", "validity_flags")

    def __init__(
        self, not_a_given_not_b: Fraction, not_a_given_b: Fraction, validity_flags: tuple[str, ...]
    ) -> None:
        _set(self, "not_a_given_not_b", not_a_given_not_b)
        _set(self, "not_a_given_b", not_a_given_b)
        _set(self, "validity_flags", validity_flags)

    @property
    def pair(self) -> tuple[Fraction, Fraction]:
        return (self.not_a_given_not_b, self.not_a_given_b)


def modus_tollens_posteriors(w, pa, pb) -> ModusTollensPosteriors:
    """P(ā|b̄) = 1 − (1−w)·pa/(1−pb) and P(ā|b) = 1 − w·pa/pb.

    With the indifference priors pa = pb = 1/2 this returns (w, 1−w); any
    other priors can push the values out of [0, 1], in which case they are
    flagged rather than clamped.
    """
    weight = _unit("w", w)
    prior_a = _unit("pa", pa)
    prior_b = _unit("pb", pb)
    if prior_b in (0, 1):
        raise ValueError("pb must lie strictly inside (0, 1)")
    given_not_b = 1 - (1 - weight) * prior_a / (1 - prior_b)
    given_b = 1 - weight * prior_a / prior_b
    return ModusTollensPosteriors(
        not_a_given_not_b=given_not_b,
        not_a_given_b=given_b,
        validity_flags=_range_flags(
            not_a_given_not_b=given_not_b, not_a_given_b=given_b
        ),
    )
