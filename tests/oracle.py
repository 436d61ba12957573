"""Naive reference implementations used to cross-check the engine.

Everything here works on region sets: a region is a non-empty subset V of
singleton indices (one cell of the free Venn diagram), and a proposition
covers V iff one of its terms is contained in V.  Meets and joins are then
plain set intersection/union over covered regions, and a model simply
deletes the regions that contain a declared-empty index set.  Two
propositions are equal under a model iff they cover the same surviving
regions, so region sets double as comparison keys for fused outputs.
"""

import argparse
import io
import json
import sys
from collections import defaultdict
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, permutations, product
from math import fsum
from typing import Mapping, Sequence

from hyperbelief import Frame
from hyperbelief.analysis import BayesEstimates, ModusTollensPosteriors
from hyperbelief.belief import Masks
from hyperbelief.cli import _DECODER, ScenarioError, _path, _typed
from hyperbelief.lattice import (
    AtomFrame,
    Model,
    Proposition,
    _brief,
    _families,
    _term_order,
    canonicalize,
    conjoin,
    proposition_from_names,
    reduce_under_model,
)
from hyperbelief.rulebase import ENGINES, DstAxes, EngineResult, QueryResult, Scenario, WeightedRule, _unanswered


def all_regions(n):
    return frozenset(
        frozenset(c) for k in range(1, n + 1) for c in combinations(range(n), k)
    )


def empty_regions(model):
    n = len(model.frame)
    return frozenset(
        v for v in all_regions(n) if any(c <= v for c in model.empty_intersections)
    )


def covered_regions(prop):
    n = len(prop.frame)
    return frozenset(v for v in all_regions(n) if any(t <= v for t in prop.terms))


def semantic(prop, model):
    """Regions covered by ``prop`` that survive the model's constraints."""
    return covered_regions(prop) - empty_regions(model)


def naive_leq(a, b, model):
    return semantic(a, model) <= semantic(b, model)


def _ignorance(model):
    n = len(model.frame)
    return all_regions(n) - empty_regions(model)


def _union_semantic(indices, model):
    # regions touched by at least one of the given singletons
    n = len(model.frame)
    return frozenset(
        v for v in all_regions(n) if v & indices
    ) - empty_regions(model)


def naive_conjunctive(model, sources):
    """Triple-loop conjunctive combination keyed by surviving region sets.

    Returns (masses, conflict) where the empty region set holds the conflict.
    """
    acc = defaultdict(float)
    for combo in product(*[list(s.items()) for s in sources]):
        pi = 1.0
        meet = frozenset(all_regions(len(model.frame)))
        for prop, mass in combo:
            pi *= mass
            meet &= semantic(prop, model)
        acc[meet] += pi
    return dict(acc), acc.get(frozenset(), 0.0)


def naive_dempster(model, sources):
    masses, conflict = naive_conjunctive(model, sources)
    k = 1.0 - conflict
    if k <= 1e-12:
        raise ZeroDivisionError("total conflict")
    return {key: m / k for key, m in masses.items() if key}, conflict


def naive_hybrid(model, sources):
    """Sum-form hybrid rule: meets where possible, otherwise route the mass
    to the joint ignorance of the sources (all-empty tuples) or to the join
    of the inputs, falling back to total ignorance when even that is empty.
    """
    ignorance = _ignorance(model)
    acc = defaultdict(float)
    conflict = 0.0
    for combo in product(*[list(s.items()) for s in sources]):
        props = [p for p, _ in combo]
        pi = 1.0
        for _, mass in combo:
            pi *= mass
        meet = frozenset(all_regions(len(model.frame)))
        for p in props:
            meet &= semantic(p, model)
        if meet:
            acc[meet] += pi
            continue
        conflict += pi
        if all(not semantic(p, model) for p in props):
            mentioned = frozenset(chain.from_iterable(t for p in props for t in p.terms))
            union = _union_semantic(mentioned, model)
            acc[union if union else ignorance] += pi
        else:
            join = frozenset()
            for p in props:
                join |= semantic(p, model)
            acc[join if join else ignorance] += pi
    return dict(acc), conflict


def _absorb(masks):
    """The antichain of the given term masks, ascending."""
    kept = []
    for t in sorted(set(masks)):
        if not any(o & t == o for o in kept):
            kept.append(t)
    return tuple(kept)


def absorb_fold(bbas, model):
    """The combination fold on term-mask tuples: {(reduced meet, join): mass}.

    Every state keeps its join as an absorbed tuple and re-absorbs
    ``join + focal`` at each step; equal states are merged by ``fsum`` in
    first-seen order (source order, then focal order).  The engine's fold
    must return the same keys, in the same order, with the same floats.
    """
    constraints = model.masks
    sources = [[(p.masks, m) for p, m in b.items()] for b in bbas]
    states = {(p, p): m for p, m in sources[0]}
    for source in sources[1:]:
        step = {}
        for (meet, join), mass in states.items():
            for p, m in source:
                unions = (t | s for t in meet for s in p)
                reduced = _absorb(u for u in unions if all(u & c != c for c in constraints))
                step.setdefault((reduced, _absorb(join + p)), []).append(mass * m)
        states = {k: fsum(v) for k, v in step.items()}
    return states


def pair_keyed_fold(
    sources: Sequence[Mapping[Masks, float]], model: Model
) -> dict[tuple[Masks, Masks], float]:
    """The reference for ``belief._fold``, which keys a rerouted state by its join bits alone.

    Here every state, live or rerouted, is keyed by its (meet, join bits)
    pair, and its meet goes through the meet memo at every step; the engine
    must return the same items, in the same order, with the same floats.
    ``_absorb`` is this module's, which returns what ``lattice._absorb``
    returns.

    Each source maps reduced, absorbed, ascending term-mask tuples to
    masses, in focal order.  Each step pairs every state with every focal of
    the next source and merges equal states by ``fsum``, so the table stays
    as small as the distinct states allow instead of growing with the
    product of the sources.

    A meet is a term-mask tuple.  Its meet with a focal drops every term
    union that contains a constraint, and is computed once per (focal, meet);
    whether a union contains a constraint is settled once per distinct
    union in the fold.

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
    """
    constraints = model.masks
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
    allowed: dict[int, bool] = {}  # union mask -> it contains no constraint
    states = {(p, bits): m for p, bits, m, _ in coded[0]}
    for focals in coded[1:]:
        step: dict[tuple[Masks, int], list[float]] = {}
        for (meet, join), mass in states.items():
            for p, bits, m, meets in focals:
                reduced = meets.get(meet)
                if reduced is None:
                    unions = []
                    for t in meet:
                        for s in p:
                            u = t | s
                            ok = allowed.get(u)
                            if ok is None:
                                ok = allowed[u] = all(u & c != c for c in constraints)
                            if ok:
                                unions.append(u)
                    reduced = meets[meet] = _absorb(unions)
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


def naive_antichains(n):
    """Every antichain of non-empty subsets of range(n), by brute force.

    Each antichain is a tuple of frozensets in canonical term order (size,
    then sorted members); the list is sorted by the bitmask of the monotone
    family the antichain generates (bit Σ 2^i, i ∈ S, set for each S in it).
    """
    subsets = [frozenset(c) for k in range(1, n + 1) for c in combinations(range(n), k)]
    everything = [frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)]
    found = []
    for chosen in chain.from_iterable(combinations(subsets, k) for k in range(len(subsets) + 1)):
        if any(s < t for s in chosen for t in chosen):
            continue
        family = sum(1 << sum(1 << i for i in v) for v in everything if any(t <= v for t in chosen))
        found.append((family, tuple(sorted(chosen, key=lambda t: (len(t), sorted(t))))))
    return [terms for _, terms in sorted(found)]


def shift_mask_antichains(n):
    """Every antichain of non-empty subsets of range(n), ∅ first, in mask order.

    The (lo, hi) recursion builds the monotone families as bitmasks over the
    2^n subsets, as the engine does, but each family finds its minimal sets
    on its own: S is not minimal when some S \\ {i} is in the family, and
    shifting the family's sets that lack i up by 2^i marks every such S at
    once.  Each antichain is a tuple of subset ints (bit i for member i) in
    canonical term order: by size, then by sorted members.
    """
    masks = [0, 1]  # the two constant families over the empty frame
    for k in range(n - 1):
        masks = [lo | hi << (1 << k) for hi in masks for lo in masks if lo & ~hi == 0]
    subsets = range(1 << n)
    steps = [(sum(1 << s for s in subsets if not s >> i & 1), 1 << i) for i in range(n)]
    order = sorted(subsets, key=lambda s: (s.bit_count(), [i for i in range(n) if s >> i & 1]))
    rank = {s: r for r, s in enumerate(order)}
    shift = 1 << (n - 1)
    below = masks[:-1]
    for hi in masks:
        for lo in below:
            if lo & ~hi:
                continue
            family = lo | hi << shift
            covered = 0
            for without, up in steps:
                covered |= (family & without) << up
            minimal = family & ~covered
            terms = []
            while minimal:
                bit = minimal & -minimal
                terms.append(bit.bit_length() - 1)
                minimal ^= bit
            terms.sort(key=rank.__getitem__)
            yield tuple(terms)


@cache
def filter_walk(n):
    """The walk ``lattice._antichains`` took before the sub-family walk: every lo ≤ hi filtered by lo ⊆ hi.

    Returns the number of his (the families over n - 1 singletons) and a
    function from a hi's index to its list of rank bit sets, one per lo ⊆ hi
    but the all-true lo, in the engine's order and encoding.
    """
    rank = {s: r for r, s in enumerate(_term_order(n))}
    top = 1 << (n - 1)
    lifts = [1 << rank[s | top] for s in range(top)]  # the rank bit of S ∪ {n - 1}, per S
    halves = _families(n - 1)
    # per lo: its family, its terms' rank bits, and every bit but those of S ∪ {n - 1} for S in lo
    lows = [
        (lo, sum(1 << rank[s] for s in lo_min), ~sum(b for s, b in enumerate(lifts) if lo >> s & 1))
        for lo, lo_min in halves[:-1]
    ]

    def block(i):
        hi, hi_min = halves[i]
        lifted = sum(lifts[s] for s in hi_min)
        outside = ~hi
        # lo ⊆ hi needs lo ≤ hi
        return [lo_bits | lifted & lo_lacks for lo, lo_bits, lo_lacks in lows[: i + 1] if not lo & outside]

    return len(halves), block


# -------------------------------------------------------- Fraction estimates
#
# The point estimates as plain ``Fraction`` arithmetic, one operation per
# step of each formula: the reference for ``analysis``, which reads each
# argument as an integer ratio and builds each value once.


def fraction_unit(name: str, value) -> Fraction:
    x = Fraction(value)
    if not 0 <= x <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return x


def fraction_pearl_flying_bound(eps1, eps3) -> Fraction:
    e1 = fraction_unit("eps1", eps1)
    e3 = fraction_unit("eps3", eps3)
    if e3 == 1:
        raise ValueError("eps3 = 1 makes the bound's denominator vanish")
    return e1 / (1 - e3)


def fraction_range_flags(**named: Fraction) -> tuple[str, ...]:
    return tuple(
        f"{name} = {float(value):g} outside [0, 1]"
        for name, value in named.items()
        if not 0 <= value <= 1
    )


def fraction_indifference_estimates(eps1, eps2, eps3) -> BayesEstimates:
    e1 = fraction_unit("eps1", eps1)
    e2 = fraction_unit("eps2", eps2)
    e3 = fraction_unit("eps3", eps3)
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
        validity_flags=fraction_range_flags(
            p_fly=p_fly, p_not_fly=p_not_fly, additivity_deficit=deficit
        ),
    )


def fraction_modus_tollens_posteriors(w, pa, pb) -> ModusTollensPosteriors:
    weight = fraction_unit("w", w)
    prior_a = fraction_unit("pa", pa)
    prior_b = fraction_unit("pb", pb)
    if prior_b in (0, 1):
        raise ValueError("pb must lie strictly inside (0, 1)")
    given_not_b = 1 - (1 - weight) * prior_a / (1 - prior_b)
    given_b = 1 - weight * prior_a / prior_b
    return ModusTollensPosteriors(
        not_a_given_not_b=given_not_b,
        not_a_given_b=given_b,
        validity_flags=fraction_range_flags(
            not_a_given_not_b=given_not_b, not_a_given_b=given_b
        ),
    )


def match_triangle(scenario: Scenario):
    """Find (rule_x, rule_y, chain) with x→c, y→c', x→y, obs = x∧y, c∧c' = ∅.

    The reference for the bayes engine's match: every side is reduced again,
    as a ``Proposition``, inside each permutation, and meets are ``conjoin``.
    """
    if len(scenario.rules) != 3 or len(scenario.observations) != 1:
        return None
    model = scenario.model
    obs = reduce_under_model(scenario.observations[0], model)
    for rx, ry, chain in permutations(scenario.rules):
        if reduce_under_model(chain.antecedent, model) != reduce_under_model(
            rx.antecedent, model
        ):
            continue
        if reduce_under_model(chain.consequent, model) != reduce_under_model(
            ry.antecedent, model
        ):
            continue
        if not reduce_under_model(conjoin(rx.consequent, ry.consequent), model).is_empty:
            continue
        if reduce_under_model(conjoin(rx.antecedent, ry.antecedent), model) != obs:
            continue
        return rx, ry, chain
    return None


def run_bayes(scenario: Scenario) -> EngineResult:
    """The bayes engine's result from :func:`match_triangle`, each query looked up as a ``Proposition``."""

    def not_applicable(reason: str) -> EngineResult:
        return _unanswered(scenario, "bayes", "not_applicable", reason, reason)

    match = match_triangle(scenario)
    if match is None:
        return not_applicable(
            "not applicable: scenario is not a three-rule triangle with one observation"
        )
    rx, ry, chain = match
    eps1, eps2, eps3 = 1.0 - rx.weight, 1.0 - ry.weight, 1.0 - chain.weight
    if eps3 == 1.0:
        return not_applicable(
            "not applicable: the chain rule has weight 0, so the estimates' denominator vanishes"
        )
    estimates = fraction_indifference_estimates(eps1, eps2, eps3)
    model = scenario.model
    by_target = {
        reduce_under_model(ry.consequent, model): float(estimates.p_fly),
        reduce_under_model(rx.consequent, model): float(estimates.p_not_fly),
    }
    rows = []
    for q in scenario.queries:
        value = by_target.get(reduce_under_model(q, model))
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


def atoms_of(mask):
    """The atom indices of an int atom mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def atom_index(atom_frame, values):
    """The index of the atom with one value per axis, first axis most significant."""
    index = 0
    for axis, v in zip(atom_frame.axes, values):
        index = index * len(axis) + v
    return index


def to_frame(atom_frame):
    """The atoms of an ``AtomFrame`` as the singletons of a frame, by their names."""
    return Frame(tuple(atom_frame.atom_name(i) for i in range(atom_frame.atom_count)))


def refine_to_atoms(prop, atom_frame, literal_map):
    """The atoms consistent with some term of ``prop``, listed one by one.

    Each term pins its literals' axes; a term that pins one axis to two
    values lists no atoms, and every other term lists the product of its
    pinned values and every value of each free axis.  Every literal is
    checked, in the engine's order (terms by mask, members ascending), with
    the engine's messages.
    """
    axes = atom_frame.axes
    atoms = set()
    for term in prop.masks:
        pinned = {}
        clash = False
        for i in atoms_of(term):
            name = prop.frame.names[i]
            if name not in literal_map:
                raise ValueError(f"singleton {name!r} has no axis mapping")
            axis, value = literal_map[name]
            if not 0 <= axis < len(axes) or not 0 <= value < len(axes[axis]):
                raise ValueError(f"axis mapping for {name!r} is out of range")
            clash = clash or pinned.setdefault(axis, value) != value
        if not clash:
            choices = [
                (pinned[axis],) if axis in pinned else range(len(axes[axis]))
                for axis in range(len(axes))
            ]
            atoms.update(atom_index(atom_frame, values) for values in product(*choices))
    return frozenset(atoms)


def naive_dst(scenario):
    """The dst engine on atom sets: (fused masses keyed by frozensets of atoms,
    conflict, K, [(Bel, Pl)] per query).

    Each proposition is refined by :func:`refine_to_atoms` as written, and the
    atoms where every member of a declared constraint holds are deleted, as
    :func:`semantic` deletes the regions that contain one: with one binary
    axis per singleton the atoms are exactly the Venn regions plus the one
    where no singleton holds.  A constraint that names a singleton the map
    omits is skipped.  A rule is {antecedent∧consequent: w, antecedent: 1−w}
    and an observation {o: 1}; Dempster's rule folds them from every allowed
    atom.  Raises ZeroDivisionError on total conflict.
    """
    axes, literal_map = scenario.dst_axes.axes, scenario.dst_axes.literal_map
    frame = scenario.frame

    def atoms(prop):
        return refine_to_atoms(prop, axes, literal_map)

    forbidden = frozenset()
    for c in scenario.model.empty_intersections:
        if all(frame.names[i] in literal_map for i in c):
            forbidden |= atoms(canonicalize(frame, [c]))
    states = {frozenset(range(axes.atom_count)) - forbidden: 1.0}
    sources = [
        [(atoms(r.antecedent & r.consequent), r.weight), (atoms(r.antecedent), 1.0 - r.weight)]
        for r in scenario.rules
    ]
    sources += [[(atoms(o), 1.0)] for o in scenario.observations]
    for source in sources:
        step = defaultdict(list)
        for state, m in states.items():
            for focal, f in source:
                step[state & focal].append(m * f)
        states = {key: fsum(masses) for key, masses in step.items()}
    conflict = states.pop(frozenset(), 0.0)
    if 1.0 - conflict <= 1e-12:
        raise ZeroDivisionError("total conflict")
    total = fsum(states.values())
    fused = {key: m / total for key, m in states.items() if m > 0.0}
    intervals = []
    for q in scenario.queries:
        region = atoms(q)
        intervals.append(
            (fsum(m for f, m in fused.items() if f <= region), fsum(m for f, m in fused.items() if f & region))
        )
    return fused, conflict, 1.0 - conflict, intervals


def fused_tree(fused):
    """A fused assignment as the report's dict: a BBA's keys by their names,
    a dst ``AtomMasses`` key (an int atom mask) as one single-name term per
    atom, atoms ascending."""
    if hasattr(fused, "axes"):
        name = fused.axes.atom_name
        props = [[[name(i)] for i in atoms_of(focal)] for focal in fused.masses]
    else:
        props = [prop.to_names() for prop in fused.masses]
    return {"masses": [{"prop": p, "mass": m} for p, m in zip(props, fused.masses.values())]}


def report_tree(report):
    """A ``FusionReport`` as the dict tree whose ``json.dumps(indent=2,
    ensure_ascii=False)`` text, plus a newline, is its ``--format json``."""

    def estimates(e):
        return {
            "p_fly": float(e.p_fly),
            "p_not_fly": float(e.p_not_fly),
            "additivity_deficit": float(e.additivity_deficit),
            "bound": float(e.bound),
            "validity_flags": list(e.validity_flags),
        }

    def query(q):
        return {
            "query": q.query.to_names(),
            "bel": q.bel,
            "pl": q.pl,
            "estimate": q.estimate,
            "note": q.note,
        }

    def result(r):
        return {
            "engine": r.engine,
            "status": r.status,
            "fused": None if r.fused is None else fused_tree(r.fused),
            "conflict_mass": r.conflict_mass,
            "stage_conflicts": list(r.stage_conflicts),
            "normalization_constant": r.normalization_constant,
            "queries": [query(q) for q in r.queries],
            "flags": list(r.flags),
            "estimates": None if r.estimates is None else estimates(r.estimates),
        }

    return {"results": [result(r) for r in report.results]}


def report_rows(report):
    """A ``FusionReport``'s table and csv rows, with ``str`` called on each row's query."""

    def cell(value):
        return "" if value is None else f"{value:.12g}"

    rows = []
    for r in report.results:
        for q in r.queries:
            bel, pl = (q.bel, q.pl) if q.estimate is None else (q.estimate, q.estimate)
            rows.append((r.engine, str(q.query), cell(bel), cell(pl), q.note))
    return rows


@cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    """The command line as argparse reads it: the reference for ``cli``'s argv table."""
    parser = argparse.ArgumentParser(
        prog="hyperbelief",
        description="Fuse weighted rule bases with Bayesian, Dempster-Shafer, "
        "and hybrid DSm engines.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="diagnostics on stderr")
    commands = parser.add_subparsers(dest="subcommand", required=True)

    fuse = commands.add_parser("fuse", help="run a scenario file ('-' reads stdin)")
    fuse.add_argument("path")
    fuse.add_argument("--engine", choices=(*ENGINES, "all"), help="override the scenario's engines")
    fuse.add_argument("--format", dest="fmt", choices=("table", "json", "csv"), default="table")

    compare = commands.add_parser("compare", help="run every engine the scenario supports")
    compare.add_argument("path")
    compare.add_argument("--format", dest="fmt", choices=("table", "json", "csv"), default="table")

    enumerate_cmd = commands.add_parser("enumerate", help="print the hyper-power set")
    enumerate_cmd.add_argument("--n", type=int, required=True, help="number of singletons")
    enumerate_cmd.add_argument("--allow-large", action="store_true", help="permit n above the default cap")

    commands.add_parser("check-logic", help="verify the classical principles by truth table")
    return parser


# ----------------------------------------------------------- scenario parser
#
# The check-then-resolve scenario parser, kept as the reference for
# ``cli.parse_scenario``: every field's type is checked first, with its field
# path built before the check, and each name list is then resolved again by
# ``proposition_from_names``.  The two must refuse the same input with the
# same message, or return equal scenarios.


def _checked(where: str, build, *args):
    """``build(*args)``; its ValueError becomes a ScenarioError, prefixed ``where: `` if ``where``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}" if where else str(exc)) from exc


def _expect(value, kind, where: str):
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"{where} must be a number, got {_brief(repr(value))}")
        try:
            return float(value)
        except OverflowError:  # an integer literal past the float range
            raise ScenarioError(f"{where} is too large for a float") from None
    if not isinstance(value, kind):
        raise ScenarioError(f"{where} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _name(value, where: str) -> str:
    """A string the reports print: it must encode as UTF-8, so no lone surrogate."""
    name = _expect(value, str, where)
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:  # JSON can escape half of a surrogate pair, "\ud800"
        raise ScenarioError(f"{where} holds a lone surrogate, got {_brief(repr(name))}") from None
    return name


def _get(mapping: dict, key: str, kind, where: str, default=None, required=False):
    if key not in mapping:
        if required:
            raise ScenarioError(f"missing required field {where}{key}")
        return default
    return _expect(mapping[key], kind, f"{where}{key}")


def _fields(value, where: str, known: tuple[str, ...]) -> dict:
    """A JSON object whose keys all lie in ``known``; ``where`` prefixes field paths."""
    blob = _expect(value, dict, where.rstrip(".") or "scenario")
    for key in blob:
        if key not in known:
            raise ScenarioError(f"unknown field {where}{_brief(key)}")
    return blob



def _proposition(frame: Frame, nested, where: str) -> Proposition:
    terms = _expect(nested, list, where)
    for i, term in enumerate(terms):
        term = _expect(term, list, f"{where}[{i}]")
        for j, name in enumerate(term):
            _expect(name, str, f"{where}[{i}][{j}]")
    return _checked(where, proposition_from_names, frame, terms)


def parse_scenario(text: str) -> Scenario:
    """Validate scenario JSON, raising ScenarioError naming the broken field."""
    try:
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        data = _DECODER.decode(text)
    except ScenarioError:
        raise
    except (ValueError, RecursionError) as exc:  # also too deep, or an integer too long to read
        # a scenario author cannot act on Python's advice to raise its digit limit
        reason = str(exc).partition("; use sys.set_int_max_str_digits()")[0]
        raise ScenarioError(f"not valid JSON: {reason}") from exc
    data = _fields(
        data,
        "",
        ("frame", "constraints", "rules", "observations", "queries", "engines", "dst_axes"),
    )

    names = _get(data, "frame", list, "", required=True)
    for i, name in enumerate(names):
        _name(name, f"frame[{i}]")
        # the reports print terms as names joined by ∩ and ∪, so a name holding one is ambiguous
        if "∩" in name or "∪" in name:
            raise ScenarioError(f"frame[{i}] must not contain ∩ or ∪, got {_brief(repr(name))}")
        if name == "∅":  # the reports print the empty proposition as ∅
            raise ScenarioError(f"frame[{i}] must not be ∅, the name of the empty proposition")
    frame = _checked("frame", Frame, tuple(names))

    constraint_sets = []
    for i, group in enumerate(_get(data, "constraints", list, "", default=[])):
        group = _expect(group, list, f"constraints[{i}]")
        members = set()
        for j, name in enumerate(group):
            where = f"constraints[{i}][{j}]"
            members.add(_checked(where, frame.index, _expect(name, str, where)))
        constraint_sets.append(frozenset(members))
    model = _checked("constraints", Model.from_constraints, frame, constraint_sets)

    rules = []
    for i, blob in enumerate(_get(data, "rules", list, "", default=[])):
        blob = _fields(blob, f"rules[{i}].", ("if", "then", "weight"))
        antecedent = _proposition(frame, _get(blob, "if", list, f"rules[{i}].", required=True), f"rules[{i}].if")
        consequent = _proposition(frame, _get(blob, "then", list, f"rules[{i}].", required=True), f"rules[{i}].then")
        weight = _get(blob, "weight", float, f"rules[{i}].", required=True)
        rules.append(_checked(f"rules[{i}]", WeightedRule, antecedent, consequent, weight))

    observations = tuple(
        _proposition(frame, blob, f"observations[{i}]")
        for i, blob in enumerate(_get(data, "observations", list, "", default=[]))
    )
    queries = tuple(
        _proposition(frame, blob, f"queries[{i}]")
        for i, blob in enumerate(_get(data, "queries", list, "", default=[]))
    )

    engines = _get(data, "engines", list, "", default=["dsm"])
    for i, engine in enumerate(engines):
        _expect(engine, str, f"engines[{i}]")

    dst_axes = None
    if "dst_axes" in data:
        axes_blob = _fields(data["dst_axes"], "dst_axes.", ("axes", "map"))
        axes = _get(axes_blob, "axes", list, "dst_axes.", required=True)
        for i, axis in enumerate(axes):
            axis = _expect(axis, list, f"dst_axes.axes[{i}]")
            for j, value in enumerate(axis):
                _name(value, f"dst_axes.axes[{i}][{j}]")
        literal_map = {}
        for name, coordinate in _get(axes_blob, "map", dict, "dst_axes.", required=True).items():
            where = f"dst_axes.map[{_brief(repr(name))}]"
            coordinate = _expect(coordinate, list, where)
            if len(coordinate) != 2:
                raise ScenarioError(f"{where} must be [axis, value]")
            axis = _expect(coordinate[0], float, f"{where}[0]")
            value = _expect(coordinate[1], float, f"{where}[1]")
            if not (axis.is_integer() and value.is_integer()):  # also NaN and ±inf
                raise ScenarioError(f"{where} must hold integers")
            literal_map[_name(name, "dst_axes.map key")] = (int(axis), int(value))
        dst_axes = _checked("dst_axes", lambda: DstAxes(AtomFrame(axes), literal_map))

    return _checked(
        "", Scenario, model, tuple(rules), observations, queries, tuple(engines), dst_axes
    )


# -------------------------------------------------------------- input reading
#
# The text-mode file reader and the name check that ``cli._read_input`` and
# ``cli._name`` replaced, kept as their references.  The reader decodes as
# it reads and translates every line end to "\n"; a file that is not UTF-8
# escapes it as UnicodeDecodeError.  The name check encodes every string.


def read_input(path: str) -> str:
    """The text of the file at ``path``, or of stdin's bytes for ``-``, read in strict text mode."""
    if path == "-":
        return io.TextIOWrapper(io.BytesIO(sys.stdin.buffer.read()), encoding="utf-8").read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def checked_name(value, where: str, *at) -> str:
    """A string the reports print: it must encode as UTF-8, so no lone surrogate."""
    name = _typed(value, str, where, *at)
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:  # JSON can escape half of a surrogate pair, "\ud800"
        raise ScenarioError(f"{_path(where, at)} holds a lone surrogate, got {_brief(repr(name))}") from None
    return name
