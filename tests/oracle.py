"""Naive reference implementations used to cross-check the engine.

The naive rules work on the region masks of ``reference.RegionSpace``, which
imports nothing from the package: a region is a non-empty set of singletons
that contains no declared-empty set (one surviving cell of the Venn
diagram), and a proposition is the int mask of the regions that contain one
of its terms.  Meets and joins are then ``&`` and ``|``, and two
propositions are equal under a model iff their masks are, so region masks
double as comparison keys for fused outputs.
"""

import argparse
import io
import json
import sys
import unicodedata
from collections import defaultdict
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, permutations, product

from harness import reference

from hyperbelief import Frame
from hyperbelief.analysis import BayesEstimates, ModusTollensPosteriors
from hyperbelief.cli import ScenarioError, _path, _typed
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


@cache
def regions(model):
    """The model's ``RegionSpace``: region r, bit r of a mask, is the singleton mask ``.regions[r]``."""
    frame = model.frame
    return reference.RegionSpace(list(frame.names), [_names(frame, c) for c in model.masks])


def _names(frame, mask):
    """The names of a mask's singletons, ascending."""
    return [name for i, name in enumerate(frame.names) if mask >> i & 1]


def semantic(prop, model):
    """The mask of the surviving regions ``prop`` covers, computed once per model and proposition."""
    return regions(model).sem([_names(model.frame, t) for t in prop.masks])


def region_masses(result, model):
    """A combined BBA as {region mask: mass}, comparable with the naive rules' output."""
    return {semantic(key, model): mass for key, mass in result.items()}


def naive_leq(a, b, model):
    return semantic(a, model) & ~semantic(b, model) == 0


def _region_sources(model, sources):
    return [[(semantic(p, model), m) for p, m in s.items()] for s in sources]


def naive_conjunctive(model, sources):
    """Triple-loop conjunctive combination keyed by region masks.

    Returns (masses, conflict) where the region mask 0 holds the conflict.
    """
    ignorance = regions(model).ignorance
    acc = defaultdict(float)
    for combo in product(*_region_sources(model, sources)):
        pi = 1.0
        meet = ignorance
        for region, mass in combo:
            pi *= mass
            meet &= region
        acc[meet] += pi
    return dict(acc), acc.get(0, 0.0)


def naive_dempster(model, sources):
    """The conjunctive masses off ∅ over their total; ZeroDivisionError when no meet keeps mass."""
    masses, conflict = naive_conjunctive(model, sources)
    kept = {key: m for key, m in masses.items() if key}
    total = sum(kept.values())
    if not total:
        raise ZeroDivisionError("total conflict")
    return {key: m / total for key, m in kept.items()}, conflict


def naive_hybrid(model, sources):
    """Sum-form hybrid rule: meets where possible, otherwise route the mass
    to the join of the inputs, falling back to total ignorance when even
    that is empty.  A BBA's keys are reduced, so a key that covers no region
    is ∅ itself, which mentions no singleton: the joint ignorance of an
    all-∅ tuple is total ignorance too.
    """
    return _region_hybrid(model, _region_sources(model, sources))


def _region_hybrid(model, sources):
    """:func:`naive_hybrid` on sources given as lists of (region mask, mass):
    (masses, conflict).  It only multiplies and adds the masses, so it is
    exact on ``Fraction`` masses."""
    ignorance = regions(model).ignorance
    acc = defaultdict(int)
    conflict = 0
    for combo in product(*sources):
        pi = 1
        meet, join = ignorance, 0
        for region, mass in combo:
            pi *= mass
            meet &= region
            join |= region
        if meet:
            acc[meet] += pi
            continue
        conflict += pi
        acc[join or ignorance] += pi
    return dict(acc), conflict


def exact_dsm(scenario):
    """The dsm engine exactly, by the naive hybrid rule on region masks:
    (fused masses keyed by region masks, stage conflicts, [(Bel, Pl)] per
    query), each a ``Fraction``.

    A rule is {antecedent∧consequent: w, antecedent: 1−w}, with w the
    ``Fraction`` of its float weight and a zero mass left out, and an
    observation is {o: 1}.  The rules are one stage, total ignorance when
    there is none, and each observation is one more stage, in file order.
    """
    model = scenario.model
    rules = []
    for rule in scenario.rules:
        w = Fraction(rule.weight)
        pairs = ((semantic(rule.antecedent & rule.consequent, model), w), (semantic(rule.antecedent, model), 1 - w))
        rules.append([(region, m) for region, m in pairs if m])
    fused, conflict = _region_hybrid(model, rules or [[(regions(model).ignorance, Fraction(1))]])
    conflicts = [conflict]
    for obs in scenario.observations:
        fused, conflict = _region_hybrid(model, [list(fused.items()), [(semantic(obs, model), Fraction(1))]])
        conflicts.append(conflict)
    intervals = []
    for q in scenario.queries:
        region = semantic(q, model)
        bel = sum(m for r, m in fused.items() if r and r & ~region == 0)
        intervals.append((bel, sum(m for r, m in fused.items() if r & region)))
    return fused, conflicts, intervals


def _absorb(masks):
    """The antichain of the given term masks, ascending."""
    kept = []
    for t in sorted(set(masks)):
        if not any(o & t == o for o in kept):
            kept.append(t)
    return tuple(kept)


def absorb_fold(bbas, model):
    """The combination fold on term-mask tuples: {(reduced meet, join): exact mass}.

    Every state keeps its join as an absorbed tuple and re-absorbs
    ``join + focal`` at each step; each mass is the ``Fraction`` of a source's
    float, and equal states are summed exactly, in first-seen order (source
    order, then focal order).  The engine's fold must return the same keys,
    in the same order, with the same exact masses.
    """
    constraints = model.masks
    sources = [[(p.masks, Fraction(m)) for p, m in b.items()] for b in bbas]
    states = {(p, p): m for p, m in sources[0]}
    for source in sources[1:]:
        step = defaultdict(int)
        for (meet, join), mass in states.items():
            for p, m in source:
                unions = (t | s for t in meet for s in p)
                reduced = _absorb(u for u in unions if all(u & c != c for c in constraints))
                step[(reduced, _absorb(join + p))] += mass * m
        states = dict(step)
    return states


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
    """The dst engine on atom sets, exactly: (fused masses keyed by frozensets
    of atoms, conflict, K, [(Bel, Pl)] per query), each a ``Fraction``.

    Each proposition is refined by :func:`refine_to_atoms` as written, and the
    atoms where every member of a declared constraint holds are deleted, as
    :func:`semantic` deletes the regions that contain one: with one binary
    axis per singleton the atoms are exactly the Venn regions plus the one
    where no singleton holds.  A constraint that names a singleton the map
    omits is skipped.  A rule is {antecedent∧consequent: w, antecedent: 1−w},
    with w the ``Fraction`` of its float weight, and an observation {o: 1};
    Dempster's rule folds them from every allowed atom.  Raises
    ZeroDivisionError on total conflict, when no atom set keeps any mass.
    """
    axes, literal_map = scenario.dst_axes.axes, scenario.dst_axes.literal_map
    frame = scenario.frame

    def atoms(prop):
        return refine_to_atoms(prop, axes, literal_map)

    forbidden = frozenset()
    for c in scenario.model.empty_intersections:
        if all(frame.names[i] in literal_map for i in c):
            forbidden |= atoms(canonicalize(frame, [c]))
    states = {frozenset(range(axes.atom_count)) - forbidden: Fraction(1)}
    sources = [
        [(atoms(r.antecedent & r.consequent), Fraction(r.weight)), (atoms(r.antecedent), 1 - Fraction(r.weight))]
        for r in scenario.rules
    ]
    sources += [[(atoms(o), Fraction(1))] for o in scenario.observations]
    for source in sources:
        step = defaultdict(int)
        for state, m in states.items():
            for focal, f in source:
                if f:
                    step[state & focal] += m * f
        states = dict(step)
    conflict = states.pop(frozenset(), Fraction(0))
    if not states:
        raise ZeroDivisionError("total conflict")
    total = sum(states.values())
    fused = {key: m / total for key, m in states.items()}
    intervals = []
    for q in scenario.queries:
        region = atoms(q)
        intervals.append(
            (sum(m for f, m in fused.items() if f <= region), sum(m for f, m in fused.items() if f & region))
        )
    return fused, conflict, total, intervals


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
# ``proposition_from_names``.  It decodes with ``json.loads`` and its own
# duplicate-key hook, and finds control characters by their Unicode category,
# so a fault in ``cli``'s decoder or its control-character pattern is not on
# both sides.  The two must refuse the same input with the same message, or
# return equal scenarios.


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


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are distinct; the first key given again is refused."""
    keys = [key for key, _ in pairs]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ScenarioError(f"key {_brief(repr(key))} is given twice")
    return dict(pairs)


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
        data = json.loads(text, object_pairs_hook=_unique_keys)
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
        if any(unicodedata.category(char) == "Cc" for char in name):
            raise ScenarioError(f"frame[{i}] must not contain a control character, got {_brief(repr(name))}")
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
