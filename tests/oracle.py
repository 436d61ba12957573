"""Naive reference implementations used to cross-check the engine.

Everything here works on region sets: a region is a non-empty subset V of
singleton indices (one cell of the free Venn diagram), and a proposition
covers V iff one of its terms is contained in V.  Meets and joins are then
plain set intersection/union over covered regions, and a model simply
deletes the regions that contain a declared-empty index set.  Two
propositions are equal under a model iff they cover the same surviving
regions, so region sets double as comparison keys for fused outputs.
"""

from collections import defaultdict
from itertools import chain, combinations, product
from math import fsum


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
