"""Shared hypothesis strategies for frames, propositions, models and BBAs."""

from itertools import combinations

from hypothesis import strategies as st

from hyperbelief import Frame, Model, Proposition, canonicalize, conjoin, reduce_under_model

NAMES = ("a", "b", "c", "d")
WIDE_NAMES = ("a", "b", "c", "d", "e", "g")
FOLD_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")


@st.composite
def frames(draw, min_n=1, max_n=4):
    n = draw(st.integers(min_n, max_n))
    return Frame(NAMES[:n])


@st.composite
def propositions(draw, frame, allow_empty=True):
    n = len(frame)
    min_terms = 0 if allow_empty else 1
    n_terms = draw(st.integers(min_terms, 3))
    terms = [
        draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n))
        for _ in range(n_terms)
    ]
    return canonicalize(frame, terms)


@st.composite
def models(draw, frame):
    n = len(frame)
    candidates = [
        frozenset(c) for k in range(2, n + 1) for c in combinations(range(n), k)
    ]
    if not candidates:
        return Model.free(frame)
    chosen = draw(st.frozensets(st.sampled_from(candidates), max_size=len(candidates)))
    return Model.from_constraints(frame, chosen)


@st.composite
def framed_models(draw, min_n=1, max_n=4):
    frame = draw(frames(min_n=min_n, max_n=max_n))
    return draw(models(frame))


@st.composite
def modeled_props(draw, k=2, min_n=1, max_n=4):
    """A model together with k propositions on its frame."""
    frame = draw(frames(min_n=min_n, max_n=max_n))
    model = draw(models(frame))
    props = tuple(draw(propositions(frame)) for _ in range(k))
    return model, props


@st.composite
def single_term_props(draw, frame):
    n = len(frame)
    term = draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n))
    return canonicalize(frame, (term,))


@st.composite
def bbas(draw, model, max_focals=4, allow_conflict_mass=False):
    """A normalized mass function whose keys are model-reduced and non-empty
    (unless ``allow_conflict_mass`` lets a slice of mass sit on ∅)."""
    from hyperbelief.belief import BBA

    frame = model.frame
    focals = {}
    n_focals = draw(st.integers(1, max_focals))
    for _ in range(n_focals):
        p = reduce_under_model(draw(propositions(frame, allow_empty=False)), model)
        if p.is_empty and not allow_conflict_mass:
            continue
        focals[p] = focals.get(p, 0.0) + draw(st.floats(0.01, 1.0))
    if not focals:
        focals[reduce_under_model(canonicalize(frame, ((frozenset((0,)),))), model)] = 1.0
    total = sum(focals.values())
    return BBA(model, {k: v / total for k, v in focals.items()})


@st.composite
def wide_models(draw, min_n=4, max_n=6):
    """A model on up to six singletons with one or two exclusive pairs and up to
    two exclusive triples (frames too small for them get fewer)."""
    n = draw(st.sampled_from(range(max_n, min_n - 1, -1)))
    frame = Frame(WIDE_NAMES[:n])
    chosen = []
    for k, min_size in ((2, 1), (3, 0)):
        if n >= k:
            members = st.sampled_from(list(combinations(range(n), k)))
            chosen += draw(st.lists(members, min_size=min_size, max_size=2))
    return Model.from_constraints(frame, chosen)


@st.composite
def rule_bbas(draw, model):
    """{antecedent∧consequent: w, antecedent: 1−w} for small propositions (one or
    two terms of one or two members), shaped like an encoded weighted rule,
    except that the meet may reduce to ∅ and so put mass on it."""
    from hyperbelief.belief import BBA

    frame = model.frame
    small = st.lists(
        st.frozensets(st.integers(0, len(frame) - 1), min_size=1, max_size=2),
        min_size=1,
        max_size=2,
    ).map(lambda terms: canonicalize(frame, terms))
    drawn = draw(small)
    antecedent = reduce_under_model(drawn, model)
    if antecedent.is_empty:  # every term was a constraint: keep one singleton of it
        antecedent = canonicalize(frame, [[min(drawn.terms[0])]])
    both = reduce_under_model(conjoin(antecedent, draw(small)), model)
    w = draw(st.floats(0.05, 0.95))
    masses = {both: w}
    masses[antecedent] = masses.get(antecedent, 0.0) + (1.0 - w)
    return BBA(model, masses)


@st.composite
def dsm_scale_sources(draw):
    """A wide model with 2-8 rule-shaped sources, so at most 2^8 source tuples."""
    model = draw(wide_models())
    k = draw(st.integers(2, 8))
    return model, tuple(draw(rule_bbas(model)) for _ in range(k))


@st.composite
def fold_cases(draw):
    """A model on 2-8 singletons with up to four random constraints, and 2-6
    sources of which one carries a slice of its mass on ∅."""
    from hyperbelief.belief import BBA

    n = draw(st.integers(2, 8))
    frame = Frame(FOLD_NAMES[:n])
    constraint = st.frozensets(st.integers(0, n - 1), min_size=2, max_size=n)
    model = Model.from_constraints(frame, draw(st.lists(constraint, max_size=4)))
    sources = [draw(bbas(model, max_focals=3)) for _ in range(draw(st.integers(2, 6)))]
    k = draw(st.integers(0, len(sources) - 1))
    on_empty = draw(st.floats(0.01, 0.5))
    masses = {p: m * (1.0 - on_empty) for p, m in sources[k].items()}
    masses[Proposition.empty(frame)] = on_empty
    sources[k] = BBA(model, masses)
    return model, sources
