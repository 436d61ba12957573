"""Canonical form, enumeration, model reduction and refinement of the lattice."""

import time
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperbelief import (
    AtomFrame,
    EnumerationLimitError,
    Frame,
    Model,
    Proposition,
    canonicalize,
    conjoin,
    disjoin,
    enumerate_hyper_power_set,
    iter_hyper_power_set,
    leq,
    proposition_from_names,
    reduce_under_model,
    refine_to_atoms,
    total_ignorance,
)
from hyperbelief.lattice import ATOM_LIMIT, _Allowed, _antichains, _rank_tables, _term_order

import oracle
from harness import B, F, NF, P, TPAXES, TPFRAME, TPMODEL
from strategies import frames, framed_models, modeled_props, propositions, wide_models

H1 = (B & F) | P
H2 = (P & NF) | (B & F) | (P & B)


# --- canonical form ---------------------------------------------------------


def test_absorption_drops_covered_terms():
    prop = canonicalize(TPFRAME, [{0, 3}, {1, 2}, {0}])
    assert prop.terms == (frozenset({0}), frozenset({1, 2}))
    assert prop == H1


def test_terms_sorted_by_size_then_lexicographically():
    prop = canonicalize(TPFRAME, [{1, 2}, {0, 3}, {2}])
    assert prop.terms == (frozenset({2}), frozenset({0, 3}))


def test_duplicate_terms_collapse():
    assert canonicalize(TPFRAME, [{0, 1}, {1, 0}]).terms == (frozenset({0, 1}),)


def test_empty_term_rejected():
    with pytest.raises(ValueError):
        canonicalize(TPFRAME, [set()])


def test_out_of_range_index_rejected():
    with pytest.raises(ValueError):
        canonicalize(TPFRAME, [{0, 9}])


@pytest.mark.parametrize("mask", [frozenset({0}), 0, -1, 1 << 4])
def test_masks_outside_the_frame_rejected(mask):
    with pytest.raises(ValueError):
        Proposition(TPFRAME, (mask,))


@pytest.mark.parametrize("mask", [frozenset({0, 1}), 0b0100, 1 << 4 | 1])
def test_constraint_masks_outside_the_frame_rejected(mask):
    with pytest.raises(ValueError):
        Model(TPFRAME, frozenset({mask}))


def index_set_lists(frame):
    n = len(frame)
    return st.lists(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n), max_size=5)


@given(frames(), st.data())
def test_masks_are_the_ascending_antichain_and_terms_the_canonical_view(frame, data):
    listed = data.draw(index_set_lists(frame))
    a = canonicalize(frame, listed)
    assert list(a.masks) == sorted(set(a.masks))
    assert not any(s != t and s & t == s for s in a.masks for t in a.masks)
    assert sorted(sum(1 << i for i in t) for t in a.terms) == list(a.masks)
    assert list(a.terms) == sorted(a.terms, key=lambda t: (len(t), sorted(t)))
    # the same antichain listed with absorbed extras in another order, and an unrelated one
    extras = [t | e for t, e in zip(listed, data.draw(index_set_lists(frame)))]
    same = canonicalize(frame, data.draw(st.permutations(listed + extras)))
    other = canonicalize(frame, data.draw(index_set_lists(frame)))
    for b in (same, other):
        assert (a == b) == (oracle.covered_regions(a) == oracle.covered_regions(b))
    assert a == same


def test_names_round_trip():
    assert proposition_from_names(TPFRAME, [["p", "nf"], ["b", "f"]]).to_names() == [
        ["p", "nf"],
        ["b", "f"],
    ]


@st.composite
def named_terms(draw):
    """A frame and name lists over it, with unknown names and empty terms among them."""
    frame = draw(frames())
    name = st.sampled_from((*frame.names, "z", "p∩b"))
    return frame, draw(st.lists(st.lists(name, max_size=3), max_size=4))


def _masks_or_error(build):
    try:
        return build().masks
    except ValueError as exc:
        return str(exc)


@given(named_terms())
@example((TPFRAME, [[], ["z"]]))  # an unknown name beats an empty term before it
@example((TPFRAME, [["z"], []]))
@example((TPFRAME, [["p", "p"], [], ["b"]]))
def test_names_resolve_as_the_checked_constructor_does(case):
    frame, nested = case
    got = _masks_or_error(lambda: proposition_from_names(frame, nested))
    want = _masks_or_error(
        lambda: canonicalize(frame, [[frame.index(n) for n in term] for term in nested])
    )
    assert got == want
    if isinstance(got, tuple):
        assert Proposition(frame, got).masks == got


def test_str_rendering():
    assert str(Proposition.empty(TPFRAME)) == "∅"
    assert str(P & B) == "p∩b"
    assert str(H1) == "p ∪ (b∩f)"


# --- conjoin / disjoin ------------------------------------------------------


def test_conjoin_distributes_then_absorbs():
    lhs = (P & NF) | (B & F)
    assert lhs & (P | B) == (P & NF) | (B & F)


def test_rule_chain_conjunction_is_single_term():
    assert ((P & NF) & (B & F) & (P & B)).terms == (frozenset({0, 1, 2, 3}),)


def test_empty_is_absorbing_for_conjoin():
    empty = Proposition.empty(TPFRAME)
    assert (H2 & empty).is_empty
    assert (empty & H2).is_empty


def test_empty_is_identity_for_disjoin():
    empty = Proposition.empty(TPFRAME)
    assert H2 | empty == H2


@pytest.mark.parametrize(
    "names, message",
    [
        ((), "at least one"),
        (("a", ""), "non-empty strings"),
        (("a", "a"), "unique"),
        # names are checked to be strings before the uniqueness check hashes them
        (("a", ["b"]), "non-empty strings"),
        (("a", 5, 5), "non-empty strings"),
    ],
)
def test_bad_frames_rejected(names, message):
    with pytest.raises(ValueError, match=message):
        Frame(names)


def test_frame_mismatch_rejected():
    other = Frame(("x", "y"))
    with pytest.raises(ValueError):
        conjoin(P, other.singleton("x"))
    with pytest.raises(ValueError):
        disjoin(P, other.singleton("x"))


# --- enumeration ------------------------------------------------------------


@pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 19), (4, 167)])
def test_enumeration_counts(n, count):
    frame = Frame(tuple("abcde"[:n]))
    assert len(enumerate_hyper_power_set(frame)) == count


def test_two_singleton_enumeration_order():
    frame = Frame(("a", "b"))
    assert [str(p) for p in enumerate_hyper_power_set(frame)] == [
        "∅",
        "a∩b",
        "a",
        "b",
        "a ∪ b",
    ]


def test_enumeration_unique_canonical_and_repeatable():
    frame = Frame(("a", "b", "c"))
    first = enumerate_hyper_power_set(frame)
    second = enumerate_hyper_power_set(frame)
    assert first == second
    assert len(set(first)) == len(first)
    assert all(canonicalize(frame, p.terms) == p for p in first)
    assert first[0].is_empty


def ranks_of(bits):
    """The ranks set in a rank bit set, ascending."""
    return [r for r in range(bits.bit_length()) if bits >> r & 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_brute_force_antichains(n):
    want = oracle.naive_antichains(n)
    assert [p.terms for p in enumerate_hyper_power_set(Frame(tuple("abcd"[:n])))] == want
    # the raw antichains too: the CLI prints them without Proposition's absorption
    members = [frozenset(i for i in range(n) if s >> i & 1) for s in _term_order(n)]
    assert [tuple(members[r] for r in ranks_of(bits)) for block in _antichains(n) for bits in block] == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerated_propositions_equal_checked_ones(n):
    # enumeration skips Proposition's checks; the public constructor keeps them
    frame = Frame(tuple("abcde"[:n]))
    for p in iter_hyper_power_set(frame):
        checked = Proposition(frame, p.masks)
        assert (checked, hash(checked), checked.masks) == (p, hash(p), p.masks)


@pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 19), (4, 167), (5, 7580)])
def test_antichains_match_the_shift_and_mask_oracle(n, count):
    order = _term_order(n)
    ranked = [ranks_of(bits) for block in _antichains(n) for bits in block]
    assert [tuple(order[r] for r in ranks) for ranks in ranked] == list(oracle.shift_mask_antichains(n))
    assert len(ranked) == count
    for ranks in ranked:
        # the empty term is never one, and no term contains another
        assert 0 not in ranks
        terms = [order[r] for r in ranks]
        assert all(s & t != s for s in terms for t in terms if s != t)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_each_block_is_the_filter_walks_list_for_its_hi(n):
    count, block = oracle.filter_walk(n)
    assert list(_antichains(n)) == [block(i) for i in range(count)]


@cache
def six_blocks():
    """The length and hash of each block of ``_antichains(6)``: the blocks themselves fill hundreds of MB."""
    return [(len(b), hash(tuple(b))) for b in _antichains(6)]


def test_blocks_at_six_hold_every_antichain():
    sizes = [size for size, _ in six_blocks()]
    assert (len(sizes), sum(sizes)) == (7581, 7828353)


@settings(max_examples=150)
@given(st.integers(0, 7580))
@example(0)  # the empty hi
@example(7580)  # the all-true hi, whose block drops the all-true lo
def test_blocks_at_six_match_the_filter_walk(i):
    count, block = oracle.filter_walk(6)
    want = block(i)
    assert count == 7581
    assert six_blocks()[i] == (len(want), hash(tuple(want)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rank_tables_hold_exactly_the_antichains_of_each_quarter(n):
    order = _term_order(n)
    w, tables = _rank_tables(n, [(s,) for s in order])
    for q, table in enumerate(tables):
        terms = order[q * w : q * w + w]
        for bits in range(1 << len(terms)):
            chosen = tuple(t for j, t in enumerate(terms) if bits >> j & 1)
            antichain = all(s & t != s for s in chosen for t in chosen if s != t)
            assert table.get(bits) == (chosen if antichain else None)


def test_rank_tables_at_six_keep_only_antichains():
    # eager tables over 16 rank bits would hold 4 x 65,536 entries
    w, tables = _rank_tables(6, [(s,) for s in _term_order(6)])
    assert (w, [len(t) for t in tables]) == (16, [1429, 11664, 11664, 1429])


def test_enumeration_limits():
    with pytest.raises(EnumerationLimitError):
        enumerate_hyper_power_set(Frame(tuple("abcdef")))
    with pytest.raises(EnumerationLimitError):
        enumerate_hyper_power_set(Frame(tuple("abcdefg")), allow_large=True)


def test_iteration_past_the_hard_limit_is_refused_at_once():
    # seven singletons span about 2.4e12 propositions: refused before any table is built
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError, match="^enumeration over 7 singletons exceeds the limit of 6$"):
        iter_hyper_power_set(Frame(tuple("abcdefg")))
    assert time.perf_counter() - start < 1.0


def test_atom_frame_limit_is_checked_without_fusing():
    def binary(k):
        return AtomFrame(tuple((f"x{i}", f"y{i}") for i in range(k)))

    at_limit = binary(19)
    assert at_limit.atom_count == ATOM_LIMIT == 1 << 19
    assert len(at_limit._value_masks) == 19  # a frame at the limit is refined
    wide = binary(20)
    message = r"^dst_axes: the axes span 1048576 atoms, more than the limit of 524288$"
    with pytest.raises(EnumerationLimitError, match=message):
        wide._value_masks  # no mask is built for a frame past the limit
    # refused before any literal is checked: an unmapped or out-of-range one
    # would raise a plain ValueError, of which the limit error is a subclass
    z = Frame(("x0", "z")).singleton("z")
    for literal_map in ({"z": (0, 0)}, {}, {"z": (20, 0)}, {"z": (0, 2)}):
        with pytest.raises(EnumerationLimitError, match=message):
            refine_to_atoms(z, wide, literal_map)


# --- model reduction and order ----------------------------------------------


def test_model_kinds():
    assert Model.free(TPFRAME).kind == "free"
    assert TPMODEL.kind == "hybrid"
    abc = Frame(("a", "b", "c"))
    assert Model.shafer(abc).kind == "shafer"
    redundant = Model.from_constraints(abc, [(0, 1), (0, 2), (1, 2), (0, 1, 2)])
    assert redundant.kind == "shafer" and redundant == Model.shafer(abc)
    assert Model.from_constraints(TPFRAME, [(0, 1), (0, 2), (1, 2)]).kind == "hybrid"


def test_constraints_below_two_members_rejected():
    with pytest.raises(ValueError):
        Model.from_constraints(TPFRAME, [{1}])


def test_contradictory_chain_reduces_to_empty():
    assert reduce_under_model(P & B & F & NF, TPMODEL).is_empty


def test_reduce_keeps_constraint_free_terms():
    assert reduce_under_model(H1 & H2, TPMODEL) == (P & NF) | (B & F) | (P & B)


def test_free_model_reduce_is_identity():
    assert reduce_under_model(H2, Model.free(TPFRAME)) is H2


def test_reduce_refuses_a_model_on_another_frame():
    with pytest.raises(ValueError, match="^proposition and model belong to different frames$"):
        reduce_under_model(H2, Model.free(Frame(("x", "y"))))


def test_leq_examples():
    assert not leq(H1, H2, TPMODEL)
    assert leq(P & B & NF, H2, TPMODEL)
    assert leq(P & B & F, F, Model.free(TPFRAME))
    assert leq(Proposition.empty(TPFRAME), P, TPMODEL)


@given(modeled_props(k=2))
def test_leq_matches_region_oracle(case):
    model, (a, b) = case
    assert leq(a, b, model) == oracle.naive_leq(a, b, model)


@given(modeled_props(k=1))
def test_reduce_is_idempotent(case):
    model, (a,) = case
    reduced = reduce_under_model(a, model)
    assert reduce_under_model(reduced, model) == reduced


@given(modeled_props(k=1))
def test_reduce_drops_exactly_the_terms_in_empty_regions(case):
    model, (a,) = case
    empty = oracle.empty_regions(model)
    assert reduce_under_model(a, model).terms == tuple(t for t in a.terms if t not in empty)


def test_shafer_reduce_keeps_singletons_and_drops_pairs():
    frame = Frame(tuple(f"x{i}" for i in range(12)))
    model = Model.shafer(frame)
    evens = canonicalize(frame, [[i] for i in range(0, 12, 2)])
    odds = canonicalize(frame, [[i] for i in range(1, 12, 2)])
    assert reduce_under_model(evens, model) is evens
    assert reduce_under_model(evens & odds, model).is_empty
    assert reduce_under_model(evens & (odds | evens), model) == evens


@given(modeled_props(k=2))
def test_reduce_preserves_order(case):
    model, (a, b) = case
    if leq(a, b, model):
        assert leq(reduce_under_model(a, model), reduce_under_model(b, model), model)


@given(st.one_of(framed_models(), wide_models()), st.data())
def test_the_model_memo_equals_a_fresh_one_in_any_lookup_order(model, data):
    # every reader of a model shares its one memo, so what earlier lookups
    # (and the drawn propositions' reductions) filled in must not matter
    full = (1 << len(model.frame)) - 1
    for prop in data.draw(st.lists(propositions(model.frame), max_size=3)):
        reduce_under_model(prop, model)
    terms = data.draw(st.lists(st.integers(1, full), min_size=1, max_size=12))
    shared = [(t, model._allowed[t]) for t in terms]
    fresh = _Allowed(model.masks)
    for t in data.draw(st.permutations(terms)):
        fresh[t]
    assert shared == [(t, fresh[t]) for t in terms]
    assert shared == [(t, all(t & c != c for c in model.masks)) for t in terms]


# --- total ignorance ---------------------------------------------------------


def test_total_ignorance_unions_every_singleton():
    assert total_ignorance(TPFRAME) == P | B | F | NF


# --- algebraic laws ----------------------------------------------------------


@given(modeled_props(k=2))
def test_conjoin_and_disjoin_commute(case):
    _, (a, b) = case
    assert a & b == b & a
    assert a | b == b | a


@given(modeled_props(k=3))
def test_conjoin_and_disjoin_associate(case):
    _, (a, b, c) = case
    assert (a & b) & c == a & (b & c)
    assert (a | b) | c == a | (b | c)


@given(modeled_props(k=2))
def test_absorption_laws(case):
    _, (a, b) = case
    assert a | (a & b) == a
    assert a & (a | b) == a


@given(modeled_props(k=3))
def test_distributivity(case):
    _, (a, b, c) = case
    assert a & (b | c) == (a & b) | (a & c)
    assert a | (b & c) == (a | b) & (a | c)


@given(modeled_props(k=1))
def test_canonicalize_is_idempotent(case):
    _, (a,) = case
    assert canonicalize(a.frame, a.terms) == a


# --- refinement ---------------------------------------------------------------


def test_atom_frame_order_and_names():
    assert TPAXES.axes.atom_count == 8
    assert TPAXES.axes.atom_name(0) == "f∩b∩p"
    assert TPAXES.axes.atom_name(4) == "nf∩b∩p"
    assert TPAXES.axes.atom_name(7) == "nf∩b_∩p_"
    assert len(oracle.to_frame(TPAXES.axes)) == 8  # the eight names are distinct


def test_single_value_axis_rejected():
    with pytest.raises(ValueError):
        AtomFrame((("f",),))


def test_axis_values_that_blur_atom_names_rejected():
    # atom names join values with ∩, so these would name two atoms x∩y∩z, or one atom ""
    with pytest.raises(ValueError, match="free of ∩"):
        AtomFrame((("x∩y", "x"), ("z", "y∩z")))
    with pytest.raises(ValueError, match="non-empty"):
        AtomFrame((("", "x"),))


@pytest.mark.parametrize("axes", [(("a", "b"), ("c", 5)), (("a", "b"), ("c", ["d"])), (("a", None),)])
def test_axis_values_must_be_strings(axes):
    # the ∩ check reads each value as a string, and the uniqueness check hashes it
    with pytest.raises(ValueError, match="free of ∩"):
        AtomFrame(axes)


def test_refine_conjunction_pins_axes():
    assert refine_to_atoms(B & P, TPAXES.axes, TPAXES.literal_map) == frozenset({0, 4})


def test_refine_singleton_leaves_other_axes_free():
    assert refine_to_atoms(F, TPAXES.axes, TPAXES.literal_map) == frozenset({0, 1, 2, 3})


def test_refine_union_of_terms():
    got = refine_to_atoms((P & NF) | (B & F), TPAXES.axes, TPAXES.literal_map)
    assert got == frozenset({0, 1, 4, 6})


def test_contradictory_term_contributes_no_atoms():
    assert refine_to_atoms(F & NF, TPAXES.axes, TPAXES.literal_map) == frozenset()
    assert refine_to_atoms((F & NF) | P, TPAXES.axes, TPAXES.literal_map) == frozenset({0, 2, 4, 6})


def test_unmapped_singleton_rejected():
    with pytest.raises(ValueError, match="no axis mapping"):
        refine_to_atoms(P, TPAXES.axes, {"f": (0, 0)})


def test_out_of_range_mapping_rejected():
    with pytest.raises(ValueError, match="out of range"):
        refine_to_atoms(P, TPAXES.axes, {"p": (5, 0)})


@st.composite
def refinement_cases(draw):
    """A proposition, a random atom frame, and a literal map that leaves some
    names unmapped or out of range and often sends two names to one axis."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))
    axes = AtomFrame(tuple(tuple(f"x{k}v{v}" for v in range(n)) for k, n in enumerate(sizes)))
    frame = draw(frames())
    literal_map = {}
    for name in frame.names:
        kind = draw(st.sampled_from(["mapped"] * 12 + ["unmapped", "bad axis", "bad value"]))
        if kind == "unmapped":
            continue
        axis = draw(st.integers(0, len(sizes) - 1))
        value = draw(st.integers(0, sizes[axis] - 1))
        if kind == "bad axis":
            axis = len(sizes)
        elif kind == "bad value":
            value = sizes[axis]
        literal_map[name] = (axis, value)
    return draw(propositions(frame)), axes, literal_map


@example(((F & NF) | P, TPAXES.axes, TPAXES.literal_map))  # one term pins the f axis twice
@example(((F & NF) | (B & P), TPAXES.axes, {"f": (0, 0), "nf": (0, 1), "b": (1, 0)}))  # p unmapped
@given(refinement_cases())
def test_refinement_matches_atom_enumeration(case):
    # the mask refinement against listing every atom of every term one by one
    def outcome(refine):
        try:
            return refine(*case)
        except ValueError as exc:
            return str(exc)

    assert outcome(refine_to_atoms) == outcome(oracle.refine_to_atoms)


@given(frames(min_n=2, max_n=4), st.data())
def test_shafer_leq_is_atom_inclusion(frame, data):
    # under an all-exclusive model the lattice order must agree with plain
    # subset inclusion of the refined atom sets
    a = data.draw(propositions(frame))
    b = data.draw(propositions(frame))
    model = Model.shafer(frame)
    axes = AtomFrame((frame.names,))
    literals = {name: (0, i) for i, name in enumerate(frame.names)}
    sub = refine_to_atoms(a, axes, literals) <= refine_to_atoms(b, axes, literals)
    assert leq(a, b, model) == sub
