"""Set algebra of propositions built from a frame of discernment.

A proposition is a union of intersections (terms) of frame singletons,
stored as one ascending tuple of int term masks (bit i for singleton i)
that is an antichain: no term contains another, so equal propositions are
equal tuples.  The propositions over an n-singleton frame are exactly the
antichains of non-empty subsets of the frame -- the free distributive
lattice generated by the singletons, whose cardinalities 1, 2, 5, 19, 167,
7580, 7828353 follow the Dedekind numbers (each is M(n) - 1).  Index sets
and names enter through :func:`canonicalize`, :func:`proposition_from_names`
and :meth:`Frame.singleton`; the canonical term order (by size, then by
sorted members) is defined once, by :func:`_term_key`, and read by the
output views and the ranks the enumeration carries; :func:`_term_ranks`
gives the key order of a BBA and of the JSON report's term arrays.

A :class:`Model` stores the constraint masks whose joint intersection is
declared empty.  Reduction drops every term t that contains a constraint c
(``t & c == c``), which yields the canonical representative of the
proposition in the constrained lattice.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, starmap
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

from ._value import Value, _set


class EnumerationLimitError(ValueError):
    """Raised when work is refused for its size: a hyper-power-set
    enumeration above its cap, or a dst atom frame of more than ATOM_LIMIT atoms."""


DEFAULT_ENUMERATION_LIMIT = 5
HARD_ENUMERATION_LIMIT = 6
# atoms of the largest frame the dst engine refines onto: 2^19 atoms take
# seconds to fuse and print, and 2^21 more than a minute
ATOM_LIMIT = 1 << 19
_ECHO_LIMIT = 200  # characters of an input's text that an error message repeats


def _brief(text: str) -> str:
    """``text`` as an error message repeats it: cut after _ECHO_LIMIT characters."""
    if len(text) <= _ECHO_LIMIT:
        return text
    return f"{text[:_ECHO_LIMIT]}… ({len(text)} characters)"


class Frame(Value):
    """An ordered tuple of distinct singleton names."""

    _fields = ("names",)

    def __init__(self, names: Iterable[str]) -> None:
        names = tuple(names)
        if not names:
            raise ValueError("frame needs at least one singleton")
        if any(not isinstance(n, str) or not n for n in names):  # before hashing them
            raise ValueError("frame names must be non-empty strings")
        if len(set(names)) != len(names):
            raise ValueError("frame names must be unique")
        _set(self, "names", names)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown singleton {_brief(repr(name))}") from None

    def singleton(self, name: str) -> "Proposition":
        return Proposition(self, (1 << self.index(name),))


def _members(mask: int) -> list[int]:
    """The singleton indices of a mask, ascending."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


def _index_mask(n: int, indices: Iterable[int]) -> int:
    """An index set on an n-singleton frame as a mask."""
    mask = 0
    for i in indices:
        if not isinstance(i, int) or not 0 <= i < n:
            raise ValueError(f"singleton index {i!r} out of range for frame of size {n}")
        mask |= 1 << i
    return mask


def _term_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """A term's place in canonical order: its size, then its sorted members."""
    return mask.bit_count(), tuple(_members(mask))


def _term_ranks(terms: Iterable[int]) -> dict[int, int]:
    """Each distinct term mask of ``terms`` mapped to its rank among them, in rank order."""
    return {t: r for r, t in enumerate(sorted(set(terms), key=_term_key))}


def _absorb(masks: Iterable[int]) -> tuple[int, ...]:
    """The antichain of ``masks``, ascending: a mask containing another is dropped.

    A mask's subsets are never larger ints than the mask, so one ascending
    scan against the masks kept so far finds them all.
    """
    kept: list[int] = []
    for t in sorted(set(masks)):
        for o in kept:
            if o & t == o:
                break
        else:
            kept.append(t)
    return tuple(kept)


def _term_text(names: Sequence[str], members: Sequence[int], grouped: bool) -> str:
    """A term as text: its sorted members' names joined by ∩, bracketed if compound and grouped."""
    text = "∩".join(names[i] for i in members)
    return f"({text})" if grouped and len(members) > 1 else text


def _union_text(term_texts: list[str]) -> str:
    """A proposition as text, from its term texts in canonical order."""
    return " ∪ ".join(term_texts) or "∅"


class Proposition(Value):
    """Term masks, stored absorbed and ascending; () is the empty proposition.

    Each mask passed in must name at least one singleton of the frame and
    none beyond it.  :func:`canonicalize` builds one from index sets.  A
    proposition hashes by its masks alone; equality also compares frames.
    """

    _fields = ("frame", "masks")

    def __post_init__(self) -> None:
        full = 1 << len(self.frame)
        for t in self.masks:
            if not isinstance(t, int) or not 0 < t < full:
                raise ValueError(f"term mask {t!r} is not a non-empty subset of the frame")
        _set(self, "masks", _absorb(self.masks))

    def __hash__(self) -> int:
        return hash(self.masks)

    @classmethod
    def empty(cls, frame: Frame) -> "Proposition":
        return cls(frame, ())

    @classmethod
    def _trusted(cls, frame: Frame, masks: tuple[int, ...]) -> "Proposition":
        """Wrap masks already known to be an ascending antichain of terms of the frame."""
        prop = object.__new__(cls)
        _set(prop, "frame", frame)
        _set(prop, "masks", masks)
        return prop

    @property
    def is_empty(self) -> bool:
        return not self.masks

    def _ordered_members(self) -> list[tuple[int, ...]]:
        """Each term's sorted members, terms in canonical order (size, then members)."""
        return [members for _, members in self.sort_key]

    @property
    def terms(self) -> tuple[frozenset[int], ...]:
        """The terms as index sets, in canonical order."""
        return tuple(map(frozenset, self._ordered_members()))

    @property
    def sort_key(self) -> tuple:
        """A total order on same-frame propositions; the empty one sorts first."""
        return tuple(sorted(map(_term_key, self.masks)))

    def __and__(self, other: "Proposition") -> "Proposition":
        return conjoin(self, other)

    def __or__(self, other: "Proposition") -> "Proposition":
        return disjoin(self, other)

    def to_names(self) -> list[list[str]]:
        """JSON form: a list of terms, each a list of singleton names."""
        names = self.frame.names
        return [[names[i] for i in m] for m in self._ordered_members()]

    def __str__(self) -> str:
        grouped = len(self.masks) > 1
        names = self.frame.names
        return _union_text([_term_text(names, m, grouped) for m in self._ordered_members()])

    def __repr__(self) -> str:
        return f"<Proposition {self}>"


def canonicalize(frame: Frame, terms: Iterable[Iterable[int]]) -> Proposition:
    """Build the canonical proposition for an arbitrary list of index sets."""
    masks = tuple(_index_mask(len(frame), term) for term in terms)
    if 0 in masks:
        raise ValueError("terms must be non-empty index sets")
    return Proposition(frame, masks)


def _name_masks(index: Mapping[str, int], nested: Iterable[Sequence[str]]) -> list[int]:
    """Each term, a list of names, as an int mask of their ``index``.

    The first name ``index`` lacks raises KeyError; a term that is not a list
    or tuple, or a name that is not hashable, raises TypeError.
    """
    masks = []
    for term in nested:
        if not isinstance(term, (list, tuple)):
            raise TypeError(f"term {_brief(repr(term))} is not a list of names")
        mask = 0
        for name in term:
            mask |= 1 << index[name]
        masks.append(mask)
    return masks


def proposition_from_names(frame: Frame, nested: Sequence[Sequence[str]]) -> Proposition:
    """Inverse of :meth:`Proposition.to_names`.

    Names resolve straight to term masks, as :func:`canonicalize` would build
    them from :meth:`Frame.index`: an unknown name anywhere is reported
    before an empty term.
    """
    try:
        masks = _name_masks(frame._index, nested)
    except KeyError as exc:
        raise ValueError(f"unknown singleton {_brief(repr(exc.args[0]))}") from None
    if 0 in masks:
        raise ValueError("terms must be non-empty index sets")
    return Proposition._trusted(frame, (masks[0],) if len(masks) == 1 else _absorb(masks))  # one term: an antichain


def _require_same_frame(a: Proposition, b: Proposition) -> None:
    if a.frame != b.frame:
        raise ValueError("propositions belong to different frames")


def conjoin(a: Proposition, b: Proposition) -> Proposition:
    """Intersection; distributes over the union terms, absorbing on ∅."""
    _require_same_frame(a, b)
    return Proposition(a.frame, tuple(ta | tb for ta in a.masks for tb in b.masks))


def disjoin(a: Proposition, b: Proposition) -> Proposition:
    """Union; ∅ is the identity."""
    _require_same_frame(a, b)
    return Proposition(a.frame, a.masks + b.masks)


class Model(Value):
    """A frame plus the constraint masks whose joint intersection is declared empty.

    Each constraint has two or more members, and the set is kept minimal: a
    constraint that contains another is redundant.  The model is the one
    owner of the frame: a BBA and a scenario read theirs from it.  ``kind``
    is read from the constraints, never stored or passed.  ``_allowed`` is
    the model's one constraint memo (:class:`_Allowed`), which every reader
    of the model shares for the model's lifetime.
    """

    _fields = ("frame", "masks")

    def __post_init__(self) -> None:
        n = len(self.frame)
        masks = frozenset(self.masks)
        for c in masks:
            if not isinstance(c, int) or not 0 <= c < 1 << n:
                raise ValueError(f"constraint mask {c!r} is not a subset of the frame")
            if c.bit_count() < 2:
                raise ValueError("an empty-intersection constraint needs at least two members")
        # a pair cannot strictly contain another constraint of two or more members
        wide = [c for c in masks if c.bit_count() > 2]
        minimal = masks.difference(c for c in wide if any(o != c and o & c == o for o in masks))
        _set(self, "masks", minimal)
        _set(self, "_allowed", _Allowed(minimal))

    @property
    def kind(self) -> str:
        """The model's kind: "free" (no constraint), "shafer" (every pair of
        distinct singletons exclusive) or "hybrid" (anything in between)."""
        n, pairs = len(self.frame), sum(c.bit_count() == 2 for c in self.masks)
        return "free" if not self.masks else "shafer" if pairs == n * (n - 1) // 2 else "hybrid"

    @property
    def empty_intersections(self) -> frozenset[frozenset[int]]:
        """The constraints as index sets."""
        return frozenset(frozenset(_members(c)) for c in self.masks)

    @classmethod
    def free(cls, frame: Frame) -> "Model":
        return cls(frame, frozenset())

    @classmethod
    def shafer(cls, frame: Frame) -> "Model":
        bits = [1 << i for i in range(len(frame))]
        return cls(frame, frozenset(starmap(or_, combinations(bits, 2))))

    @classmethod
    def from_constraints(cls, frame: Frame, constraints: Iterable[Iterable[int]]) -> "Model":
        return cls(frame, frozenset(_index_mask(len(frame), c) for c in constraints))


class _Allowed(dict):
    """Term mask -> it contains no constraint: the one constraint test, run on a term's first lookup."""

    __slots__ = ("constraints",)

    def __init__(self, constraints: frozenset[int]) -> None:
        self.constraints = constraints

    def __missing__(self, term: int) -> bool:
        ok = self[term] = all(map((~term).__and__, self.constraints))  # each has a member outside the term
        return ok


def _reduce_masks(masks: tuple[int, ...], allowed: _Allowed) -> tuple[int, ...]:
    """The terms of ``masks`` that contain no constraint, in their order."""
    return tuple(t for t in masks if allowed[t])


def _meet(a: tuple[int, ...], b: tuple[int, ...], allowed: _Allowed) -> tuple[int, ...]:
    """The term masks of a∧b, reduced: the antichain of the term unions t | s
    that contain no constraint, ascending.

    Dropping a union before absorbing, rather than after, keeps the same
    antichain: any union above a dropped one contains the same constraint,
    so it is dropped either way.
    """
    return _absorb([u for t in a for s in b if allowed[u := t | s]])


def reduce_under_model(a: Proposition, model: Model) -> Proposition:
    """Drop every term that contains a constraint.

    The result is the canonical representative of ``a`` in the constrained
    lattice: two propositions are equal under the constraints iff they reduce
    to the same antichain.
    """
    if a.frame != model.frame:
        raise ValueError("proposition and model belong to different frames")
    kept = _reduce_masks(a.masks, model._allowed)
    if len(kept) == len(a.masks):
        return a
    return Proposition._trusted(a.frame, kept)  # a subset of an ascending antichain is one


def leq(a: Proposition, b: Proposition, model: Model) -> bool:
    """Lattice order under the model: a ≤ b iff a∧b ≡ a."""
    return reduce_under_model(conjoin(a, b), model) == reduce_under_model(a, model)


def total_ignorance(frame: Frame) -> Proposition:
    """The union of every singleton in the frame."""
    return Proposition._trusted(frame, tuple(1 << i for i in range(len(frame))))


# --- enumeration ----------------------------------------------------------
#
# A proposition corresponds to the monotone family of subsets S of the frame
# on which it evaluates true (some term ⊆ S), and its terms are the family's
# minimal sets.  Encoding a family as a bitmask over the 2^k subsets (subset
# S ↔ bit Σ 2^i, i ∈ S) gives a natural total order.  A family over k+1
# singletons is a pair (lo, hi) of families over k with lo ⊆ hi, i.e. the
# mask lo | hi << 2^k: lo holds the sets without singleton k, and hi the
# sets S with S ∪ {k} in the family.  With hi as the outer loop and lo the
# inner one, every level comes out in ascending mask order, so the empty
# family is first and the all-true family is last; the all-true family would
# need an empty term, and it is the only one whose lo half is itself
# all-true, so the last level never takes that lo.  The pair also gives the
# minimal sets: those of lo, plus S ∪ {k} for each minimal S of hi that lo
# lacks.
#
# The last level, over n singletons -- the only one whose families are
# printed -- is walked one hi at a time, over the lo ⊆ hi only.  Split once
# more into families over n - 2 singletons, hi = (a, b) and lo = (c, d):
# lo ⊆ hi exactly when d ⊆ b and c ⊆ a ∩ d, so hi's lo list is the
# sub-families c of a ∩ d for each sub-family d of b, both ascending: the
# ascending lo order, with no subset test.  The family's terms are min c,
# T ∪ {n-2} for T in min d but not c, S ∪ {n-1} for S in min a but not c,
# and T ∪ {n-2, n-1} for T in min b but in neither a nor d.  They are one int
# over their canonical ranks (by size, then by sorted members; bit r for
# rank r): c's own rank bits OR those that a, b and d give AND those that
# c's sets do not clear.
#
# A rank bit set turns back into terms through four tables, one per quarter
# of the ranks, each mapping a quarter's bits to its terms' pieces in rank
# order; the four lookups, concatenated, give every term in canonical order.
# Only antichains are ever looked up, so each table holds only the subsets of
# its quarter in which no term contains another.


def _check_enumeration_limit(n: int, allow_large: bool, switch: str) -> None:
    """Refuse n above the cap; ``switch`` names what the caller passes to raise it."""
    limit = HARD_ENUMERATION_LIMIT if allow_large else DEFAULT_ENUMERATION_LIMIT
    if n > limit:
        raise EnumerationLimitError(
            f"enumeration over {n} singletons exceeds the limit of {limit}"
            + ("" if allow_large else f" (pass {switch} for n={HARD_ENUMERATION_LIMIT})")
        )


def _term_order(n: int) -> list[int]:
    """The subsets of range(n) as ints, in canonical term order: by size, then by sorted members."""
    return sorted(range(1 << n), key=_term_key)


def _families(k: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every monotone family over range(k), in ascending mask order, with its minimal sets."""
    families = [(0, ()), (1, (0,))]  # over the empty frame: never true; always true, minimal at ∅
    for j in range(k):
        top = 1 << j  # singleton j's bit in a subset, and the number of subsets of range(j)
        families = [
            (lo | hi << top, lo_min + tuple(s | top for s in hi_min if not lo >> s & 1))
            for hi, hi_min in families
            for lo, lo_min in families
            if not lo & ~hi
        ]
    return families


def _antichains(n: int) -> Iterator[list[int]]:
    """Every antichain of non-empty subsets of range(n), ∅ first, in mask order: one list per hi.

    Each antichain is an int over ranks into ``_term_order(n)``: bit r is set
    when the term of rank r is in it.
    """
    if n == 1:  # ∅ and {{0}}, whose term {0} has rank 1
        yield from ([0], [2])
        return
    rank = {s: r for r, s in enumerate(_term_order(n))}
    mid, top = 1 << (n - 2), 1 << (n - 1)  # the bits of singletons n - 2 and n - 1

    def bits(sets: Iterable[int], lift: int) -> int:
        return sum(1 << rank[s | lift] for s in sets)

    quarters = _families(n - 2)
    subs = {x: [y for y, _ in quarters if not y & ~x] for x, _ in quarters}  # 168² tests at n = 6
    # the rank bits a family over n - 2 singletons gives as c, d or a, and the lifts its sets clear
    as_c, as_d, as_a = {}, {}, {}
    for x, x_min in quarters:
        sets = [s for s in range(mid) if x >> s & 1]
        as_c[x] = (bits(x_min, 0), ~bits(sets, mid) & ~bits(sets, top))
        as_d[x] = (bits(x_min, mid), ~bits(sets, mid | top))
        as_a[x] = bits(x_min, top)
    lows = {x: [as_c[c] for c in sub] for x, sub in subs.items()}
    everything = quarters[-1][0]
    for b, b_min in quarters:
        heads = [(d, *as_d[d]) for d in subs[b]]
        lifts = [(s, 1 << rank[s | mid | top]) for s in b_min]
        for a in subs[b]:
            up = as_a[a] | sum(bit for s, bit in lifts if not a >> s & 1)
            block = [own | k & keep for k, cs in [(y | up & m, lows[a & d]) for d, y, m in heads] for own, keep in cs]
            yield block if a != everything else block[:-1]  # not the all-true family


def _rank_tables(n: int, pieces: Sequence[str | tuple[int, ...]]) -> tuple[int, list[dict]]:
    """The rank width w and four tables that decode a rank bit set b from :func:`_antichains`.

    ``pieces[r]`` stands for the term of rank r (a str or a tuple).  Table q
    maps the bits ``b >> q*w & (1 << w) - 1`` to their pieces concatenated in
    rank order, for each antichain of the ranks ``q*w .. q*w + w - 1``, so
    the four lookups concatenated are b's pieces in rank order.
    """
    order = _term_order(n)
    width = (len(order) + 3) >> 2
    tables = []
    for start in range(0, 4 * width, width):
        terms = order[start : start + width]
        table = {0: pieces[0][:0]}  # the empty str or tuple
        for j, s in enumerate(terms):
            # an earlier rank is no larger, so only it can be contained in s
            comparable = sum(1 << i for i, t in enumerate(terms[:j]) if t & s == t)
            bit, piece = 1 << j, pieces[start + j]
            for bits, joined in list(table.items()):
                if not bits & comparable:
                    table[bits | bit] = joined + piece
        tables.append(table)
    return width, tables


def iter_hyper_power_set(frame: Frame) -> Iterator[Proposition]:
    """Every proposition over the frame in deterministic mask order, one at a time.

    More than HARD_ENUMERATION_LIMIT singletons raise EnumerationLimitError here, before anything is built."""
    n = len(frame)
    _check_enumeration_limit(n, True, "allow_large")
    w, (t0, t1, t2, t3) = _rank_tables(n, [(s,) for s in _term_order(n)])
    m, w2, w3 = (1 << w) - 1, 2 * w, 3 * w
    return (
        Proposition._trusted(frame, tuple(sorted(t0[b & m] + t1[b >> w & m] + t2[b >> w2 & m] + t3[b >> w3])))
        for block in _antichains(n)
        for b in block
    )


def enumerate_hyper_power_set(frame: Frame, *, allow_large: bool = False) -> list[Proposition]:
    """All propositions over the frame, ∅ first, in a fixed total order.

    Sizes follow M(n) - 1 where M is the Dedekind sequence: 2, 5, 19, 167,
    7580, 7828353 for n = 1..6.  Frames beyond five singletons are refused
    unless ``allow_large`` is set; nothing above six is ever enumerated.
    ``hyperbelief enumerate --n 6 --allow-large > /dev/null``, which streams
    the set without building propositions, takes about 11 s at a peak RSS of
    29 MB (median of 3 runs, Python 3.11.7 on a 2-core Xeon VM); this list
    holds all of them at once.
    """
    _check_enumeration_limit(len(frame), allow_large, "allow_large")
    return list(iter_hyper_power_set(frame))


# --- refinement onto an exclusive atom frame -------------------------------


class AtomFrame(Value):
    """Ordered axes of mutually exclusive, exhaustive values.

    The atoms are the value combinations in mixed-radix order (first axis
    most significant), e.g. axes (f|f̄), (b|b̄), (p|p̄) give eight atoms
    starting with f∩b∩p.
    """

    _fields = ("axes",)

    def __init__(self, axes: Iterable[Iterable[str]]) -> None:
        axes = tuple(tuple(axis) for axis in axes)
        if not axes:
            raise ValueError("atom frame needs at least one axis")
        for axis in axes:
            if len(axis) < 2:
                raise ValueError("each axis needs at least two values")
            # the type check comes first: the others read and hash the values as strings
            bad = any(not isinstance(v, str) or not v or "∩" in v for v in axis)
            if bad or len(set(axis)) != len(axis):
                raise ValueError("axis values must be unique, non-empty and free of ∩")
        _set(self, "axes", axes)

    @property
    def atom_count(self) -> int:
        count = 1
        for axis in self.axes:
            count *= len(axis)
        return count

    @cached_property
    def _value_masks(self) -> tuple[tuple[int, ...], ...]:
        """Per axis, per value: the atoms with that value on that axis, as a mask (bit i for atom i).

        In mixed-radix order an axis's value holds one run of ``stride``
        atoms in every ``period`` atoms, so each mask is one run repeated.
        """
        _check_atom_limit(self)
        count = self.atom_count
        masks = []
        stride = count
        for axis in self.axes:
            period, stride = stride, stride // len(axis)
            repeat = ((1 << count) - 1) // ((1 << period) - 1)  # bit j * period for each j
            run = (1 << stride) - 1
            masks.append(tuple((run << v * stride) * repeat for v in range(len(axis))))
        return tuple(masks)

    def atom_name(self, index: int) -> str:
        """Atom ``index``'s values joined by ∩, first axis first."""
        values = []
        for axis in reversed(self.axes):
            index, v = divmod(index, len(axis))
            values.append(axis[v])
        return "∩".join(reversed(values))


def _check_atom_limit(atom_frame: AtomFrame) -> None:
    """Refuse an atom frame above ATOM_LIMIT atoms, before any atom mask is built."""
    count = atom_frame.atom_count
    if count > ATOM_LIMIT:
        raise EnumerationLimitError(
            f"dst_axes: the axes span {count} atoms, more than the limit of {ATOM_LIMIT}"
        )


def _literal_atoms(names: Sequence[str], atom_frame: AtomFrame, literal_map: Mapping[str, tuple[int, int]]) -> list[int]:
    """Per singleton of ``names``, the atoms of its in-range literal as a mask,
    or 0 if ``literal_map`` omits it; a frame past ATOM_LIMIT is refused first."""
    value_masks = atom_frame._value_masks
    return [value_masks[c[0]][c[1]] if (c := literal_map.get(name)) else 0 for name in names]


def _atom_mask(masks: Iterable[int], table: Sequence[int]) -> int:
    """The atoms of the terms ``masks``, bit i for atom i: the OR over the terms
    of the AND of their members' :func:`_literal_atoms` entries in ``table``."""
    atoms = 0
    for term in masks:
        meet = -1  # every atom: a term has a member, so the ANDs bound it
        for i in _members(term):
            meet &= table[i]
        atoms |= meet
    return atoms


def refine_to_atoms(
    a: Proposition,
    atom_frame: AtomFrame,
    literal_map: Mapping[str, tuple[int, int]],
) -> frozenset[int]:
    """Map a proposition onto the set of atoms consistent with some term.

    ``literal_map`` sends a singleton name to an (axis, value) pair.  A term
    pins each mapped axis to one value and leaves the other axes free; a term
    that pins one axis to two different values contributes no atoms.  Every
    singleton used by ``a`` must be mapped in range; other entries are not read.
    """
    names, axes = a.frame.names, atom_frame.axes
    _check_atom_limit(atom_frame)  # before any literal is checked
    used = {}
    for term in a.masks:
        for i in _members(term):
            name = names[i]
            if name not in literal_map:
                raise ValueError(f"singleton {_brief(repr(name))} has no axis mapping")
            axis, value = used[name] = literal_map[name]
            if not 0 <= axis < len(axes) or not 0 <= value < len(axes[axis]):
                raise ValueError(f"axis mapping for {_brief(repr(name))} is out of range")
    return frozenset(_members(_atom_mask(a.masks, _literal_atoms(names, atom_frame, used))))
