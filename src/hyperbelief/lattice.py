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
output views, the key order of a BBA and the ranks the enumeration carries.

A :class:`Model` stores the constraint masks whose joint intersection is
declared empty.  Reduction drops every term t that contains a constraint c
(``t & c == c``), which yields the canonical representative of the
proposition in the constrained lattice.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations, starmap
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

from ._value import Value, _set


class EnumerationLimitError(ValueError):
    """Raised when a hyper-power-set enumeration exceeds the size cap."""


DEFAULT_ENUMERATION_LIMIT = 5
HARD_ENUMERATION_LIMIT = 6
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

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

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

    def __init__(self, frame: Frame, masks: tuple[int, ...]) -> None:
        _set(self, "frame", frame)
        _set(self, "masks", masks)
        self.__post_init__()

    def __post_init__(self) -> None:
        full = 1 << len(self.frame)
        for t in self.masks:
            if not isinstance(t, int) or not 0 < t < full:
                raise ValueError(f"term mask {t!r} is not a non-empty subset of the frame")
        _set(self, "masks", _absorb(self.masks))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the frames are most often one object, and == would not shortcut on that
        frame = self.frame
        return self.masks == other.masks and (frame is other.frame or frame == other.frame)

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

    def singleton_indices(self) -> frozenset[int]:
        """All singleton indices mentioned by any term."""
        return frozenset(_members(reduce(or_, self.masks, 0)))

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


def proposition_from_names(frame: Frame, nested: Sequence[Sequence[str]]) -> Proposition:
    """Inverse of :meth:`Proposition.to_names`.

    Names resolve straight to term masks, as :func:`canonicalize` would build
    them from :meth:`Frame.index`: an unknown name anywhere is reported
    before an empty term.
    """
    index = frame._index
    masks = []
    for term in nested:
        mask = 0
        for name in term:
            mask |= 1 << (index[name] if name in index else frame.index(name))
        masks.append(mask)
    if 0 in masks:
        raise ValueError("terms must be non-empty index sets")
    return Proposition._trusted(frame, _absorb(masks))


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
    constraint that contains another is redundant.  ``kind`` follows from
    the constraints: "free" (none), "shafer" (every pair of distinct
    singletons exclusive) or "hybrid" (anything in between).
    """

    _fields = ("frame", "masks", "kind")

    def __init__(self, frame: Frame, masks: frozenset[int]) -> None:
        _set(self, "frame", frame)
        _set(self, "masks", masks)
        self.__post_init__()

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
        pairs = len(masks) - len(wide)
        kind = "free" if not minimal else "shafer" if pairs == n * (n - 1) // 2 else "hybrid"
        _set(self, "kind", kind)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        frame = self.frame
        return (
            self.masks == other.masks
            and (frame is other.frame or frame == other.frame)
            and self.kind == other.kind
        )

    def __hash__(self) -> int:
        return hash(self.masks)

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


def _reduce_masks(masks: tuple[int, ...], constraints: frozenset[int]) -> tuple[int, ...]:
    """The terms of ``masks`` that contain no constraint, in their order."""
    if not constraints:
        return masks
    # a constraint has two or more members, so no single-member term contains one
    return tuple(t for t in masks if not t & (t - 1) or all(t & c != c for c in constraints))


def reduce_under_model(a: Proposition, model: Model) -> Proposition:
    """Drop every term that contains a constraint.

    The result is the canonical representative of ``a`` in the constrained
    lattice: two propositions are equal under the constraints iff they reduce
    to the same antichain.
    """
    if a.frame != model.frame:
        raise ValueError("proposition and model belong to different frames")
    kept = _reduce_masks(a.masks, model.masks)
    if len(kept) == len(a.masks):
        return a
    return Proposition._trusted(a.frame, kept)  # a subset of an ascending antichain is one


def leq(a: Proposition, b: Proposition, model: Model) -> bool:
    """Lattice order under the model: a ≤ b iff a∧b ≡ a."""
    return reduce_under_model(conjoin(a, b), model) == reduce_under_model(a, model)


def u_of(a: Proposition) -> Proposition:
    """The union of all singletons mentioned by ``a``; u(∅) = ∅."""
    return Proposition(a.frame, tuple(1 << i for i in a.singleton_indices()))


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
# all-true, so the last level never takes that lo.
#
# The pair also gives the minimal sets: those of lo, plus S ∪ {k} for each
# minimal S of hi that lo lacks.  So each level's minimal sets are built
# once, from the level below, and the last level -- the only one whose
# families are printed -- carries each term as its canonical rank (by size,
# then by sorted members).  There a family's terms are the ranks of lo,
# merged with the lifted terms hi keeps; which ones hi keeps depends only on
# which of hi's minimal sets lo holds, so they are looked up per hi in a
# table keyed by that intersection.


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


def _antichains(n: int) -> Iterator[tuple[int, ...]]:
    """Every antichain of non-empty subsets of range(n), ∅ first, in mask order.

    Each antichain is a tuple of ranks into ``_term_order(n)``, ascending,
    so its terms come in canonical order.
    """
    rank = {s: r for r, s in enumerate(_term_order(n))}
    top = 1 << (n - 1)
    halves = _families(n - 1)
    lows = [(lo, tuple(rank[s] for s in lo_min)) for lo, lo_min in halves[:-1]]
    for i, (hi, hi_min) in enumerate(halves):
        lifted = [(rank[s | top], s) for s in hi_min]
        cover = sum(1 << s for s in hi_min)
        kept_by_overlap: dict[int, tuple[int, ...]] = {}
        for lo, lo_ranks in lows[: i + 1]:  # lo ⊆ hi needs lo ≤ hi
            if lo & ~hi:
                continue
            overlap = lo & cover
            kept = kept_by_overlap.get(overlap)
            if kept is None:
                kept = kept_by_overlap[overlap] = tuple(r for r, s in lifted if not overlap >> s & 1)
            yield tuple(sorted(lo_ranks + kept))


def iter_hyper_power_set(frame: Frame) -> Iterator[Proposition]:
    """Yield every proposition over the frame in deterministic mask order."""
    order = _term_order(len(frame))
    for ranks in _antichains(len(frame)):
        yield Proposition._trusted(frame, tuple(sorted([order[r] for r in ranks])))


def enumerate_hyper_power_set(frame: Frame, *, allow_large: bool = False) -> list[Proposition]:
    """All propositions over the frame, ∅ first, in a fixed total order.

    Sizes follow M(n) - 1 where M is the Dedekind sequence: 2, 5, 19, 167,
    7580, 7828353 for n = 1..6.  Frames beyond five singletons are refused
    unless ``allow_large`` is set; nothing above six is ever enumerated.
    ``hyperbelief enumerate --n 6 --allow-large > /dev/null``, which streams
    the set without building propositions, takes 15-20 s at a peak RSS of 24 MB
    (Python 3.11, 2-core Xeon VM); this list holds all of them at once.
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
        count = self.atom_count
        masks = []
        stride = count
        for axis in self.axes:
            period, stride = stride, stride // len(axis)
            repeat = ((1 << count) - 1) // ((1 << period) - 1)  # bit j * period for each j
            run = (1 << stride) - 1
            masks.append(tuple((run << v * stride) * repeat for v in range(len(axis))))
        return tuple(masks)

    def atom_values(self, index: int) -> tuple[int, ...]:
        values = []
        for axis in reversed(self.axes):
            index, v = divmod(index, len(axis))
            values.append(v)
        return tuple(reversed(values))

    def atom_name(self, index: int) -> str:
        values = self.atom_values(index)
        return "∩".join(axis[v] for axis, v in zip(self.axes, values))


def _atom_mask(
    names: Sequence[str],
    masks: Iterable[int],
    atom_frame: AtomFrame,
    literal_map: Mapping[str, tuple[int, int]],
) -> int:
    """The atoms of :func:`refine_to_atoms` as a mask, bit i for atom i.

    ``masks`` are term masks over the singletons ``names``.  A term's atoms
    are the AND of its literals' value masks (every atom when it pins no
    axis, none when it pins one axis to two values), and the proposition's
    atoms are the OR over its terms.
    """
    value_masks = atom_frame._value_masks
    every = (1 << atom_frame.atom_count) - 1
    atoms = 0
    for term in masks:
        meet = every
        for i in _members(term):
            name = names[i]
            if name not in literal_map:
                raise ValueError(f"singleton {_brief(repr(name))} has no axis mapping")
            axis, value = literal_map[name]
            if not 0 <= axis < len(value_masks) or not 0 <= value < len(value_masks[axis]):
                raise ValueError(f"axis mapping for {_brief(repr(name))} is out of range")
            meet &= value_masks[axis][value]
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
    singleton used by ``a`` must be mapped.
    """
    return frozenset(_members(_atom_mask(a.frame.names, a.masks, atom_frame, literal_map)))
