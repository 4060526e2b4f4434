"""Discrete enhanced parameters for the dual classical groups.

A discrete parameter of a complex classical group Sp_N or SO_N is a
multiplicity-free set of Jordan blocks (pi, a): a formal irreducible label
pi carrying a dimension and a self-duality type, and a block size a >= 1,
with sum n_pi * a = N and a parity rule tying the type of pi (x) a to the
type of the group.  Labels are purely formal: every formula in this package
consumes only (dimension, type, a, signs).

The component group of a discrete parameter is elementary abelian on one
generator z_{pi,a} per block; for an orthogonal group it is cut down to the
subgroup where the total dimension with sign -1 is even.  Characters are
stored by their values on all the z_{pi,a}; for orthogonal groups two value
tables name the same character exactly when they agree or differ by the
determinant flip (negation on the blocks of odd n_pi * a).

A pair (parameter, character) is cuspidal when the blocks of each label
descend in steps of two down to size 1 or 2 ("gapless") and the character
alternates: opposite values on consecutive blocks of a label, value -1 on
a minimal block of even size.

A :class:`DiscreteParameter` is valid by construction: its constructor runs
:func:`validate_parameter` and raises ``InvalidParameter`` on any problem,
so the functions below take validity for granted and never check it again.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import InvalidParameter
from .orbits import Family, GroupKind, SignCharacter, Verdict, require_domain


class SelfDualType(str, Enum):
    ORTHOGONAL = "orthogonal"
    SYMPLECTIC = "symplectic"
    GL_PAIR = "gl-pair"


class BlockGroupSide(str, Enum):
    """Type of the isometry group of a multiplicity space."""

    SP_SIDE = "sp"
    O_SIDE = "o"
    GL_SIDE = "gl"

    @property
    def parity(self) -> int:
        """Parity of the block sizes, and of the staircase, on this side: 0 Sp, 1 O."""
        if self is BlockGroupSide.GL_SIDE:
            raise InvalidParameter("gl-pair labels have no block parity rule")
        return 0 if self is BlockGroupSide.SP_SIDE else 1


@dataclass(frozen=True, order=True)
class IrrLabel:
    name: str
    dim: int
    sd_type: SelfDualType

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"label dimension must be positive, got {self.dim}")

    def __str__(self) -> str:
        return self.name


BlockKey = tuple[str, int]


def _block_key(label: IrrLabel, a: int) -> BlockKey:
    return (label.name, a)


_CLASSICAL_DUALS = (Family.SP, Family.SO_ODD, Family.SO_EVEN)


def _sorted_blocks(blocks: Iterable[tuple[IrrLabel, int]]) -> tuple[tuple[IrrLabel, int], ...]:
    return tuple(sorted(((label, int(a)) for label, a in blocks),
                        key=lambda ba: (ba[0].name, ba[1])))


@dataclass(frozen=True)
class DiscreteParameter:
    """Jordan blocks of a discrete parameter of a classical dual group.

    The blocks are kept sorted by (label name, size); building a parameter
    that :func:`validate_parameter` rejects raises ``InvalidParameter``.
    """

    dual_group: GroupKind
    blocks: tuple[tuple[IrrLabel, int], ...]

    def __init__(self, dual_group: GroupKind, blocks: Iterable[tuple[IrrLabel, int]]):
        object.__setattr__(self, "dual_group", dual_group)
        object.__setattr__(self, "blocks", _sorted_blocks(blocks))
        verdict = validate_parameter(dual_group, self.blocks)
        if not verdict:
            raise InvalidParameter(f"{self}: " + "; ".join(verdict.problems))

    def slices(self) -> tuple[tuple[IrrLabel, tuple[int, ...]], ...]:
        """(label, its block sizes increasing) for each label, in name order."""
        return tuple((label, tuple(a for _, a in group))
                     for label, group in itertools.groupby(self.blocks, key=itemgetter(0)))

    def block_keys(self) -> tuple[BlockKey, ...]:
        return tuple(_block_key(label, a) for label, a in self.blocks)

    @property
    def dimension(self) -> int:
        return sum(label.dim * a for label, a in self.blocks)

    def __str__(self) -> str:
        inner = ",".join(f"({label},{a})" for label, a in self.blocks)
        return f"{{{inner}}}"


def block_group_type(dual: GroupKind, label: IrrLabel) -> BlockGroupSide:
    """Type of the group acting on the multiplicity space of a label.

    Orthogonal when the label type matches the dual group type, symplectic
    when they differ, general-linear for non-self-dual bundles.
    """
    if label.sd_type is SelfDualType.GL_PAIR:
        return BlockGroupSide.GL_SIDE
    matches = (dual.is_symplectic and label.sd_type is SelfDualType.SYMPLECTIC) or (
        dual.is_special_orthogonal and label.sd_type is SelfDualType.ORTHOGONAL)
    return BlockGroupSide.O_SIDE if matches else BlockGroupSide.SP_SIDE


def validate_parameter(dual: GroupKind, blocks: Iterable[tuple[IrrLabel, int]]) -> Verdict:
    """The problems that keep ``blocks`` from being a discrete parameter of ``dual``.

    The :class:`DiscreteParameter` constructor raises on any of them; the
    CLI ``validate`` command reports them all.
    """
    problems = []
    if dual.family not in _CLASSICAL_DUALS:
        problems.append(f"dual group {dual} is not a classical dual "
                        "(Sp / SOodd / SOeven)")
        return Verdict(False, tuple(problems))
    blocks = _sorted_blocks(blocks)
    seen = Counter(_block_key(label, a) for label, a in blocks)
    for (name, a), count in sorted(seen.items()):
        if count > 1:
            problems.append(f"repeated block ({name},{a})")
    by_name: dict[str, IrrLabel] = {}
    for label, a in dict.fromkeys(blocks):  # each distinct block once
        prior = by_name.setdefault(label.name, label)
        if prior != label:
            problems.append(f"label name {label.name!r} used with two different data")
        if a < 1:
            problems.append(f"block ({label},{a}) has nonpositive size")
            continue
        if label.sd_type is SelfDualType.GL_PAIR:
            problems.append(f"gl-pair label {label} in a discrete parameter")
            continue
        parity = block_group_type(dual, label).parity
        if a % 2 != parity:
            article = "an" if label.sd_type is SelfDualType.ORTHOGONAL else "a"
            problems.append(
                f"block ({label},{a}): {article} {label.sd_type.value} label needs "
                f"{('even', 'odd')[parity]} sizes in {dual.family.value}")
    dimension = sum(label.dim * a for label, a in blocks)
    if dimension != dual.size:
        problems.append(f"blocks span dimension {dimension}, expected {dual.size}")
    return Verdict(not problems, tuple(problems))


ParameterCharacter = SignCharacter  # values on the block keys (pi-name, a)


def det_flip(p: DiscreteParameter, eta: ParameterCharacter) -> ParameterCharacter:
    """Negate eta on the blocks of odd n_pi * a (the other value table of
    the same character of an orthogonal component group)."""
    odd_keys = {key for (label, a), key in zip(p.blocks, p.block_keys())
                if (label.dim * a) % 2}
    return eta.flip_where(lambda key: key in odd_keys)


def sgroup_factors(p: DiscreteParameter, eta: ParameterCharacter) -> bool:
    """Whether eta is trivial on the image of the center (defines a packet member).

    The center {+-1} of Sp and of even SO acts by -1 on every block, so its
    image is the product of all generators; odd SO has a trivial center.
    """
    require_domain(eta, p.block_keys(), "blocks", p)
    return p.dual_group.family is Family.SO_ODD or eta.product() == 1


def has_no_gaps(p: DiscreteParameter) -> bool:
    """Every block of size a >= 3 sits above a block of size a - 2."""
    keys = set(p.block_keys())
    return all(a < 3 or (label.name, a - 2) in keys for label, a in p.blocks)


def is_alternating(p: DiscreteParameter, eta: ParameterCharacter) -> bool:
    """Opposite signs on consecutive blocks of a label; -1 on minimal even blocks.

    Both conditions only involve products over blocks of equal size parity,
    so the answer is the same for the two value tables of an orthogonal
    character.
    """
    require_domain(eta, p.block_keys(), "blocks", p)
    for label, sizes in p.slices():
        for lo, hi in zip(sizes, sizes[1:]):
            if eta((label.name, lo)) == eta((label.name, hi)):
                return False
        if sizes and sizes[0] % 2 == 0 and eta((label.name, sizes[0])) != -1:
            return False
    return True


def is_cuspidal(p: DiscreteParameter, eta: ParameterCharacter) -> bool:
    return has_no_gaps(p) and is_alternating(p, eta)


def half_str(two_e: int) -> str:
    """The half-integer two_e/2 as an exact fraction string: "3/2", "-2", "0"."""
    return f"{two_e}/2" if two_e % 2 else str(two_e // 2)


class ExponentMultiset:
    """Multiset of (label, half-integer) pairs, kept exact.

    Supports the few operations the support construction needs: union,
    checked difference, the canonical nonnegative half of a symmetric
    multiset, and symmetry checking.

    An exponent e is held as the integer 2e, everywhere: the constructor
    takes (label, 2e) pairs, `entries` reads them back as (label, 2e, count)
    and `multiplicity` and `in` look up (label, 2e).  The counts live per
    label, as ``{label: {2e: count}}`` with no zero count and no empty
    inner dict.  Every operation works label by label on int keys, so it
    hashes each label once rather than once per exponent, and equality is
    dict equality.  Multisets are immutable and may share inner dicts; an
    operation copies an inner dict before it changes it.  :func:`half_str`
    writes 2e as the fraction string e.
    """

    __slots__ = ("_counts",)

    def __init__(self, entries: Iterable[tuple[IrrLabel, int]] = ()):
        by_label: dict = {}
        for label, two_e in entries:
            by_label.setdefault(label, []).append(two_e)
        self._counts = {label: dict(Counter(two_es)) for label, two_es in by_label.items()}

    @classmethod
    def _wrap(cls, counts: dict) -> "ExponentMultiset":
        """The multiset of counts, which must hold no zero count and no empty inner dict."""
        out = cls.__new__(cls)
        out._counts = counts
        return out

    @classmethod
    def of_label(cls, label: IrrLabel, counts: dict[int, int]) -> "ExponentMultiset":
        """The multiset holding (label, 2e) counts[2e] times for each 2e.

        It takes ownership of counts, which must hold no zero count.
        """
        return cls._wrap({label: counts} if counts else {})

    @classmethod
    def union_all(cls, parts: Iterable["ExponentMultiset"]) -> "ExponentMultiset":
        """The union of several multisets, accumulated in one dict per label."""
        counts: dict = {}
        for part in parts:
            for label, theirs in part._counts.items():
                mine = counts.get(label)
                if mine is None:
                    counts[label] = theirs.copy()
                    continue
                get = mine.get
                for two_e, count in theirs.items():
                    mine[two_e] = get(two_e, 0) + count
        return cls._wrap(counts)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExponentMultiset) and self._counts == other._counts

    def __hash__(self) -> int:
        return hash(frozenset((label, frozenset(counts.items()))
                              for label, counts in self._counts.items()))

    def __len__(self) -> int:
        return sum(sum(counts.values()) for counts in self._counts.values())

    def __contains__(self, entry: tuple[IrrLabel, int]) -> bool:
        label, two_e = entry
        return two_e in self._counts.get(label, ())

    def multiplicity(self, label: IrrLabel, two_e: int) -> int:
        counts = self._counts.get(label)
        return counts.get(two_e, 0) if counts else 0

    def union(self, other: "ExponentMultiset") -> "ExponentMultiset":
        return ExponentMultiset.union_all((self, other))

    def minus(self, other: "ExponentMultiset") -> "ExponentMultiset":
        diff = self._counts.copy()
        for label, theirs in other._counts.items():
            mine = diff.get(label, {}).copy()
            for two_e, count in theirs.items():
                left = mine.get(two_e, 0) - count
                if left < 0:
                    raise InvalidParameter("multiset difference would be negative at "
                                           f"({label},{half_str(two_e)})")
                if left:
                    mine[two_e] = left
                else:
                    del mine[two_e]
            if mine:
                diff[label] = mine
            else:
                del diff[label]
        return ExponentMultiset._wrap(diff)

    def is_symmetric(self) -> bool:
        return all(counts == {-two_e: count for two_e, count in counts.items()}
                   for counts in self._counts.values())

    def nonnegative_half(self) -> "ExponentMultiset":
        """H with self = H + (-H); positives keep their multiplicity, zeros halve."""
        if not self.is_symmetric():
            raise InvalidParameter("multiset is not symmetric under negation")
        half = {}
        for label, counts in self._counts.items():
            mine = {two_e: count for two_e, count in counts.items() if two_e > 0}
            zeros = counts.get(0, 0) // 2
            if zeros:
                mine[0] = zeros
            if mine:
                half[label] = mine
        return ExponentMultiset._wrap(half)

    def negated(self) -> "ExponentMultiset":
        return ExponentMultiset._wrap(
            {label: {-two_e: count for two_e, count in counts.items()}
             for label, counts in self._counts.items()})

    def by_label(self) -> tuple[tuple[IrrLabel, Mapping[int, int]], ...]:
        """(label, read-only {2e: count}) for each label, sorted by label."""
        return tuple((label, MappingProxyType(self._counts[label]))
                     for label in sorted(self._counts))

    def entries(self) -> tuple[tuple[IrrLabel, int, int], ...]:
        """(label, 2e, count) for each distinct entry, sorted by label, then by 2e."""
        return tuple((label, two_e, count) for label, counts in self.by_label()
                     for two_e, count in sorted(counts.items()))

    def __repr__(self) -> str:
        inner = ",".join(f"({label},{half_str(two_e)})"
                         for label, two_e, count in self.entries() for _ in range(count))
        return f"{{{{{inner}}}}}"


def block_exponents(label: IrrLabel, a: int) -> ExponentMultiset:
    """Exponents (a-1)/2 - j, j = 0..a-1, of one size-a block."""
    return ExponentMultiset.of_label(label, dict.fromkeys(range(a - 1, -a, -2), 1))


def infinitesimal_character(p: DiscreteParameter) -> ExponentMultiset:
    return ExponentMultiset.union_all(block_exponents(label, a) for label, a in p.blocks)


def reducibility_point(label: IrrLabel, blocks: Iterable[tuple[IrrLabel, int]],
                       dual: GroupKind) -> int:
    """2x, for x the nonnegative real where the twist of label meets the
    classical part with Jordan blocks ``blocks``: (a_max + 1)/2 when the
    label occurs among them, 1/2 when absent with its type matching the
    dual group, 0 when absent with the types different.
    """
    if label.sd_type is SelfDualType.GL_PAIR:
        raise InvalidParameter("reducibility points are defined for self-dual labels only")
    sizes = [a for lab, a in blocks if lab == label]
    if sizes:
        return max(sizes) + 1
    return 1 if block_group_type(dual, label) is BlockGroupSide.O_SIDE else 0
