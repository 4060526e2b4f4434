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

A :class:`DiscreteParameter` is valid by construction: its constructor sorts
its blocks once, runs the one-pass checks of :func:`validate_parameter` on
them and raises ``InvalidParameter`` on any problem, so the functions below
take validity for granted and never check it again.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable

from .errors import InvalidParameter
from .orbits import Family, GroupKind, SignCharacter, Verdict, as_int, signs_on


class SelfDualType(str, Enum):
    ORTHOGONAL = "orthogonal"
    SYMPLECTIC = "symplectic"
    GL_PAIR = "gl-pair"


@dataclass(frozen=True, order=True)
class IrrLabel:
    """A formal label: a str name, a dimension >= 1 and a SelfDualType (or its value)."""

    name: str
    dim: int
    sd_type: SelfDualType

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise TypeError(f"a label name is a str, got {type(self.name).__name__}")
        object.__setattr__(self, "dim", as_int(self.dim))
        if self.dim < 1:
            raise ValueError(f"label dimension must be positive, got {self.dim}")
        if self.sd_type.__class__ is not SelfDualType:  # a member passes as it is
            try:
                object.__setattr__(self, "sd_type", SelfDualType(self.sd_type))
            except ValueError:
                raise ValueError(f"label type {self.sd_type!r} is not one of orthogonal, "
                                 "symplectic, gl-pair") from None

    def __str__(self) -> str:
        return self.name


BlockKey = tuple[str, int]


def _block_key(block: tuple[IrrLabel, int]) -> BlockKey:
    """The (label name, size) of a block: its generator's key, and the sort key."""
    return block[0].name, block[1]


_CLASSICAL_DUALS = (Family.SP, Family.SO_ODD, Family.SO_EVEN)


def _sorted_blocks(dual: GroupKind, blocks: Iterable[tuple[IrrLabel, int]]
                   ) -> tuple[tuple[IrrLabel, int], ...]:
    """The blocks sorted by (label name, size), as both parameter doors take
    them.  Under every dual a block that is not an (IrrLabel, size) pair is
    a ``TypeError``; under a classical dual each size is read by ``as_int``
    unless it is an exact int already; under any other dual, the one
    problem, no size is read and blocks whose sizes do not compare stay as
    given."""
    classical = dual.family in _CLASSICAL_DUALS
    pairs = []
    for block in blocks:
        try:
            label, a = block
        except (TypeError, ValueError):
            label = None
        if not isinstance(label, IrrLabel):
            raise TypeError(f"a block is an (IrrLabel, size) pair, got {block!r}")
        pairs.append((label, a if type(a) is int or not classical else as_int(a)))
    try:
        return tuple(sorted(pairs, key=_block_key))
    except TypeError:  # only sizes no one read may fail to compare
        return tuple(pairs)


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
        object.__setattr__(self, "blocks", _sorted_blocks(dual_group, blocks))
        problems = _problems(dual_group, self.blocks)
        if problems:
            raise InvalidParameter(f"{self}: " + "; ".join(problems))

    def slices(self) -> tuple[tuple[IrrLabel, tuple[int, ...]], ...]:
        """(label, its block sizes increasing) for each label, in name order."""
        return tuple((label, tuple(a for _, a in group))
                     for label, group in itertools.groupby(self.blocks, key=itemgetter(0)))

    def block_keys(self) -> tuple[BlockKey, ...]:
        return tuple(map(_block_key, self.blocks))

    @property
    def dimension(self) -> int:
        return sum(label.dim * a for label, a in self.blocks)

    def __str__(self) -> str:
        inner = ",".join(f"({label},{a})" for label, a in self.blocks)
        return f"{{{inner}}}"


# lparams reads these through module names: on Python 3.11, naming an enum
# member (SelfDualType.GL_PAIR) goes through the enum class's __getattr__ hook
# and costs about ten times a module-level name, and the validator and both
# support routes ask the block parity once per block or label.
_ORTHOGONAL = SelfDualType.ORTHOGONAL
_GL_PAIR = SelfDualType.GL_PAIR
_SO_ODD = Family.SO_ODD
# the (dual family, label type) pairs with the label type matching the dual
# group's: a label of such a pair has an orthogonal multiplicity group
_MATCHING_TYPES = frozenset({(Family.SP, SelfDualType.SYMPLECTIC),
                             (Family.SO_ODD, _ORTHOGONAL), (Family.SO_EVEN, _ORTHOGONAL)})


def block_group_type(dual: GroupKind, label: IrrLabel) -> int:
    """Generator parity of the group acting on the multiplicity space of a label.

    1 (orthogonal) when the label type matches the dual group type, 0
    (symplectic) when they differ, as :attr:`GroupKind.generator_parity`
    gives for that group.  It is also the parity of the label's block sizes.
    """
    sd_type = label.sd_type
    if sd_type is _GL_PAIR:
        raise InvalidParameter("gl-pair labels have no block parity rule")
    return 1 if (dual.family, sd_type) in _MATCHING_TYPES else 0


def validate_parameter(dual: GroupKind, blocks: Iterable[tuple[IrrLabel, int]]) -> Verdict:
    """The problems that keep ``blocks`` from being a discrete parameter of ``dual``.

    The :class:`DiscreteParameter` constructor raises on any of them; the
    CLI ``validate`` command reports them all.  A dual group that is not
    classical is reported before any block size is read.
    """
    problems = _problems(dual, _sorted_blocks(dual, blocks))
    return Verdict(not problems, tuple(problems))


def _problems(dual: GroupKind, blocks: tuple[tuple[IrrLabel, int], ...]) -> list[str]:
    """The problems of ``blocks``, sorted by ``_sorted_blocks``, in one pass.

    The one validator of parameters: the repeated blocks, each named once
    in (name, size) order, then per distinct block a label name first met
    with other data, a nonpositive size, a gl-pair label or the size parity
    :func:`block_group_type` asks for, and last the dimension.  The sort
    makes repeats and the blocks of one name adjacent, so the first label
    of a name is the one every later label of that name is held to.
    """
    if dual.family not in _CLASSICAL_DUALS:
        return [f"dual group {dual} is not a classical dual (Sp / SOodd / SOeven)"]
    repeated: list[str] = []
    problems: list[str] = []
    dimension = 0
    name_at = a_at = first = run_first = None  # the current name and size, their first labels
    run = None  # once the current (name, size) repeats: the distinct labels met at it
    for label, a in blocks:
        dimension += label.dim * a
        name = label.name
        if a == a_at and name == name_at:  # a repeat: named once, each distinct label checked once
            if run is None:
                repeated.append(f"repeated block ({name},{a})")
                run = {run_first}
            if label in run:
                continue
            run.add(label)
        else:
            if name != name_at:
                name_at, first = name, label
            a_at, run_first, run = a, label, None
        if label is not first and label != first:
            problems.append(f"label name {name!r} used with two different data")
        if a < 1:
            problems.append(f"block ({label},{a}) has nonpositive size")
            continue
        if label.sd_type is _GL_PAIR:
            problems.append(f"gl-pair label {label} in a discrete parameter")
            continue
        parity = block_group_type(dual, label)
        if a % 2 != parity:
            article = "an" if label.sd_type is _ORTHOGONAL else "a"
            problems.append(
                f"block ({label},{a}): {article} {label.sd_type.value} label needs "
                f"{('even', 'odd')[parity]} sizes in {dual.family.value}")
    if dimension != dual.size:
        problems.append(f"blocks span dimension {dimension}, expected {dual.size}")
    return repeated + problems


ParameterCharacter = SignCharacter  # values on the block keys (pi-name, a)


def sgroup_factors(p: DiscreteParameter, eta: ParameterCharacter, *, slices=None) -> bool:
    """Whether eta is trivial on the image of the center (defines a packet member).

    The center {+-1} of Sp and of even SO acts by -1 on every block, so its
    image is the product of all generators; odd SO has a trivial center.
    ``slices`` are ``signed_slices(p, eta)`` if read.
    """
    if slices is None:
        slices = signed_slices(p, eta)
    return p.dual_group.family is _SO_ODD or \
        math.prod(sign for _, _, slice_signs in slices for sign in slice_signs) == 1


def signed_slices(p: DiscreteParameter, eta: ParameterCharacter
                  ) -> list[tuple[IrrLabel, tuple[int, ...], tuple[int, ...]]]:
    """Per label, in name order: (label, its block sizes increasing, eta's
    signs on those blocks), with eta read once, on exactly the blocks."""
    signs = iter(signs_on(eta, p.block_keys(), "blocks", p))
    return [(label, sizes, tuple(itertools.islice(signs, len(sizes))))
            for label, sizes in p.slices()]


def is_cuspidal(p: DiscreteParameter, eta: ParameterCharacter, *, slices=None) -> bool:
    """Each label's sizes rise by 2 from 1 or 2, its signs alternate, and a
    minimal even block carries -1.  eta is read through :func:`signed_slices`,
    with its DomainMismatch, unless ``slices`` are ``signed_slices(p, eta)``.
    The sign conditions only involve products over blocks of equal size
    parity, so an orthogonal character's two value tables agree on them.
    """
    for _, sizes, signs in signed_slices(p, eta) if slices is None else slices:
        # a label's sizes are distinct and of one parity: they rise by 2
        # exactly when the last is 2(len - 1) above the first
        low = sizes[0]
        if low > 2 or sizes[-1] - low != 2 * len(sizes) - 2:
            return False
        if (low == 2 and signs[0] == 1) or 1 in map(operator.mul, signs, signs[1:]):
            return False
    return True


def half_str(two_e: int) -> str:
    """The half-integer two_e/2 as an exact fraction string: "3/2", "-2", "0"."""
    return f"{two_e}/2" if two_e % 2 else str(two_e // 2)


class ExponentMultiset:
    """Multiset of (label, half-integer) pairs, kept exact and held as runs.

    Supports the few operations the support construction needs: union,
    checked difference, the canonical nonnegative half of a symmetric
    multiset, and symmetry checking.

    An exponent e is held as the integer 2e, everywhere: the constructor
    takes (label, 2e) pairs, `entries` reads them back as (label, 2e, count)
    and `multiplicity` and `in` look up (label, 2e).

    The exponents of a block, and each segment of the psi route, form a run
    2e = lo, lo+2, ..., hi.  So the multiset keeps, per label, the jumps of
    its count function c: ``{label: {2e: c(2e) - c(2e-2)}}``, with no zero
    jump and no empty inner dict.  A run of count n is two jumps, +n at lo
    and -n at hi+2; even and odd 2e form two separate chains.  Union adds
    jumps, negation sends a jump j at 2e to -j at 2-2e, a label holds
    -sum(2e * j)/2 entries, and equality is dict equality.  So the set
    operations cost the number of jumps, not the number of entries; of them
    only `minus` sorts, to find a count that would go negative.  `runs` and
    `entries` read the counts back.

    Multisets are immutable and may share inner dicts; an operation copies
    an inner dict before it changes it.  :func:`half_str` writes 2e as the
    fraction string e.
    """

    __slots__ = ("_jumps",)

    def __init__(self, entries: Iterable[tuple[IrrLabel, int]] = ()):
        self._jumps = ExponentMultiset.union_all(
            ExponentMultiset.of_runs(label, ((two_e, two_e),)) for label, two_e in entries)._jumps

    @classmethod
    def _wrap(cls, jumps: dict) -> "ExponentMultiset":
        """The multiset of jumps, which must hold no zero jump and no empty inner dict."""
        out = cls.__new__(cls)
        out._jumps = jumps
        return out

    @classmethod
    def of_runs(cls, label: IrrLabel, runs: Iterable[tuple[int, int]]) -> "ExponentMultiset":
        """The multiset holding (label, 2e) once per run (lo, hi) with 2e
        among lo, lo+2, ..., hi; lo and hi have the same parity, and a run
        with lo > hi is empty."""
        jumps: dict = {}
        get = jumps.get
        for lo, hi in runs:
            if lo <= hi:
                jumps[lo] = get(lo, 0) + 1
                jumps[hi + 2] = get(hi + 2, 0) - 1
        jumps = {two_e: j for two_e, j in jumps.items() if j}
        return cls._wrap({label: jumps} if jumps else {})

    @classmethod
    def union_all(cls, parts: Iterable["ExponentMultiset"]) -> "ExponentMultiset":
        """The union of several multisets, accumulated in one dict per label."""
        jumps: dict = {}
        for part in parts:
            for label, theirs in part._jumps.items():
                mine = jumps.get(label)
                if mine is None:
                    jumps[label] = theirs.copy()
                    continue
                get = mine.get
                for two_e, j in theirs.items():
                    total = get(two_e, 0) + j
                    if total:
                        mine[two_e] = total
                    else:  # a run ends where the next begins
                        del mine[two_e]
        return cls._wrap(jumps)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExponentMultiset) and self._jumps == other._jumps

    def __hash__(self) -> int:
        return hash(frozenset((label, frozenset(jumps.items()))
                              for label, jumps in self._jumps.items()))

    def __len__(self) -> int:
        return sum(map(_size, self._jumps.values()))

    def __contains__(self, entry: tuple[IrrLabel, int]) -> bool:
        return self.multiplicity(*entry) > 0

    def multiplicity(self, label: IrrLabel, two_e: int) -> int:
        """The sum of the jumps at and below 2e on its chain."""
        return sum(j for k, j in self._jumps.get(label, {}).items()
                   if k <= two_e and (two_e - k) % 2 == 0)

    def union(self, other: "ExponentMultiset") -> "ExponentMultiset":
        return ExponentMultiset.union_all((self, other))

    def minus(self, other: "ExponentMultiset") -> "ExponentMultiset":
        diff = self._jumps.copy()
        for label, theirs in other._jumps.items():
            mine = diff.get(label, {}).copy()
            get = mine.get
            for two_e, j in theirs.items():
                left = get(two_e, 0) - j
                if left:
                    mine[two_e] = left
                else:
                    del mine[two_e]
            count = [0, 0]  # on the even and on the odd chain
            for two_e in sorted(mine):
                count[two_e & 1] += mine[two_e]
                if count[two_e & 1] < 0:
                    raise InvalidParameter("multiset difference would be negative at "
                                           f"({label},{half_str(two_e)})")
            if mine:
                diff[label] = mine
            else:
                del diff[label]
        return ExponentMultiset._wrap(diff)

    def is_symmetric(self) -> bool:
        return all(jumps == _negated(jumps) for jumps in self._jumps.values())

    def nonnegative_half(self) -> "ExponentMultiset":
        """H with positives at their multiplicity and zeros halved, rounded down.

        Then self = H + (-H) exactly when the count at 0 is even; an odd
        count loses one zero (the O-side E_c of ``ec_multiset(label, 1,
        (1, 3, 801), 2)`` has one zero, its half none).  ``support`` never
        meets that case: Sp-side exponents are never 0, and on the O side
        d is congruent to the number of blocks mod 2, so E_c has an even
        count at 0.
        """
        if not self.is_symmetric():
            raise InvalidParameter("multiset is not symmetric under negation")
        half = {}
        for label, jumps in self._jumps.items():
            mine = {}
            at = [0, 0]  # the counts c(0) and c(1)
            for two_e, j in jumps.items():
                if two_e > 2:
                    mine[two_e] = j
                elif two_e < 2:
                    at[two_e & 1] += j
            zeros = at[0] // 2
            # H holds c(0)//2 at 0, c(1) at 1 and c(2) = c(0) + jumps[2] at 2
            for two_e, j in ((0, zeros), (1, at[1]), (2, at[0] + jumps.get(2, 0) - zeros)):
                if j:
                    mine[two_e] = j
            if mine:
                half[label] = mine
        return ExponentMultiset._wrap(half)

    def negated(self) -> "ExponentMultiset":
        return ExponentMultiset._wrap(
            {label: _negated(jumps) for label, jumps in self._jumps.items()})

    def label_sizes(self) -> tuple[tuple[IrrLabel, int], ...]:
        """(label, number of its entries) for each label, sorted by label."""
        return tuple((label, _size(self._jumps[label])) for label in sorted(self._jumps))

    def runs(self) -> tuple[tuple[IrrLabel, int, int, int], ...]:
        """(label, hi, lo, n) for each run: the label holds 2e = hi, hi-2,
        ..., lo n times each.  Labels come sorted and the runs of a label
        from the top down, so the entries read in decreasing order."""
        return tuple((label, hi, lo, n) for label in sorted(self._jumps)
                     for hi, lo, n in _runs(self._jumps[label]))

    def entries(self) -> tuple[tuple[IrrLabel, int, int], ...]:
        """(label, 2e, count) for each distinct entry, sorted by label, then by 2e."""
        return tuple((label, two_e, n) for label in sorted(self._jumps)
                     for hi, lo, n in reversed(_runs(self._jumps[label]))
                     for two_e in range(lo, hi + 1, 2))

    def __repr__(self) -> str:
        inner = ",".join(f"({label},{half_str(two_e)})"
                         for label, two_e, count in self.entries() for _ in range(count))
        return f"{{{{{inner}}}}}"


def _size(jumps: dict) -> int:
    """The number of entries of one label's jumps: each jump j at 2e counts -2e*j/2."""
    return -sum(two_e * j for two_e, j in jumps.items()) // 2


def _negated(jumps: dict) -> dict:
    return {2 - two_e: -j for two_e, j in jumps.items()}


def _runs(jumps: dict) -> list[tuple[int, int, int]]:
    """(hi, lo, n) runs of one label's jumps, from the top down.

    Between two consecutive jumps the counts on each chain are constant; where
    both chains hold entries they interleave, and each entry is a run of its own.
    """
    keys = sorted(jumps)
    count = [0, 0]  # on the even and on the odd chain, from the current key up
    pieces = []
    for two_e, following in zip(keys, keys[1:]):
        count[two_e & 1] += jumps[two_e]
        if count[0] and count[1]:
            pieces.extend((k, k, count[k & 1]) for k in range(two_e, following))
        elif count[0] or count[1]:
            parity = 1 if count[1] else 0
            lo = two_e if two_e & 1 == parity else two_e + 1
            hi = following - 2 if following & 1 == parity else following - 1
            if lo <= hi:
                pieces.append((hi, lo, count[parity]))
    pieces.reverse()
    return pieces


def slice_exponents(label: IrrLabel, sizes: Iterable[int]) -> ExponentMultiset:
    """Exponents (a-1)/2 - j, j = 0..a-1, of one label's blocks of the given
    sizes a: one run from 1-a to a-1 per block, all in one of_runs call."""
    return ExponentMultiset.of_runs(label, ((1 - a, a - 1) for a in sizes))


def infinitesimal_character(p: DiscreteParameter) -> ExponentMultiset:
    return ExponentMultiset.union_all(slice_exponents(label, sizes) for label, sizes in p.slices())


def reducibility_point(label: IrrLabel, blocks: Iterable[tuple[IrrLabel, int]],
                       dual: GroupKind) -> int:
    """2x, for x the nonnegative real where the twist of label meets the
    classical part with Jordan blocks ``blocks``: (a_max + 1)/2 when the
    label occurs among them, 1/2 when absent with its type matching the
    dual group, 0 when absent with the types different.
    """
    if label.sd_type is _GL_PAIR:
        raise InvalidParameter("reducibility points are defined for self-dual labels only")
    sizes = [a for lab, a in blocks if lab == label]
    if sizes:
        return max(sizes) + 1
    return block_group_type(dual, label)
