"""u-symbol combinatorics for symplectic and orthogonal unipotent classes.

A u-symbol is a pair of finite subsets (A, B) of the nonnegative integers
with no two consecutive entries inside A or inside B, normalized by a size
balance tying sum(A) + sum(B) to the matrix size N.  Symplectic symbols are
ordered pairs with 0 excluded from B and |A| + |B| odd; orthogonal symbols
are unordered pairs.  Two symbols are identified when one arises from the
other by the shift (A, B) -> ({0} u (A+2), {1} u (B+2)) (both seeds 0 in the
unordered case).  The shift keeps the size and the defect, so both are read
off the one representative built here.

Each row is held as an integer bitset: bit x is set when x is in the row.
The row checks are then integer operations: a row r has no two consecutive
entries when r & (r >> 1) == 0, 0 is missing from B when b & 1 == 0, and
|A| - |B| is a.bit_count() - b.bit_count().  An increasing row of integers
becomes a bitset through one binary digit string, so it takes time linear
in the largest entry (a loop of ``bits |= 1 << x`` would not).  No
computation reads a bitset back: only a message (a refused row, a failed
interval check, ``str`` of a symbol) lists its entries, through the same
kind of digit string.  A symbol is made in one way, from its parity and its
two row bitsets, and checked there: a base symbol from the two rows of one
pass over the parts, which come out increasing, and a pair's symbol from
the base rows' bitsets.  The base symbol's size is summed off those two
rows while they are still lists, and compared with the group's size.

The pair (class, character) is encoded as follows.  A partition p of N is
turned into a base symbol by splitting the strictly increasing sequence
p_i + (i - 1) into its even and odd halves.  The symmetric difference
C = A Δ B then breaks into maximal integer runs; each run ("interval") is
matched, in increasing order, with a distinct part of the generator parity,
the run length being the multiplicity of the part.  A character of the
component group, as its signs on those parts, selects the intervals where
its sign is -1, and swapping the A/B-content of exactly those intervals
produces the symbol of the pair.  The defect |A| - |B| (signed in the
symplectic case, absolute value in the orthogonal one) is the invariant
driving the whole dictionary: it survives elimination and pins the cuspidal
datum.

For the symplectic family the run containing 0, when present, is excluded
from the interval list (it is the fixed margin H); orthogonal intervals may
start at 0 and H is empty.  The runs are bitsets too, each read off the
bitset r of C by a carry: the run at 0 is r & ~(r + 1), and the lowest run
is r & ~(r + (r & -r)).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import add
from typing import Sequence

from .errors import InternalCheckError, InvalidPartition
from .orbits import GroupKind, Partition, ValidOrbit, check_aligned, is_distinguished

_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _entries(row: int) -> tuple[int, ...]:
    """The entries of a row bitset, increasing: the positions of the 1s in its
    binary digits, lowest first."""
    return tuple(compress(count(), bin(row)[:1:-1].encode().translate(_DIGIT_VALUES)))


def _bits(row: list[int]) -> int:
    """The bitset of an increasing row of nonnegative integers: a '1' digit
    per entry in a binary digit string, which ``int`` reads at once."""
    if not row:
        return 0
    top = row[-1]
    digits = bytearray(b"0") * (top + 1)
    for x in row:
        digits[top - x] = 49  # ord("1")
    return int(digits, 2)


@dataclass(frozen=True)
class USymbol:
    """A u-symbol, with its rows checked on construction.

    ``parity`` is the generator parity of the group it belongs to
    (:attr:`GroupKind.generator_parity`): the int 0, an ordered symplectic
    symbol, or the int 1, an unordered orthogonal one.  The rows are the
    bitsets ``a_bits`` and ``b_bits``, nonnegative ints.  The fields are the one
    constructor, so every symbol, ``dataclasses.replace`` included, passes
    the checks: the parity, each row an int bitset and not a bool, no two
    consecutive entries in a row, and the symplectic conditions.  A row
    costs memory and time linear in its largest entry, which is about N in
    the symbol of a class of a size-N group.

    The checks are on the rows alone.  The size needs no check of its own:
    with no two consecutive entries in a row, sum(A) + sum(B) is at least
    what the |A| and |B| smallest entries give, so the size is at least
    (|A| - |B|)^2 >= 0 for an orthogonal symbol and at least
    (|A| - |B|)(|A| - |B| - 1) >= 0 for a symplectic one, and a symplectic
    size 2 sum - t(t - 1) is always even.
    """

    parity: int
    a_bits: int
    b_bits: int

    def __post_init__(self):
        parity, a, b = self.parity, self.a_bits, self.b_bits
        if type(parity) is not int or parity not in (0, 1):
            raise ValueError(f"symbol parity must be 0 (ordered) or 1 (unordered), got {parity!r}")
        for row in (a, b):
            if type(row) is not int:
                raise TypeError(f"a symbol row must be an int bitset, got {row!r}")
            if row < 0:
                raise ValueError(f"a symbol row bitset must be nonnegative, got {row}")
            if row & (row >> 1):
                raise ValueError(f"consecutive entries in one row: {_entries(row)}")
        if parity == 0:
            if b & 1:
                raise ValueError("the second row of a symplectic symbol excludes 0")
            if (a.bit_count() + b.bit_count()) % 2 == 0:
                raise ValueError("a symplectic symbol has an odd number of entries")

    @property
    def defect(self) -> int:
        d = self.a_bits.bit_count() - self.b_bits.bit_count()
        return d if self.parity == 0 else abs(d)

    def __str__(self) -> str:
        fmt = lambda row: "{" + ",".join(map(str, _entries(row))) + "}"
        return f"({fmt(self.a_bits)};{fmt(self.b_bits)})"


@dataclass(frozen=True)
class IntervalStructure:
    """Interval decomposition of C = A Δ B for the base symbol of a partition.

    ``parts[r]`` is the distinct part of generator parity that the r-th
    maximal run of C outside the margin encodes, runs and parts both
    increasing, and ``splits[r]`` is the bitset pair (run ∩ A, run ∩ B).
    The rows every character shares, (A ∩ B) with the margin's share of
    each row, are the bitset pair ``common``.  It depends on the partition
    alone, so one structure, built and checked once by
    :func:`interval_structure`, serves every character through
    :func:`swapped_symbol`.
    """

    symbol: USymbol
    parts: tuple[int, ...]
    common: tuple[int, int]
    splits: tuple[tuple[int, int], ...]


def _base_rows(kind: GroupKind, p: Partition) -> tuple[list[int], list[int]]:
    """The rows (A, B) of the base symbol, each increasing, in one pass over
    the increasing parts.

    Symplectic symbols need an even number of parts, so a 0 goes in front of
    an odd count; orthogonal partitions always satisfy len = N (mod 2)
    already (even parts come in even packs), which the check pins down.  The
    staircase value x = p_i + (i - 1) goes to A when odd and to B when even,
    as x // 2 plus the number of entries already in that row; the symplectic
    rows are shifted up by one more, and A starts with 0.
    """
    parts = p.increasing()
    if kind.is_symplectic:
        if len(parts) % 2:
            parts = (0,) + parts
        rows, shift = ([], [0]), 1  # (B, A), indexed by the parity of x
    else:
        if (len(parts) - kind.size) % 2:
            raise InternalCheckError(f"orthogonal partition {p} with length parity != size parity")
        rows, shift = ([], []), 0
    for x in map(add, parts, count()):
        row = rows[x & 1]
        row.append((x >> 1) + len(row) + shift)
    row_b, row_a = rows
    if shift and len(row_a) != len(row_b) + 1:
        raise InternalCheckError(f"unbalanced staircase split for {parts}")
    return row_a, row_b


def distinguished_symbol(orbit: ValidOrbit) -> USymbol:
    """The base symbol of a partition: rows interleave, character trivial.

    Its rows come out of :func:`_base_rows` increasing, so each becomes a
    bitset through one digit string with no sort, and the symbol is checked
    as every symbol is.  Its size, from the balance condition, is summed
    off the two row lists and compared with the group's: with t entries in
    all, 2 (sum(A) + sum(B)) less t(t - 1) for a symplectic symbol and less
    (t - 1)^2 - 1 for an orthogonal one.
    """
    kind, p = orbit.kind, orbit.partition
    parity = kind.generator_parity
    if parity is None:
        raise InvalidPartition(f"{kind} has no u-symbol combinatorics")
    row_a, row_b = _base_rows(kind, p)
    symbol = USymbol(parity, _bits(row_a), _bits(row_b))
    t = len(row_a) + len(row_b)
    size = 2 * (sum(row_a) + sum(row_b)) - ((t - 1) ** 2 - 1 if parity else t * (t - 1))
    expected = kind.size
    if size != expected:
        raise InternalCheckError(f"base symbol of {p} has size {size}, expected {expected}")
    return symbol


def interval_structure(orbit: ValidOrbit) -> IntervalStructure:
    """The interval structure of the orbit's base symbol, checked once.

    One walk over the runs of A ^ B, as bitsets: the symplectic margin, the
    run at 0, is set apart first, and the runs left are counted by their
    starts.  The generator parts and their multiplicities are read off the
    table the orbit carries, whose parts increase.  Each run must match, in
    order, a distinct part of the generator parity, its length being that
    part's multiplicity.
    """
    p = orbit.partition
    symbol = distinguished_symbol(orbit)
    parity, base_a, base_b = symbol.parity, symbol.a_bits, symbol.b_bits
    rest = base_a ^ base_b
    margin = 0 if parity else rest & ~(rest + 1)
    rest ^= margin
    generators = [(q, m) for q, m in orbit.multiplicities if q % 2 == parity]
    intervals = (rest & ~(rest << 1)).bit_count()
    if len(generators) != intervals:
        raise InternalCheckError(f"{p}: {intervals} intervals for {len(generators)} generator parts")
    splits = []
    for q, m in generators:
        run = rest & ~(rest + (rest & -rest))
        if run.bit_count() != m:
            raise InternalCheckError(
                f"{p}: interval {_entries(run)} does not match multiplicity of {q}")
        splits.append((base_a & run, base_b & run))
        rest ^= run
    both = base_a & base_b
    common = (both | (base_a & margin), both | (base_b & margin))
    parts = tuple(q for q, _ in generators)
    return IntervalStructure(symbol, parts, common, tuple(splits))


def swapped_symbol(structure: IntervalStructure, signs: Sequence[int]) -> USymbol:
    """Symbol of the pair (class of the structure's partition, character).

    The intervals where the signs, aligned with ``structure.parts`` (which
    strictly increase, so only the values and the count are checked), are -1 have their row
    contents swapped relative to the base symbol.  The result is a new
    :class:`USymbol`, validated as every symbol is.
    """
    check_aligned(structure.parts, signs, increasing=True)
    row_a, row_b = structure.common
    for (in_a, in_b), sign in zip(structure.splits, signs):
        if sign == -1:
            in_a, in_b = in_b, in_a
        row_a |= in_a
        row_b |= in_b
    return USymbol(structure.symbol.parity, row_a, row_b)


def defect_formula(orbit: ValidOrbit, signs: Sequence[int]) -> int:
    """Closed-form defect for a distinguished class, straight from the signs.

    With k parts (never zero-padded) in increasing order, signs eta_i:
    symplectic, k even:  1 + sum (-1)^i eta_i;
    symplectic, k odd:   sum (-1)^(i+1) eta_i;
    orthogonal:          | sum (-1)^(i+1) eta_i |.
    Must agree with the defect of :func:`swapped_symbol` on the orbit's
    :func:`interval_structure`.  Distinguishedness is checked before the count.
    """
    if not is_distinguished(orbit):
        raise InvalidPartition(f"{orbit.partition} is not distinguished for {orbit.kind}")
    check_aligned(orbit.partition.increasing(), signs, increasing=True)
    alternating = sum(signs[0::2]) - sum(signs[1::2])  # sum (-1)^(i+1) eta_i
    if orbit.kind.is_symplectic:
        return 1 - alternating if len(signs) % 2 == 0 else alternating
    return abs(alternating)
