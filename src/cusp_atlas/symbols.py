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
|A| - |B| is a.bit_count() - b.bit_count().  The rows read back as
increasing tuples through ``USymbol.a`` and ``USymbol.b``.  A row given as
integers becomes a bitset, and a bitset becomes a tuple, through one binary
digit string each way, so both take time linear in the largest entry (a
loop of ``bits |= 1 << x`` would not).

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
start at 0 and H is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from typing import Iterable, Sequence

from .errors import InternalCheckError, InvalidPartition
from .orbits import GroupKind, Partition, ValidOrbit, as_int, check_aligned, is_distinguished

_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _entries(row: int) -> tuple[int, ...]:
    """The entries of a row bitset, increasing: the positions of the 1s in its
    binary digits, lowest first."""
    return tuple(compress(count(), bin(row)[:1:-1].encode().translate(_DIGIT_VALUES)))


def _spaced(row: int) -> int:
    """The row bitset, once checked to hold no two consecutive entries."""
    if row & (row >> 1):
        raise ValueError(f"consecutive entries in one row: {_entries(row)}")
    return row


def _row_bits(entries: Iterable[int]) -> int:
    """The bitset of a row given as integers in any order, repeats ignored,
    checked to be nonnegative and then spaced: a '1' digit per entry in a
    binary digit string, which ``int`` reads at once."""
    row = sorted(set(map(as_int, entries)))
    if not row:
        return 0
    if row[0] < 0:
        raise ValueError(f"symbol entries must be nonnegative: {tuple(row)}")
    top = row[-1]
    digits = bytearray(b"0") * (top + 1)
    for x in row:
        digits[top - x] = 49  # ord("1")
    return _spaced(int(digits, 2))


def _mask(run: tuple[int, ...]) -> int:
    """The bitset of a run of consecutive integers."""
    return ((1 << len(run)) - 1) << run[0] if run else 0


def _runs(row: int) -> list[tuple[int, ...]]:
    """The maximal runs of consecutive entries of a row bitset, increasing,
    read off its lowest set bit: skip the zeros below it, then count the ones."""
    runs = []
    start = 0
    while row:
        gap = (row & -row).bit_length() - 1
        row >>= gap
        length = (row ^ (row + 1)).bit_length() - 1
        start += gap
        runs.append(tuple(range(start, start + length)))
        row >>= length
        start += length
    return runs


@dataclass(frozen=True)
class USymbol:
    """A u-symbol, with its rows checked on construction.

    ``parity`` is the generator parity of the group it belongs to
    (:attr:`GroupKind.generator_parity`): 0, an ordered symplectic symbol,
    or 1, an unordered orthogonal one.  The rows are the bitsets ``a_bits``
    and ``b_bits``; ``a`` and ``b`` give them back as increasing tuples.
    The constructor takes the rows as integers, in any order, repeats
    ignored.  A row costs memory and time linear in its largest entry, which
    is about N in the symbol of a class of a size-N group.

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

    def __init__(self, parity: int, a: Iterable[int], b: Iterable[int]):
        self._store(parity, _row_bits(a), _row_bits(b))

    def _store(self, parity: int, a: int, b: int) -> None:
        """Check the parity and the symplectic conditions on spaced rows, then
        keep them."""
        if parity not in (0, 1):
            raise ValueError(f"symbol parity must be 0 (ordered) or 1 (unordered), got {parity!r}")
        if parity == 0:
            if b & 1:
                raise ValueError("the second row of a symplectic symbol excludes 0")
            if (a.bit_count() + b.bit_count()) % 2 == 0:
                raise ValueError("a symplectic symbol has an odd number of entries")
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "a_bits", a)
        object.__setattr__(self, "b_bits", b)

    @property
    def a(self) -> tuple[int, ...]:
        return _entries(self.a_bits)

    @property
    def b(self) -> tuple[int, ...]:
        return _entries(self.b_bits)

    @property
    def size(self) -> int:
        """The matrix size N recovered from the balance condition."""
        a, b = self.a, self.b
        t = len(a) + len(b)
        total = sum(a) + sum(b)
        if self.parity == 0:
            return 2 * total - t * (t - 1)
        return 2 * total - ((t - 1) ** 2 - 1)

    @property
    def defect(self) -> int:
        d = self.a_bits.bit_count() - self.b_bits.bit_count()
        return d if self.parity == 0 else abs(d)

    def __str__(self) -> str:
        fmt = lambda row: "{" + ",".join(map(str, row)) + "}"
        return f"({fmt(self.a)};{fmt(self.b)})"


def _symbol(parity: int, a: int, b: int) -> USymbol:
    """The u-symbol of two row bitsets, checked as the constructor checks."""
    symbol = object.__new__(USymbol)
    symbol._store(parity, _spaced(a), _spaced(b))
    return symbol


@dataclass(frozen=True)
class IntervalStructure:
    """Interval decomposition of C = A Δ B for the base symbol of a partition.

    ``intervals[r]`` is the r-th maximal run (increasing) and ``parts[r]``
    the distinct part of generator parity it encodes; ``h`` is the excluded
    margin (symplectic only, else empty).  The rows every character shares,
    (A ∩ B) with the margin's share of each row, are the bitset pair
    ``common``, and ``splits[r]`` is the bitset pair (run ∩ A, run ∩ B) of
    ``intervals[r]``.  It depends on the partition alone, so one structure,
    built and checked once by :func:`interval_structure`, serves every
    character through :func:`swapped_symbol`.
    """

    symbol: USymbol
    intervals: tuple[tuple[int, ...], ...]
    parts: tuple[int, ...]
    h: tuple[int, ...]
    common: tuple[int, int]
    splits: tuple[tuple[int, int], ...]


def _padded_increasing(kind: GroupKind, p: Partition) -> tuple[int, ...]:
    """Parts in increasing order, zero-padded to the parity the split needs.

    Symplectic symbols need an even number of parts.  Orthogonal partitions
    always satisfy len = N (mod 2) already (even parts come in even packs),
    which the assertion pins down.
    """
    parts = p.increasing()
    if kind.is_symplectic:
        if len(parts) % 2:
            parts = (0,) + parts
    else:
        if (len(parts) - kind.size) % 2:
            raise InternalCheckError(f"orthogonal partition {p} with length parity != size parity")
    return parts


def _split_rows(kind: GroupKind, parts: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Even/odd split of the staircase p_i + (i-1) into the two symbol rows."""
    staircase = [q + i for i, q in enumerate(parts)]
    evens = [x // 2 for x in staircase if x % 2 == 0]
    odds = [(x - 1) // 2 for x in staircase if x % 2]
    if kind.is_symplectic:
        if len(evens) != len(odds):
            raise InternalCheckError(f"unbalanced staircase split for {parts}")
        row_a = [0] + [y + j + 2 for j, y in enumerate(odds)]
        row_b = [y + j + 1 for j, y in enumerate(evens)]
    else:
        row_a = [y + j for j, y in enumerate(odds)]
        row_b = [y + j for j, y in enumerate(evens)]
    return row_a, row_b


def distinguished_symbol(orbit: ValidOrbit) -> USymbol:
    """The base symbol of a partition: rows interleave, character trivial."""
    kind, p = orbit.kind, orbit.partition
    parity = kind.generator_parity
    if parity is None:
        raise InvalidPartition(f"{kind} has no u-symbol combinatorics")
    symbol = USymbol(parity, *_split_rows(kind, _padded_increasing(kind, p)))
    expected = kind.size
    if symbol.size != expected:
        raise InternalCheckError(f"base symbol of {p} has size {symbol.size}, expected {expected}")
    return symbol


def interval_structure(orbit: ValidOrbit) -> IntervalStructure:
    kind, p = orbit.kind, orbit.partition
    symbol = distinguished_symbol(orbit)
    base_a, base_b = symbol.a_bits, symbol.b_bits
    runs = _runs(base_a ^ base_b)
    h: tuple[int, ...] = ()
    if kind.is_symplectic and runs and runs[0][0] == 0:
        h = runs.pop(0)
    intervals = tuple(runs)
    parts = p.distinct_parts_of_parity(kind.generator_parity)
    if len(parts) != len(intervals):
        raise InternalCheckError(f"{p}: {len(intervals)} intervals for {len(parts)} generator parts")
    multiplicity = p.multiplicities()
    for run, q in zip(intervals, parts):
        if len(run) != multiplicity[q]:
            raise InternalCheckError(f"{p}: interval {run} does not match multiplicity of {q}")
    both, margin = base_a & base_b, _mask(h)
    common = (both | (base_a & margin), both | (base_b & margin))
    splits = tuple((base_a & mask, base_b & mask) for mask in map(_mask, intervals))
    return IntervalStructure(symbol, intervals, parts, h, common, splits)


def swapped_symbol(structure: IntervalStructure, signs: Sequence[int]) -> USymbol:
    """Symbol of the pair (class of the structure's partition, character).

    The intervals where the signs, aligned with ``structure.parts`` (which
    strictly increase, so only the count is checked), are -1 have their row
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
    return _symbol(structure.symbol.parity, row_a, row_b)


def distinguished_parts(orbit: ValidOrbit) -> tuple[int, ...]:
    """The increasing parts of a distinguished orbit, or InvalidPartition."""
    if not is_distinguished(orbit):
        raise InvalidPartition(f"{orbit.partition} is not distinguished for {orbit.kind}")
    return orbit.partition.increasing()


def defect_formula(orbit: ValidOrbit, signs: Sequence[int]) -> int:
    """Closed-form defect for a distinguished class, straight from the signs.

    With k parts (never zero-padded) in increasing order, signs eta_i:
    symplectic, k even:  1 + sum (-1)^i eta_i;
    symplectic, k odd:   sum (-1)^(i+1) eta_i;
    orthogonal:          | sum (-1)^(i+1) eta_i |.
    Must agree with the defect of :func:`swapped_symbol` on the orbit's
    :func:`interval_structure`.
    """
    check_aligned(distinguished_parts(orbit), signs, increasing=True)
    alternating = sum(signs[0::2]) - sum(signs[1::2])  # sum (-1)^(i+1) eta_i
    if orbit.kind.is_symplectic:
        return 1 - alternating if len(signs) % 2 == 0 else alternating
    return abs(alternating)
