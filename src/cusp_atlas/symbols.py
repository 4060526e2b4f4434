"""u-symbol combinatorics for symplectic and orthogonal unipotent classes.

A u-symbol is a pair of finite subsets (A, B) of the nonnegative integers
with no two consecutive entries inside A or inside B, normalized by a size
balance tying sum(A) + sum(B) to the matrix size N.  Symplectic symbols are
ordered pairs with 0 excluded from B and |A| + |B| odd; orthogonal symbols
are unordered pairs.  Two symbols are identified when one arises from the
other by the shift (A, B) -> ({0} u (A+2), {1} u (B+2)) (both seeds 0 in the
unordered case).  The shift keeps the size and the defect, so both are read
off the one representative built here.

The pair (class, character) is encoded as follows.  A partition p of N is
turned into a base symbol by splitting the strictly increasing sequence
p_i + (i - 1) into its even and odd halves.  The symmetric difference
C = A Δ B then breaks into maximal integer runs; each run ("interval") is
matched, in increasing order, with a distinct part of the generator parity,
the run length being the multiplicity of the part.  A character of the
component group selects the set of intervals where its value is -1, and
swapping the A/B-content of exactly those intervals produces the symbol of
the pair.  The defect |A| - |B| (signed in the symplectic case, absolute
value in the orthogonal one) is the invariant driving the whole dictionary:
it survives elimination and pins the cuspidal datum.

For the symplectic family the run containing 0, when present, is excluded
from the interval list (it is the fixed margin H); orthogonal intervals may
start at 0 and H is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from .errors import InternalCheckError, InvalidPartition
from .orbits import (
    GroupKind,
    Partition,
    SignCharacter,
    ValidOrbit,
    is_distinguished,
    require_domain,
)


def _no_consecutive(entries: tuple[int, ...]) -> bool:
    """No two entries differ by 1; ``entries`` is strictly increasing, so no
    gap is smaller."""
    return 1 not in map(sub, entries[1:], entries)


@dataclass(frozen=True)
class USymbol:
    """A u-symbol, with its rows sorted and checked on construction.

    ``parity`` is the generator parity of the group it belongs to
    (:attr:`GroupKind.generator_parity`): 0, an ordered symplectic symbol,
    or 1, an unordered orthogonal one.

    The checks are on the rows alone.  The size needs no check of its own:
    with no two consecutive entries in a row, sum(A) + sum(B) is at least
    what the |A| and |B| smallest entries give, so the size is at least
    (|A| - |B|)^2 >= 0 for an orthogonal symbol and at least
    (|A| - |B|)(|A| - |B| - 1) >= 0 for a symplectic one, and a symplectic
    size 2 sum - t(t - 1) is always even.
    """

    parity: int
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __init__(self, parity: int, a, b):
        a = tuple(sorted(set(map(int, a))))
        b = tuple(sorted(set(map(int, b))))
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        self._validate()

    def _validate(self):
        for side in (self.a, self.b):
            if side and side[0] < 0:
                raise ValueError(f"symbol entries must be nonnegative: {side}")
            if not _no_consecutive(side):
                raise ValueError(f"consecutive entries in one row: {side}")
        if self.parity == 0:
            if 0 in self.b:
                raise ValueError("the second row of a symplectic symbol excludes 0")
            if (len(self.a) + len(self.b)) % 2 == 0:
                raise ValueError("a symplectic symbol has an odd number of entries")

    @property
    def size(self) -> int:
        """The matrix size N recovered from the balance condition."""
        t = len(self.a) + len(self.b)
        total = sum(self.a) + sum(self.b)
        if self.parity == 0:
            return 2 * total - t * (t - 1)
        return 2 * total - ((t - 1) ** 2 - 1)

    @property
    def defect(self) -> int:
        d = len(self.a) - len(self.b)
        return d if self.parity == 0 else abs(d)

    def __str__(self) -> str:
        fmt = lambda row: "{" + ",".join(map(str, row)) + "}"
        return f"({fmt(self.a)};{fmt(self.b)})"


@dataclass(frozen=True)
class IntervalStructure:
    """Interval decomposition of C = A Δ B for the base symbol of a partition.

    ``intervals[r]`` is the r-th maximal run (increasing) and ``parts[r]``
    the distinct part of generator parity it encodes; ``h`` is the excluded
    margin (symplectic only).  The rows every character shares, (A ∩ B)
    with the margin's share of each row, are ``common``, and ``splits[r]``
    is (run ∩ A, run ∩ B) of ``intervals[r]``.  It depends on the partition
    alone, so one structure, built and checked once by
    :func:`interval_structure`, serves every character through
    :func:`swapped_symbol`.
    """

    partition: Partition
    symbol: USymbol
    intervals: tuple[tuple[int, ...], ...]
    parts: tuple[int, ...]
    h: tuple[int, ...]
    common: tuple[tuple[int, ...], tuple[int, ...]]
    splits: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


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


def _split_rows(kind: GroupKind, parts: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Even/odd split of the staircase p_i + (i-1) into the two symbol rows."""
    staircase = [q + i for i, q in enumerate(parts)]
    evens = [x // 2 for x in staircase if x % 2 == 0]
    odds = [(x - 1) // 2 for x in staircase if x % 2]
    if kind.is_symplectic:
        if len(evens) != len(odds):
            raise InternalCheckError(f"unbalanced staircase split for {parts}")
        row_a = (0,) + tuple(y + j + 2 for j, y in enumerate(odds))
        row_b = tuple(y + j + 1 for j, y in enumerate(evens))
    else:
        row_a = tuple(y + j for j, y in enumerate(odds))
        row_b = tuple(y + j for j, y in enumerate(evens))
    return row_a, row_b


def distinguished_symbol(orbit: ValidOrbit) -> USymbol:
    """The base symbol of a partition: rows interleave, character trivial."""
    kind, p = orbit.kind, orbit.partition
    parity = kind.generator_parity
    if parity is None:
        raise InvalidPartition(f"{kind} has no u-symbol combinatorics")
    row_a, row_b = _split_rows(kind, _padded_increasing(kind, p))
    symbol = USymbol(parity, row_a, row_b)
    expected = kind.size
    if symbol.size != expected:
        raise InternalCheckError(f"base symbol of {p} has size {symbol.size}, expected {expected}")
    return symbol


def interval_structure(orbit: ValidOrbit) -> IntervalStructure:
    kind, p = orbit.kind, orbit.partition
    symbol = distinguished_symbol(orbit)
    base_a, base_b = set(symbol.a), set(symbol.b)
    runs: list[list[int]] = []
    for x in sorted(base_a ^ base_b):
        if runs and x == runs[-1][-1] + 1:
            runs[-1].append(x)
        else:
            runs.append([x])
    h: tuple[int, ...] = ()
    if kind.is_symplectic and runs and runs[0][0] == 0:
        h = tuple(runs.pop(0))
    intervals = tuple(tuple(run) for run in runs)
    parts = p.distinct_parts_of_parity(kind.generator_parity)
    if len(parts) != len(intervals):
        raise InternalCheckError(f"{p}: {len(intervals)} intervals for {len(parts)} generator parts")
    multiplicity = p.multiplicities()
    for run, q in zip(intervals, parts):
        if len(run) != multiplicity[q]:
            raise InternalCheckError(f"{p}: interval {run} does not match multiplicity of {q}")
    both = base_a & base_b
    common = (tuple(sorted(both | (base_a & set(h)))), tuple(sorted(both | (base_b & set(h)))))
    splits = tuple((tuple(x for x in run if x in base_a), tuple(x for x in run if x in base_b))
                   for run in intervals)
    return IntervalStructure(p, symbol, intervals, parts, h, common, splits)


def swapped_symbol(structure: IntervalStructure, eta: SignCharacter) -> USymbol:
    """Symbol of the pair (class of the structure's partition, eta).

    eta gives signs on the generator parts; the intervals where it is -1
    have their row contents swapped relative to the base symbol.  The
    result is a new :class:`USymbol`, validated as every symbol is.

    Once eta's domain is checked to be the parts, ``eta.values`` (sorted by
    generator) runs over the parts in the order of ``structure.splits``.
    """
    require_domain(eta, structure.parts, "parts", structure.partition)
    common_a, common_b = structure.common
    row_a, row_b = list(common_a), list(common_b)  # a tuple += would copy per interval
    for (in_a, in_b), (_, sign) in zip(structure.splits, eta.values):
        if sign == -1:
            in_a, in_b = in_b, in_a
        row_a += in_a
        row_b += in_b
    return USymbol(structure.symbol.parity, row_a, row_b)


def defect_formula(orbit: ValidOrbit, eta: SignCharacter) -> int:
    """Closed-form defect for a distinguished class, straight from the signs.

    With k parts (never zero-padded) in increasing order:
    symplectic, k even:  1 + sum (-1)^i eta(z_{p_i});
    symplectic, k odd:   sum (-1)^(i+1) eta(z_{p_i});
    orthogonal:          | sum (-1)^(i+1) eta(z_{p_i}) |.
    eta is given on exactly the parts.  Must agree with the defect of
    :func:`swapped_symbol` on the orbit's :func:`interval_structure`.
    """
    kind, p = orbit.kind, orbit.partition
    if not is_distinguished(orbit):
        raise InvalidPartition(f"{p} is not distinguished for {kind}")
    require_domain(eta, p.parts, "parts", p)
    parts = p.increasing()
    k = len(parts)
    if kind.is_symplectic:
        if k % 2 == 0:
            return 1 + sum((-1) ** i * eta(q) for i, q in enumerate(parts, start=1))
        return sum((-1) ** (i + 1) * eta(q) for i, q in enumerate(parts, start=1))
    return abs(sum((-1) ** (i + 1) * eta(q) for i, q in enumerate(parts, start=1)))
