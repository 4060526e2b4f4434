"""Fixtures shared by the support tests of the library and of the CLI, the
partitions of n by the textbook recursion, a byte-backed standard input for
CLI jobs, spies on partition validation, on character reads, on
`Partition` construction and on `springer_datum` calls, the symbol and
closed-form defect of a pair from a bare partition, the
counting validator of parameters the one-pass one is held to, the
bitset of a row given as integers and the readers of a symbol's bitsets
(its rows as increasing tuples and its size), the two-row split route to a base
symbol's rows, the set-algebra routes to an interval structure and to a
pair's rows, the alternative symplectic defect formula the symbol tests
compare against, a shorthand for parameter characters, the determinant
flip of a parameter character and the value tables the parameter census
keeps, found by comparing characters.

A pair's character is given to these helpers as the library's layers take
it: its signs aligned with the increasing generators."""

import io
import itertools
import sys
from collections import Counter
from typing import Iterable, Sequence

import pytest

from cusp_atlas import cuspsupport, orbits, springer
from cusp_atlas.errors import DomainMismatch
from cusp_atlas.lparams import DiscreteParameter, IrrLabel, ParameterCharacter, SelfDualType
from cusp_atlas.orbits import Family, GroupKind, Partition, SignCharacter, as_int, require_valid
from cusp_atlas.symbols import USymbol, defect_formula, interval_structure, swapped_symbol


def recursive_partitions(n: int, top: int | None = None) -> Iterable[tuple[int, ...]]:
    """The partitions of n by the textbook recursion, largest part first,
    then the rest below it: decreasing lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, top or n), 0, -1):
        for rest in recursive_partitions(n - first, first):
            yield (first,) + rest


def pair_symbol(kind: GroupKind, p: Partition, signs: Sequence[int]) -> USymbol:
    """The u-symbol of the pair (class of p, signs on its generators), p
    validated for the group."""
    return swapped_symbol(interval_structure(require_valid(kind, p)), signs)


def pair_defect(kind: GroupKind, p: Partition, signs: Sequence[int]) -> int:
    """The closed-form defect of the pair (class of p, signs on its parts), p
    validated for the group."""
    return defect_formula(require_valid(kind, p), signs)


def row_bits(row: Iterable[int]) -> int:
    """The bitset of a row of nonnegative integers given in any order: bit x
    set for each entry x, through one binary digit string."""
    entries = set(row)
    if not entries:
        return 0
    assert min(entries) >= 0, entries
    return int("".join("1" if x in entries else "0" for x in range(max(entries), -1, -1)), 2)


Rows = tuple[tuple[int, ...], tuple[int, ...]]


def entries(bits: int) -> tuple[int, ...]:
    """The entries of a row bitset, increasing: the positions of the 1s of
    its binary digits, read lowest first, in time linear in its length."""
    return tuple(x for x, digit in enumerate(reversed(bin(bits)[2:])) if digit == "1")


def symbol_rows(sym: USymbol) -> Rows:
    """The rows (A, B) of a symbol, each increasing, read off its bitsets."""
    return entries(sym.a_bits), entries(sym.b_bits)


def symbol_size(sym: USymbol) -> int:
    """The matrix size N of a symbol by the balance condition, read off its
    bitsets: with t entries in all, 2 (sum(A) + sum(B)) less t(t - 1) for a
    symplectic symbol and less (t - 1)^2 - 1 for an orthogonal one."""
    a, b = symbol_rows(sym)
    t = len(a) + len(b)
    total = sum(a) + sum(b)
    if sym.parity == 0:
        return 2 * total - t * (t - 1)
    return 2 * total - ((t - 1) ** 2 - 1)


def staircase_split_symbol(kind: GroupKind, p: Partition) -> Rows:
    """The rows (A, B) of the base symbol of p, each increasing, by the
    two-row split: the staircase p_i + (i - 1) of the increasing parts (a 0
    in front of an odd symplectic count), its even values halved into B and
    its odd values, less one and halved, into A, each row then shifted by
    its index (and the symplectic rows by one or two more, A gaining a 0)."""
    parts = p.increasing()
    if kind.is_symplectic and len(parts) % 2:
        parts = (0,) + parts
    staircase = [q + i for i, q in enumerate(parts)]
    evens = [x // 2 for x in staircase if x % 2 == 0]
    odds = [(x - 1) // 2 for x in staircase if x % 2]
    if kind.is_symplectic:
        row_a = [0] + [y + j + 2 for j, y in enumerate(odds)]
        row_b = [y + j + 1 for j, y in enumerate(evens)]
    else:
        row_a = [y + j for j, y in enumerate(odds)]
        row_b = [y + j for j, y in enumerate(evens)]
    return tuple(row_a), tuple(row_b)


def set_algebra_intervals(kind: GroupKind, p: Partition, rows: Rows) -> dict:
    """The interval decomposition of A Δ B on Python sets of the rows: the
    maximal runs, increasing (the symplectic one at 0 set apart as the margin
    h), the generator parts, the rows every character shares and each run's
    share of the two rows, all as sets."""
    a, b = map(set, rows)
    runs: list[list[int]] = []
    for x in sorted(a ^ b):
        if runs and runs[-1][-1] == x - 1:
            runs[-1].append(x)
        else:
            runs.append([x])
    h = runs.pop(0) if kind.is_symplectic and runs and runs[0][0] == 0 else []
    return {
        "intervals": tuple(map(tuple, runs)),
        "parts": tuple(sorted(q for q in set(p.parts) if q % 2 == kind.generator_parity)),
        "h": tuple(h),
        "common": ((a & b) | (set(h) & a), (a & b) | (set(h) & b)),
        "splits": tuple((set(run) & a, set(run) & b) for run in runs),
    }


def set_algebra_swapped_symbol(kind: GroupKind, p: Partition, signs: Sequence[int]) -> Rows:
    """The set-algebra form of `swapped_symbol`, on no structure of the
    library: the rows (A, B) of the pair's symbol, each increasing, from the
    two-row split of p and its set-algebra intervals, the rows every
    character shares and then each interval's content from the row its sign
    selects."""
    base_a, base_b = staircase_split_symbol(kind, p)
    intervals = set_algebra_intervals(kind, p, (base_a, base_b))
    row_a, row_b = intervals["common"]
    assert len(signs) == len(intervals["splits"])
    for (in_a, in_b), sign in zip(intervals["splits"], signs):
        if sign == -1:
            in_a, in_b = in_b, in_a
        row_a |= in_a
        row_b |= in_b
    return tuple(sorted(row_a)), tuple(sorted(row_b))


def alternative_defect_formula_sp(signs: Sequence[int]) -> int:
    """The other printed closed form for the symplectic defect, on the signs
    of the increasing parts.

    Kept purely for regression comparison: on the cuspidal fixtures it
    exceeds `symbols.defect_formula` by exactly k + 1.
    """
    k = len(signs)
    acc = sum((-1) ** (i + k) * sign for i, sign in enumerate(signs, start=1))
    return acc + 2 * k + 2 - 2 * ((k + 1) // 2)


def reference_parameter_problems(dual: GroupKind, blocks: Iterable[tuple[IrrLabel, int]]
                                 ) -> tuple[str, ...]:
    """The problems of ``blocks`` as a discrete parameter of ``dual``, found
    by counting: a Counter of the (name, size) keys names each repeated
    block, then each distinct block, in (name, size) order, is held to the
    first label of its name, a positive size, a self-dual type and the size
    parity its type and the dual group ask for, and last comes the dimension.

    `lparams.validate_parameter` must give these problems, in this order.
    """
    if dual.family not in (Family.SP, Family.SO_ODD, Family.SO_EVEN):
        return (f"dual group {dual} is not a classical dual (Sp / SOodd / SOeven)",)
    blocks = sorted(((label, as_int(a)) for label, a in blocks),
                    key=lambda block: (block[0].name, block[1]))
    problems = []
    seen = Counter((label.name, a) for label, a in blocks)
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
        matches = (dual.family is Family.SP and label.sd_type is SelfDualType.SYMPLECTIC) or (
            dual.family in (Family.SO_ODD, Family.SO_EVEN)
            and label.sd_type is SelfDualType.ORTHOGONAL)
        parity = 1 if matches else 0
        if a % 2 != parity:
            article = "an" if label.sd_type is SelfDualType.ORTHOGONAL else "a"
            problems.append(
                f"block ({label},{a}): {article} {label.sd_type.value} label needs "
                f"{('even', 'odd')[parity]} sizes in {dual.family.value}")
    dimension = sum(label.dim * a for label, a in blocks)
    if dimension != dual.size:
        problems.append(f"blocks span dimension {dimension}, expected {dual.size}")
    return tuple(problems)


def character_on(p: DiscreteParameter, signs: Iterable[int]) -> ParameterCharacter:
    """The character with the given signs, aligned with the sorted block list."""
    signs = tuple(signs)
    if len(signs) != len(p.blocks):
        raise DomainMismatch(f"{len(signs)} signs for {len(p.blocks)} blocks")
    return SignCharacter(dict(zip(p.block_keys(), signs)))


def det_flip(p: DiscreteParameter, eta: ParameterCharacter) -> ParameterCharacter:
    """Negate eta on the blocks of odd n_pi * a (the other value table of
    the same character of an orthogonal component group)."""
    odd_keys = {key for (label, a), key in zip(p.blocks, p.block_keys()) if (label.dim * a) % 2}
    return SignCharacter({key: -s if key in odd_keys else s for key, s in eta.values})


def reference_kept_characters(p: DiscreteParameter) -> list[ParameterCharacter]:
    """The characters `census.enumerate_parameters` yields on p, in order,
    found as characters: every value table on the blocks, its signs in
    `itertools.product` order, and for an orthogonal dual only the tables no
    larger than their determinant flip."""
    keys = p.block_keys()
    tables = (character_on(p, signs) for signs in itertools.product((1, -1), repeat=len(keys)))
    return [eta for eta in tables
            if p.dual_group.is_symplectic or eta.values <= det_flip(p, eta).values]


@pytest.fixture
def feed_stdin(monkeypatch):
    """``feed(data)`` puts ``data`` on standard input as the bytes a pipe
    carries: a str goes as its UTF-8 encoding, bytes go as they are.

    The text layer decodes as Python's own standard input does in UTF-8
    mode, with ``surrogateescape``, so it lets invalid UTF-8 through.
    """
    def feed(data) -> None:
        if isinstance(data, str):
            data = data.encode("utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
    return feed


def _spy(monkeypatch, direct, record) -> list:
    """Replace the function ``direct`` in every module of the package that
    holds it by one that appends ``record(*args, **kwargs)`` to the returned
    list before it calls ``direct``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return direct(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "cusp_atlas" or name.startswith("cusp_atlas."):
            for attr, value in list(vars(module).items()):
                if value is direct:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def validated(monkeypatch) -> list:
    """The partitions `orbits.validate_partition` is called on, in order, from
    every module of the package that holds it."""
    return _spy(monkeypatch, orbits.validate_partition, lambda kind, p: p.parts)


@pytest.fixture
def signs_read(monkeypatch) -> list:
    """The keys `orbits.signs_on` reads a character on, in order, from every
    module of the package that holds it."""
    return _spy(monkeypatch, orbits.signs_on, lambda eta, keys, what, owner: keys)


@pytest.fixture
def datum_calls(monkeypatch) -> list:
    """The partitions `springer.springer_datum` is called on, in order, from
    every module of the package that holds it."""
    return _spy(monkeypatch, springer.springer_datum, lambda kind, p, signs: p.parts)


@pytest.fixture
def partitions_made(monkeypatch) -> list:
    """The parts of every `orbits.Partition` constructed, in order."""
    made = []
    init = Partition.__init__

    def counted(self, parts=()):
        init(self, parts)
        made.append(self.parts)

    monkeypatch.setattr(Partition, "__init__", counted)
    return made


@pytest.fixture
def support_calls(monkeypatch) -> list:
    """The parameters `cuspsupport.support` is called on, in order."""
    calls = []
    direct = cuspsupport.support

    def counted(p, eta, **read):
        calls.append(p)
        return direct(p, eta, **read)

    monkeypatch.setattr(cuspsupport, "support", counted)
    return calls


@pytest.fixture
def lossy_psi_route(monkeypatch) -> None:
    """Negative control: every psi-route segment loses its last exponent."""
    segment = cuspsupport._segment
    monkeypatch.setattr(cuspsupport, "_segment",
                        lambda top, length, label: segment(top, max(length - 1, 0), label))


@pytest.fixture
def shifted_psi_route(monkeypatch) -> None:
    """Negative control: every psi image moves up one staircase step."""
    psi_map = cuspsupport._psi_map
    monkeypatch.setattr(cuspsupport, "_psi_map", lambda parity, parts, signs: tuple(
        i + 2 for i in psi_map(parity, parts, signs)))
