import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    entries,
    pair_defect,
    pair_symbol,
    row_bits,
    set_algebra_intervals,
    set_algebra_swapped_symbol,
    staircase_split_symbol,
    symbol_rows,
    symbol_size,
)

from cusp_atlas.census import classical_kinds, distinguished_pairs, group_partitions
from cusp_atlas import symbols
from cusp_atlas.errors import DomainMismatch, InternalCheckError, InvalidPartition
from cusp_atlas.orbits import (
    Family,
    GroupKind,
    Partition,
    characters_of,
    component_group,
    require_valid,
)
from cusp_atlas.springer import springer_datum
from cusp_atlas.symbols import (
    USymbol,
    distinguished_symbol,
    interval_structure,
    swapped_symbol,
)

SP2 = GroupKind(Family.SP, 2)
SP6 = GroupKind(Family.SP, 6)
SO9 = GroupKind(Family.SO_ODD, 9)


def closed_form_symbol(kind, p, signs):
    """Independent oracle: the row-assignment rule for distinguished classes.

    Works straight from the stated proposition, entirely bypassing the
    interval machinery of the implementation.
    """
    parts = p.increasing()
    k = len(parts)
    if kind.is_symplectic:
        if k % 2 == 0:
            spots = {i: parts[i - 1] // 2 + i for i in range(1, k + 1)}
            a = {0} | {spots[i] for i in range(1, k + 1) if (-1) ** i * signs[i - 1] == 1}
            b = {spots[i] for i in range(1, k + 1) if (-1) ** i * signs[i - 1] == -1}
        else:
            spots = {i: parts[i - 1] // 2 + i + 1 for i in range(1, k + 1)}
            a = {0} | {spots[i] for i in range(1, k + 1) if (-1) ** (i + 1) * signs[i - 1] == 1}
            b = {1} | {spots[i] for i in range(1, k + 1) if (-1) ** (i + 1) * signs[i - 1] == -1}
        return USymbol(0, row_bits(a), row_bits(b))
    spots = {i: (parts[i - 1] - 3) // 2 + i for i in range(1, k + 1)}
    a = {spots[i] for i in range(1, k + 1) if (-1) ** (i + 1) * signs[i - 1] == 1}
    b = {spots[i] for i in range(1, k + 1) if (-1) ** (i + 1) * signs[i - 1] == -1}
    return USymbol(1, row_bits(a), row_bits(b))


# base symbols, hand-executed from the construction
@pytest.mark.parametrize("kind,parts,a,b", [
    (SP6, (4, 2), (0, 4), (2,)),
    (SP2, (2,), (0, 3), (1,)),
    (SO9, (5, 3, 1), (0, 4), (2,)),
])
def test_distinguished_symbol_fixtures(kind, parts, a, b):
    sym = distinguished_symbol(require_valid(kind, Partition(parts)))
    assert symbol_rows(sym) == (a, b)
    assert symbol_size(sym) == kind.size


def test_symbol_rows_refuse_entries_that_are_not_integers():
    # a row is one int bitset: entries given as a tuple, a float or a string are refused
    for row in ((0, 2), [0, 2], 5.0, "5", None):
        for a, b in ((row, 0b10), (0b1, row)):
            with pytest.raises(TypeError, match=r"^a symbol row must be an int bitset, got "):
                USymbol(1, a, b)
    assert symbol_rows(USymbol(1, 0b101, 0b10)) == ((0, 2), (1,))


def test_symbol_rows_refuse_a_bool_entry():
    for a, b, bad in ((True, 0, True), (0b1, False, False)):
        with pytest.raises(TypeError) as err:
            USymbol(1, a, b)
        assert str(err.value) == f"a symbol row must be an int bitset, got {bad}"


def test_symbol_invariants_enforced():
    with pytest.raises(ValueError):
        USymbol(0, row_bits((0, 1)), row_bits((2,)))     # consecutive entries
    with pytest.raises(ValueError):
        USymbol(0, row_bits((2,)), row_bits((0,)))       # 0 in the second row
    with pytest.raises(ValueError):
        USymbol(0, row_bits((0, 2)), row_bits((4, 6)))   # even entry count
    with pytest.raises(ValueError, match=r"^a symbol row bitset must be nonnegative, got -5$"):
        USymbol(1, -5, 0b10)
    with pytest.raises(ValueError, match=r"^a symbol row bitset must be nonnegative, got -1$"):
        USymbol(0, 0b1, -1)
    with pytest.raises(ValueError, match=r"^consecutive entries in one row: \(2, 4, 5\)$"):
        USymbol(1, 0b1, row_bits((5, 2, 4)))


@pytest.mark.parametrize("row, error, text", [
    ((0, 2), TypeError, "a symbol row must be an int bitset, got (0, 2)"),
    ([5], TypeError, "a symbol row must be an int bitset, got [5]"),
    ({0, 2}, TypeError, "a symbol row must be an int bitset, got {0, 2}"),
    (5.0, TypeError, "a symbol row must be an int bitset, got 5.0"),
    ("5", TypeError, "a symbol row must be an int bitset, got '5'"),
    (None, TypeError, "a symbol row must be an int bitset, got None"),
    (True, TypeError, "a symbol row must be an int bitset, got True"),
    (False, TypeError, "a symbol row must be an int bitset, got False"),
    (-1, ValueError, "a symbol row bitset must be nonnegative, got -1"),
    (-(1 << 70), ValueError, f"a symbol row bitset must be nonnegative, got {-(1 << 70)}"),
], ids=["tuple", "list", "set", "float", "str", "none", "true", "false", "minus-one", "minus-big"])
def test_a_symbol_row_is_a_nonnegative_int_bitset(row, error, text):
    # either row, in either family: a row that is not a nonnegative int is
    # refused before any rule on its entries
    for parity, good in ((0, 0b10001), (1, 0b10)):
        for a, b in ((row, good), (good, row)):
            with pytest.raises(error) as err:
                USymbol(parity, a, b)
            assert str(err.value) == text


def test_replace_runs_the_checks_again():
    sym = USymbol(0, row_bits((0, 4)), row_bits((2,)))
    for change, error, text in [
        ({"a_bits": 0b11}, ValueError, "consecutive entries in one row: (0, 1)"),
        ({"b_bits": 0b101}, ValueError, "the second row of a symplectic symbol excludes 0"),
        ({"b_bits": 0}, ValueError, "a symplectic symbol has an odd number of entries"),
        ({"b_bits": -4}, ValueError, "a symbol row bitset must be nonnegative, got -4"),
        ({"a_bits": (0, 4)}, TypeError, "a symbol row must be an int bitset, got (0, 4)"),
        ({"parity": 2}, ValueError, "symbol parity must be 0 (ordered) or 1 (unordered), got 2"),
    ]:
        with pytest.raises(error) as err:
            dataclasses.replace(sym, **change)
        assert str(err.value) == text, change
    assert dataclasses.replace(sym, parity=1) == USymbol(1, sym.a_bits, sym.b_bits)
    assert symbol_rows(dataclasses.replace(sym, b_bits=0b1000000)) == ((0, 4), (6,))


def spaced_rows(top: int, most: int) -> list[tuple[int, ...]]:
    """Every row of at most ``most`` entries below ``top``, no two consecutive."""
    return [row for k in range(most + 1) for row in itertools.combinations(range(top), k)
            if all(y - x > 1 for x, y in zip(row, row[1:]))]


@pytest.mark.parametrize("parity", [0, 1], ids=["sp", "o"])
def test_rows_alone_keep_the_size_nonnegative_and_symplectic_sizes_even(parity):
    # USymbol checks its rows only: with no two consecutive entries in a row,
    # the size is at least (|A| - |B|)^2 (orthogonal) or (|A| - |B|)(|A| - |B| - 1)
    # (symplectic), and a symplectic size is even
    rows = spaced_rows(10, 4)
    built = 0
    for a in rows:
        for b in rows:
            try:
                sym = USymbol(parity, row_bits(a), row_bits(b))
            except ValueError:
                continue
            built += 1
            d = len(a) - len(b)
            size = symbol_size(sym)
            if parity == 0:
                assert size >= d * (d - 1) >= 0 and size % 2 == 0, sym
            else:
                assert size >= d * d, sym
    assert built > 1000


@pytest.mark.parametrize("parity", [2, -1, None, "0", 0.5, True, False, 1.0, 0.0])
def test_symbol_parity_is_0_or_1(parity):
    with pytest.raises(ValueError, match=r"^symbol parity must be 0 \(ordered\) or 1 \(unordered\), got "):
        USymbol(parity, row_bits((0, 2)), row_bits((5,)))


def tuple_row_rules(parity, a, b):
    """The row rules on increasing tuples, as USymbol applied them before its
    rows became bitsets: (A, B, size, defect), or the text of the ValueError."""
    for side in (a, b):
        if any(y - x == 1 for x, y in zip(side, side[1:])):
            return f"consecutive entries in one row: {side}"
    if parity == 0:
        if 0 in b:
            return "the second row of a symplectic symbol excludes 0"
        if (len(a) + len(b)) % 2 == 0:
            return "a symplectic symbol has an odd number of entries"
    t, total, d = len(a) + len(b), sum(a) + sum(b), len(a) - len(b)
    if parity == 0:
        return a, b, 2 * total - t * (t - 1), d
    return a, b, 2 * total - ((t - 1) ** 2 - 1), abs(d)


def symbol_or_error(parity, a_bits, b_bits):
    try:
        sym = USymbol(parity, a_bits, b_bits)
    except ValueError as err:
        return str(err)
    return (*symbol_rows(sym), symbol_size(sym), sym.defect)


# increasing rows that break a rule of their own
BAD_ROWS = [(0, 1), (2, 4, 5), (8, 9), (3, 6, 7)]


@pytest.mark.parametrize("parity", [0, 1], ids=["sp", "o"])
def test_bitset_rows_follow_the_tuple_row_rules(parity):
    # every pair of spaced rows, and every pair with a row that breaks a rule
    rows = spaced_rows(10, 4) + BAD_ROWS
    built = 0
    for a in rows:
        for b in rows:
            want = tuple_row_rules(parity, a, b)
            assert symbol_or_error(parity, row_bits(a), row_bits(b)) == want, (a, b)
            built += not isinstance(want, str)
    assert built > 1000


@pytest.mark.parametrize("parity", [0, 1], ids=["sp", "o"])
def test_long_bitset_rows_read_back(parity):
    # rows of about 10**5 entries spread over 4 * 10**5: far past one machine
    # word, with an odd number of entries in all, each bitset written out as
    # its binary digits
    a = range(0, 4 * 10**5 + 1, 4)
    b = range(2, 4 * 10**5, 4)
    got = symbol_or_error(parity, int("1" + "0001" * 10**5, 2), int("0100" * 10**5, 2))
    assert got == tuple_row_rules(parity, tuple(a), tuple(b))
    assert got[:2] == (tuple(a), tuple(b))


def test_a_swapped_symbol_is_checked_as_the_constructor_checks():
    # negative controls: the common rows of a structure altered so that the
    # swapped rows break a rule; the symbol of every pair is validated
    structure = interval_structure(require_valid(SP6, Partition((4, 2))))
    trivial = (1, 1)
    sym = swapped_symbol(structure, trivial)
    assert symbol_rows(sym) == ((0, 4), (2,))
    row_a, row_b = structure.common
    for common, message in [
        ((row_a | 0b10, row_b), r"^consecutive entries in one row: \(0, 1, 4\)$"),
        ((row_a, row_b | 0b1), r"^the second row of a symplectic symbol excludes 0$"),
        ((row_a | 0b1000000, row_b), r"^a symplectic symbol has an odd number of entries$"),
    ]:
        with pytest.raises(ValueError, match=message):
            swapped_symbol(dataclasses.replace(structure, common=common), trivial)


@pytest.mark.parametrize("kind,parts,intervals,h,matched", [
    (SP6, (4, 2), ((2,), (4,)), (0,), (2, 4)),
    (SO9, (5, 3, 1), ((0,), (2,), (4,)), (), (1, 3, 5)),
    (SP2, (2,), ((3,),), (0, 1), (2,)),
])
def test_interval_structure_fixtures(kind, parts, intervals, h, matched):
    # each interval is the union of its split pair, and the margin is where
    # the two common rows differ
    st_ = interval_structure(require_valid(kind, Partition(parts)))
    assert tuple(entries(in_a | in_b) for in_a, in_b in st_.splits) == intervals
    assert entries(st_.common[0] ^ st_.common[1]) == h
    assert st_.parts == matched


@pytest.mark.parametrize("a, b, message", [
    ((0, 3), (2,), "(4,2): 1 intervals for 2 generator parts"),
    ((0, 2, 6), (3, 7), "(4,2): interval (2, 3) does not match multiplicity of 2"),
], ids=["count", "length"])
def test_interval_structure_checks_its_runs(monkeypatch, a, b, message):
    # negative controls: a base symbol whose runs, outside the margin {0},
    # are too few for the parts (2, 4), or of the wrong length
    monkeypatch.setattr(symbols, "distinguished_symbol",
                        lambda orbit: USymbol(0, row_bits(a), row_bits(b)))
    with pytest.raises(InternalCheckError) as err:
        interval_structure(require_valid(SP6, Partition((4, 2))))
    assert str(err.value) == message


def test_swapped_symbol_matches_the_set_algebra_on_every_pair():
    # the precomputed splits are read in the order of the signs, which run
    # over the generator parts as structure.parts does
    pairs = 0
    for kind in (GroupKind(Family.SP, 0), GroupKind(Family.SO_EVEN, 0), *classical_kinds(14)):
        for orbit in group_partitions(kind):
            structure = interval_structure(orbit)
            for signs in itertools.product((1, -1), repeat=len(structure.parts)):
                sym, p = swapped_symbol(structure, signs), orbit.partition
                assert symbol_rows(sym) == set_algebra_swapped_symbol(kind, p, signs), (kind, p, signs)
                pairs += 1
    assert pairs == 1120


def test_base_symbol_and_intervals_match_the_two_row_split_on_every_orbit():
    # the splits' unions are the maximal runs of A ^ B outside the margin, increasing
    padded = 0
    for kind in classical_kinds(22):
        for orbit in group_partitions(kind):
            p = orbit.partition
            padded += kind.is_symplectic and len(p.parts) % 2
            symbol = distinguished_symbol(orbit)
            assert symbol_rows(symbol) == staircase_split_symbol(kind, p), (kind, p)
            structure = interval_structure(orbit)
            assert structure.symbol == symbol
            expected = set_algebra_intervals(kind, p, symbol_rows(symbol))
            got = {
                "intervals": tuple(entries(in_a | in_b) for in_a, in_b in structure.splits),
                "parts": structure.parts,
                "h": entries(structure.common[0] ^ structure.common[1]),
                "common": tuple(set(entries(row)) for row in structure.common),
                "splits": tuple(tuple(set(entries(row)) for row in split)
                                for split in structure.splits),
            }
            assert got == expected, (kind, p)
    assert padded > 0  # symplectic partitions with an odd number of parts


def test_base_symbol_size_summed_off_the_rows_is_the_size_of_its_bitsets():
    # distinguished_symbol sums the size off the row lists of _base_rows and
    # compares it with kind.size; the balance condition read off the bitsets
    # of the symbol it returns gives the same size, on every orbit
    orbits = 0
    for kind in classical_kinds(22):
        for orbit in group_partitions(kind):
            row_a, row_b = symbols._base_rows(kind, orbit.partition)
            sym = distinguished_symbol(orbit)
            assert symbol_rows(sym) == (tuple(row_a), tuple(row_b))
            assert symbol_size(sym) == kind.size, (kind, orbit.partition)
            orbits += 1
    assert orbits > 1000


@pytest.mark.parametrize("kind, parts, message", [
    (SP6, (4, 2), "base symbol of (4,2) has size 10, expected 6"),
    (SO9, (5, 3, 1), "base symbol of (5,3,1) has size 13, expected 9"),
], ids=["sp", "o"])
def test_base_symbol_size_is_checked(monkeypatch, kind, parts, message):
    # negative control: the top entry of row A moved up by 2 keeps the rows
    # spaced, so the symbol is built, and only the size check sees it
    base_rows = symbols._base_rows

    def shifted(kind, p):
        row_a, row_b = base_rows(kind, p)
        return row_a[:-1] + [row_a[-1] + 2], row_b

    monkeypatch.setattr(symbols, "_base_rows", shifted)
    with pytest.raises(InternalCheckError) as err:
        distinguished_symbol(require_valid(kind, Partition(parts)))
    assert str(err.value) == message


def test_interval_lengths_match_multiplicities():
    for kind in (GroupKind(Family.SP, 10), GroupKind(Family.SO_ODD, 9),
                 GroupKind(Family.SO_EVEN, 10)):
        for orbit in group_partitions(kind):
            st_ = interval_structure(orbit)
            assert len(st_.splits) == len(st_.parts)
            for (in_a, in_b), q in zip(st_.splits, st_.parts):
                assert (in_a | in_b).bit_count() == orbit.partition.parts.count(q)


@pytest.mark.parametrize("kind,parts,signs,a,b,dft", [
    (SP6, (4, 2), (-1, 1), (0, 2, 4), (), 3),
    (SP2, (2,), (-1,), (0,), (1, 3), -1),
    (SO9, (5, 3, 1), (1, -1, 1), (0, 2, 4), (), 3),
])
def test_symbol_from_character_fixtures(kind, parts, signs, a, b, dft):
    sym = pair_symbol(kind, Partition(parts), signs)
    assert symbol_rows(sym) == (a, b)
    assert sym.defect == dft


def test_symbol_from_character_matches_closed_form():
    for kind in classical_kinds(14):
        for p, signs in distinguished_pairs(kind):
            got = pair_symbol(kind, p, signs)
            want = closed_form_symbol(kind, p, signs)
            if kind.is_symplectic:
                assert symbol_rows(got) == symbol_rows(want)
            else:
                assert set(symbol_rows(got)) == set(symbol_rows(want))


def test_defect_formula_fixtures():
    assert pair_defect(SP6, Partition((4, 2)), (-1, 1)) == 3
    assert pair_defect(SP2, Partition((2,)), (-1,)) == -1
    assert pair_defect(SO9, Partition((5, 3, 1)), (-1, -1, 1)) == 1


def test_a_group_without_symbols_is_refused():
    with pytest.raises(InvalidPartition, match=r"^GL_3 has no u-symbol combinatorics$"):
        pair_symbol(GroupKind(Family.GL, 3), Partition((2, 1)), ())


def test_distinguished_symbol_takes_the_generator_parity():
    # 0 (ordered) on Sp, 1 (unordered) on SO and on O, for every orbit
    kinds = list(classical_kinds(12)) + [GroupKind(Family.O_ODD, 9), GroupKind(Family.O_EVEN, 8)]
    checked = 0
    for kind in kinds:
        for orbit in group_partitions(kind):
            assert distinguished_symbol(orbit).parity == kind.generator_parity, orbit
            checked += 1
    assert checked > 200


def test_defect_formula_requires_distinguished():
    with pytest.raises(InvalidPartition):
        pair_defect(GroupKind(Family.SP, 4), Partition((2, 2)), (1,))


@pytest.mark.parametrize("signs", [(1, -1, 1, -1), (1, 1, 1), (1,)],
                         ids=["two-extra", "one-extra", "one-missing"])
def test_character_must_be_given_on_exactly_the_generators(signs):
    # neither the springer map nor either route takes a sign vector of
    # another length than the parts, and all three say so alike
    message = f"{len(signs)} signs for the 2 parts (2, 4)"
    with pytest.raises(DomainMismatch) as err:
        springer_datum(SP6, Partition((4, 2)), signs)
    assert str(err.value) == message
    with pytest.raises(DomainMismatch) as formula_err:
        pair_defect(SP6, Partition((4, 2)), signs)
    assert str(formula_err.value) == message
    with pytest.raises(DomainMismatch) as symbol_err:
        pair_symbol(SP6, Partition((4, 2)), signs)
    assert str(symbol_err.value) == message


def test_defect_formula_equals_symbol_defect_everywhere():
    for kind in classical_kinds(20):
        for p, signs in distinguished_pairs(kind):
            assert pair_defect(kind, p, signs) == pair_symbol(kind, p, signs).defect


def test_defect_parities():
    for kind in classical_kinds(16):
        for orbit in group_partitions(kind):
            for signs in characters_of(component_group(orbit)):
                d = swapped_symbol(interval_structure(orbit), signs).defect
                if kind.is_symplectic:
                    assert d % 2 == 1
                else:
                    assert d % 2 == kind.size % 2


def test_base_symbol_satisfies_membership_conditions():
    # both defining conditions, for every admissible partition
    for kind in (GroupKind(Family.SP, 12), GroupKind(Family.SO_ODD, 11),
                 GroupKind(Family.SO_EVEN, 12)):
        for orbit in group_partitions(kind):
            sym = distinguished_symbol(orbit)
            assert symbol_size(sym) == kind.size  # encodes the balance condition
            rows = symbol_rows(sym)
            for row in rows:
                assert all(y - x > 1 for x, y in zip(row, row[1:]))
            if kind.is_symplectic:
                assert (len(rows[0]) + len(rows[1])) % 2 == 1


def test_trivial_character_symbol_is_similar_to_base():
    for kind in (GroupKind(Family.SP, 10), GroupKind(Family.SO_ODD, 9)):
        for orbit in group_partitions(kind):
            p = orbit.partition
            trivial = (1,) * len(p.distinct_parts_of_parity(kind.generator_parity))
            left_a, left_b = map(set, symbol_rows(swapped_symbol(interval_structure(orbit), trivial)))
            right_a, right_b = map(set, symbol_rows(distinguished_symbol(orbit)))
            assert left_a | left_b == right_a | right_b
            assert left_a & left_b == right_a & right_b


def test_two_lifts_same_unordered_symbol_class():
    # flipping every sign swaps the two rows of an orthogonal symbol
    for p, signs in distinguished_pairs(SO9):
        left = pair_symbol(SO9, p, signs)
        right = pair_symbol(SO9, p, tuple(-s for s in signs))
        assert set(symbol_rows(left)) == set(symbol_rows(right))
        assert left.defect == right.defect


def shifted(sym: USymbol) -> USymbol:
    """One step of the shift (A, B) -> ({0} u (A+2), {1} u (B+2)), seed 0 twice if unordered."""
    seed_b = 1 if sym.parity == 0 else 0
    return USymbol(sym.parity, sym.a_bits << 2 | 1, sym.b_bits << 2 | 1 << seed_b)


def test_shift_keeps_size_and_defect_of_a_symplectic_symbol():
    sym = USymbol(0, row_bits((0, 4)), row_bits((2,)))
    lifted = shifted(sym)
    assert symbol_rows(lifted) == ((0, 2, 6), (1, 4))
    assert lifted.defect == sym.defect
    assert symbol_size(lifted) == symbol_size(sym)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=8), min_size=0, max_size=5),
       st.integers(min_value=0, max_value=3))
def test_shift_equivalence_preserves_size_and_defect(seed, shifts):
    # build a spaced-out orthogonal symbol from arbitrary seeds
    row_a = {2 * x for x in seed}
    row_b = {2 * x + 1 for x in seed}
    sym = USymbol(1, row_bits(row_a), row_bits(row_b))
    lifted = sym
    for _ in range(shifts):
        lifted = shifted(lifted)
    assert symbol_size(lifted) == symbol_size(sym)
    assert lifted.defect == sym.defect
