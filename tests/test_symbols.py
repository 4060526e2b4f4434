import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pair_defect, pair_symbol, set_algebra_swapped_symbol

from cusp_atlas.census import classical_kinds, distinguished_pairs, group_partitions
from cusp_atlas.errors import DomainMismatch, InvalidPartition
from cusp_atlas.orbits import (
    Family,
    GroupKind,
    Partition,
    SignCharacter,
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
        return USymbol(0, a, b)
    spots = {i: (parts[i - 1] - 3) // 2 + i for i in range(1, k + 1)}
    a = {spots[i] for i in range(1, k + 1) if (-1) ** (i + 1) * signs[i - 1] == 1}
    b = {spots[i] for i in range(1, k + 1) if (-1) ** (i + 1) * signs[i - 1] == -1}
    return USymbol(1, a, b)


# base symbols, hand-executed from the construction
@pytest.mark.parametrize("kind,parts,a,b", [
    (SP6, (4, 2), (0, 4), (2,)),
    (SP2, (2,), (0, 3), (1,)),
    (SO9, (5, 3, 1), (0, 4), (2,)),
])
def test_distinguished_symbol_fixtures(kind, parts, a, b):
    sym = distinguished_symbol(require_valid(kind, Partition(parts)))
    assert (sym.a, sym.b) == (a, b)
    assert sym.size == kind.size


def test_symbol_rows_refuse_entries_that_are_not_integers():
    with pytest.raises(TypeError):
        USymbol(1, (0, 2.9), (1,))
    with pytest.raises(TypeError):
        USymbol(0, ("0",), ())
    assert USymbol(1, (2, 0), (1,)).a == (0, 2)


def test_symbol_rows_refuse_a_bool_entry():
    for a, b in (((True,), ()), ((0,), (False, 2))):
        with pytest.raises(TypeError, match=r"^expected an integer, got (True|False)$"):
            USymbol(1, a, b)


def test_symbol_invariants_enforced():
    with pytest.raises(ValueError):
        USymbol(0, (0, 1), (2,))     # consecutive entries
    with pytest.raises(ValueError):
        USymbol(0, (2,), (0,))       # 0 in the second row
    with pytest.raises(ValueError):
        USymbol(0, (0, 2), (4, 6))   # even entry count
    with pytest.raises(ValueError, match=r"^symbol entries must be nonnegative: \(-2, 0\)$"):
        USymbol(1, (0, -2), (1,))
    with pytest.raises(ValueError, match=r"^symbol entries must be nonnegative: \(-1, 3\)$"):
        USymbol(0, (0,), (3, -1))
    with pytest.raises(ValueError, match=r"^consecutive entries in one row: \(2, 4, 5\)$"):
        USymbol(1, (0,), (5, 2, 4))


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
                sym = USymbol(parity, a, b)
            except ValueError:
                continue
            built += 1
            d = len(a) - len(b)
            if parity == 0:
                assert sym.size >= d * (d - 1) >= 0 and sym.size % 2 == 0, sym
            else:
                assert sym.size >= d * d, sym
    assert built > 1000


@pytest.mark.parametrize("parity", [2, -1, None, "0", 0.5])
def test_symbol_parity_is_0_or_1(parity):
    with pytest.raises(ValueError, match=r"^symbol parity must be 0 \(ordered\) or 1 \(unordered\), got "):
        USymbol(parity, (0, 2), (5,))


def tuple_row_rules(parity, a, b):
    """The row rules on sorted tuples, as USymbol applied them before its rows
    became bitsets: (A, B, size, defect), or the text of the ValueError."""
    a, b = tuple(sorted(set(a))), tuple(sorted(set(b)))
    for side in (a, b):
        if side and side[0] < 0:
            return f"symbol entries must be nonnegative: {side}"
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


def symbol_or_error(parity, a, b):
    try:
        sym = USymbol(parity, a, b)
    except ValueError as err:
        return str(err)
    return sym.a, sym.b, sym.size, sym.defect


# rows that break a rule of their own, given out of order or with repeats
BAD_ROWS = [(0, -2), (3, -1), (5, 2, 4), (0, 1), (9, 8, 8), (-3, 6, 7)]


@pytest.mark.parametrize("parity", [0, 1], ids=["sp", "o"])
def test_bitset_rows_follow_the_tuple_row_rules(parity):
    # every pair of spaced rows, and every pair with a row that breaks a rule,
    # the second row given in decreasing order
    rows = spaced_rows(10, 4) + BAD_ROWS
    built = 0
    for a in rows:
        for b in rows:
            want = tuple_row_rules(parity, a, b)
            assert symbol_or_error(parity, a, b[::-1]) == want, (a, b)
            built += not isinstance(want, str)
    assert built > 1000


@pytest.mark.parametrize("parity", [0, 1], ids=["sp", "o"])
def test_long_bitset_rows_read_back(parity):
    # rows of about 10**5 entries spread over 4 * 10**5: far past one machine
    # word, with an odd number of entries in all
    a = range(0, 4 * 10**5 + 1, 4)
    b = range(2, 4 * 10**5, 4)
    got = symbol_or_error(parity, [*a, 0, 4], b)
    assert got == tuple_row_rules(parity, a, b)
    assert got[:2] == (tuple(a), tuple(b))


def test_a_swapped_symbol_is_checked_as_the_constructor_checks():
    # negative controls: the common rows of a structure altered so that the
    # swapped rows break a rule; the symbol of every pair is validated
    structure = interval_structure(require_valid(SP6, Partition((4, 2))))
    trivial = (1, 1)
    sym = swapped_symbol(structure, trivial)
    assert (sym.a, sym.b) == ((0, 4), (2,))
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
    st_ = interval_structure(require_valid(kind, Partition(parts)))
    assert st_.intervals == intervals
    assert st_.h == h
    assert st_.parts == matched


def test_swapped_symbol_matches_the_set_algebra_on_every_pair():
    # the precomputed splits are read in the order of the signs, which run
    # over the generator parts as structure.parts does
    pairs = 0
    for kind in (GroupKind(Family.SP, 0), GroupKind(Family.SO_EVEN, 0), *classical_kinds(14)):
        for orbit in group_partitions(kind):
            structure = interval_structure(orbit)
            for signs in itertools.product((1, -1), repeat=len(structure.parts)):
                assert swapped_symbol(structure, signs) == \
                    set_algebra_swapped_symbol(structure, signs), (kind, orbit.partition, signs)
                pairs += 1
    assert pairs == 1120


def test_interval_lengths_match_multiplicities():
    for kind in (GroupKind(Family.SP, 10), GroupKind(Family.SO_ODD, 9),
                 GroupKind(Family.SO_EVEN, 10)):
        for orbit in group_partitions(kind):
            st_ = interval_structure(orbit)
            for run, q in zip(st_.intervals, st_.parts):
                assert len(run) == orbit.partition.parts.count(q)


@pytest.mark.parametrize("kind,parts,signs,a,b,dft", [
    (SP6, (4, 2), (-1, 1), (0, 2, 4), (), 3),
    (SP2, (2,), (-1,), (0,), (1, 3), -1),
    (SO9, (5, 3, 1), (1, -1, 1), (0, 2, 4), (), 3),
])
def test_symbol_from_character_fixtures(kind, parts, signs, a, b, dft):
    sym = pair_symbol(kind, Partition(parts), signs)
    assert (sym.a, sym.b) == (a, b)
    assert sym.defect == dft


def test_symbol_from_character_matches_closed_form():
    for kind in classical_kinds(14):
        for p, signs in distinguished_pairs(kind):
            got = pair_symbol(kind, p, signs)
            want = closed_form_symbol(kind, p, signs)
            if kind.is_symplectic:
                assert (got.a, got.b) == (want.a, want.b)
            else:
                assert {got.a, got.b} == {want.a, want.b}


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


@pytest.mark.parametrize("signs", [{2: 1, 4: -1, 6: 1, 8: -1}, {2: 1, 4: 1, 6: 1}, {2: 1}],
                         ids=["two-extra", "one-extra", "one-missing"])
def test_character_must_be_given_on_exactly_the_generators(signs):
    # the springer map rejects these characters where it reads them, and
    # neither route takes a sign vector of another length than the parts
    eta = SignCharacter(signs)
    with pytest.raises(DomainMismatch) as err:
        springer_datum(SP6, Partition((4, 2)), eta)
    assert str(err.value) == f"character domain {eta.keys()} does not match parts of (4,2)"
    values = tuple(s for _, s in eta.values)
    message = f"{len(values)} signs for the 2 parts (2, 4)"
    with pytest.raises(DomainMismatch) as formula_err:
        pair_defect(SP6, Partition((4, 2)), values)
    assert str(formula_err.value) == message
    with pytest.raises(DomainMismatch) as symbol_err:
        pair_symbol(SP6, Partition((4, 2)), values)
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
            assert sym.size == kind.size  # encodes the balance condition
            for row in (sym.a, sym.b):
                assert all(y - x > 1 for x, y in zip(row, row[1:]))
            if kind.is_symplectic:
                assert (len(sym.a) + len(sym.b)) % 2 == 1


def test_trivial_character_symbol_is_similar_to_base():
    for kind in (GroupKind(Family.SP, 10), GroupKind(Family.SO_ODD, 9)):
        for orbit in group_partitions(kind):
            p = orbit.partition
            trivial = (1,) * len(p.distinct_parts_of_parity(kind.generator_parity))
            left = swapped_symbol(interval_structure(orbit), trivial)
            right = distinguished_symbol(orbit)
            assert set(left.a) | set(left.b) == set(right.a) | set(right.b)
            assert set(left.a) & set(left.b) == set(right.a) & set(right.b)


def test_two_lifts_same_unordered_symbol_class():
    # flipping every sign swaps the two rows of an orthogonal symbol
    for p, signs in distinguished_pairs(SO9):
        left = pair_symbol(SO9, p, signs)
        right = pair_symbol(SO9, p, tuple(-s for s in signs))
        assert {left.a, left.b} == {right.a, right.b}
        assert left.defect == right.defect


def shifted(sym: USymbol) -> USymbol:
    """One step of the shift (A, B) -> ({0} u (A+2), {1} u (B+2)), seed 0 twice if unordered."""
    seed_b = 1 if sym.parity == 0 else 0
    return USymbol(sym.parity, (0,) + tuple(x + 2 for x in sym.a), (seed_b,) + tuple(x + 2 for x in sym.b))


def test_shift_keeps_size_and_defect_of_a_symplectic_symbol():
    sym = USymbol(0, (0, 4), (2,))
    lifted = shifted(sym)
    assert (lifted.a, lifted.b) == ((0, 2, 6), (1, 4))
    assert lifted.defect == sym.defect
    assert lifted.size == sym.size


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=8), min_size=0, max_size=5),
       st.integers(min_value=0, max_value=3))
def test_shift_equivalence_preserves_size_and_defect(seed, shifts):
    # build a spaced-out orthogonal symbol from arbitrary seeds
    row_a = tuple(sorted({2 * x for x in seed}))
    row_b = tuple(sorted({2 * x + 1 for x in seed}))
    sym = USymbol(1, row_a, row_b)
    lifted = sym
    for _ in range(shifts):
        lifted = shifted(lifted)
    assert lifted.size == sym.size
    assert lifted.defect == sym.defect

