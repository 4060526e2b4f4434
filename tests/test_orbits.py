import timeit

import pytest

from cusp_atlas.errors import DomainMismatch, InvalidPartition
from cusp_atlas.orbits import (
    Family,
    GroupKind,
    Partition,
    Relation,
    SignCharacter,
    ValidOrbit,
    as_int,
    characters_of,
    check_aligned,
    component_group,
    cuspidal_pair,
    is_degenerate,
    is_distinguished,
    orbit_count,
    require_valid,
    signs_on,
    staircase,
    staircase_character,
    staircase_d,
    validate_partition,
)
from cusp_atlas.census import group_partitions

SP4 = GroupKind(Family.SP, 4)
SP6 = GroupKind(Family.SP, 6)
SO9 = GroupKind(Family.SO_ODD, 9)
SO8 = GroupKind(Family.SO_EVEN, 8)
GL3 = GroupKind(Family.GL, 3)


def test_group_kind_parity_rules():
    with pytest.raises(ValueError):
        GroupKind(Family.SP, 5)
    with pytest.raises(ValueError):
        GroupKind(Family.SO_ODD, 4)
    with pytest.raises(ValueError):
        GroupKind(Family.O_EVEN, 7)
    assert GroupKind(Family.SO_ODD, 9).size == 9


def test_partition_is_stored_decreasing():
    p = Partition((1, 3, 2))
    assert p.parts == (3, 2, 1)
    assert p.increasing() == (1, 2, 3)
    with pytest.raises(ValueError):
        Partition((0, 1))


@pytest.mark.parametrize("kind,parts,ok", [
    (SP4, (2, 2), True),
    (SP4, (3, 1), False),       # odd part with odd multiplicity
    (GL3, (3,), True),
    (SO9, (5, 3, 1), True),
    (SO8, (4, 3, 1), False),    # even part with odd multiplicity
    (SO8, (3, 3, 1, 1), True),
])
def test_validate_partition(kind, parts, ok):
    assert bool(validate_partition(kind, Partition(parts))) is ok


def test_validation_time_does_not_grow_with_the_distinct_parts():
    # multiplicities are counted in one pass over the parts, so of two
    # partitions of one length the one with 181 distinct odd parts validates
    # about as fast as the one with two; a scan of the parts per distinct
    # part makes it over 30x slower, far outside the 5x allowed for noise
    length = 4000
    pairs = [q for q in range(3, 363, 2) for _ in (0, 1)]
    many = Partition(pairs + [1] * (length - len(pairs)))
    few = Partition([3, 3] + [1] * (length - 2))
    assert len(many) == len(few) == length

    def best(p):
        kind = GroupKind(Family.SP, p.total)
        assert validate_partition(kind, p)
        return min(timeit.repeat(lambda: validate_partition(kind, p), number=5, repeat=7))

    assert best(many) < 5 * best(few)


def test_validate_reports_size_mismatch():
    verdict = validate_partition(SP4, Partition((2, 2, 2)))
    assert not verdict
    assert any("sum" in p for p in verdict.problems)


def test_orbit_count():
    assert orbit_count(require_valid(GroupKind(Family.SO_EVEN, 8), Partition((2, 2, 2, 2)))) == 2
    assert orbit_count(require_valid(SO8, Partition((3, 3, 1, 1)))) == 1
    assert orbit_count(require_valid(SP4, Partition((2, 2)))) == 1
    # the full orthogonal group fuses the two classes
    assert orbit_count(require_valid(GroupKind(Family.O_EVEN, 8), Partition((2, 2, 2, 2)))) == 1


def test_component_groups():
    desc = component_group(require_valid(SP6, Partition((4, 2))))
    assert desc.generators == (2, 4)
    assert desc.relation is Relation.FREE and desc.order == 4
    desc = component_group(require_valid(SO9, Partition((5, 3, 1))))
    assert desc.generators == (1, 3, 5)
    assert desc.relation is Relation.QUOTIENT_BY_FULL_PRODUCT and desc.order == 4
    desc = component_group(require_valid(GroupKind(Family.O_ODD, 9), Partition((5, 3, 1))))
    assert desc.relation is Relation.FREE and desc.order == 8
    assert component_group(require_valid(GroupKind(Family.GL, 5), Partition((5,)))).order == 1


def test_component_group_orders_across_all_partitions():
    for kind in (GroupKind(Family.SP, 10), GroupKind(Family.SO_ODD, 9),
                 GroupKind(Family.SO_EVEN, 10)):
        for orbit in group_partitions(kind):
            desc = component_group(orbit)
            s = len(orbit.partition.distinct_parts_of_parity(kind.generator_parity))
            expected = 2 ** max(0, s - 1) if kind.is_special_orthogonal else 2 ** s
            assert desc.order == expected
            assert len(characters_of(desc)) == desc.order


def test_is_distinguished():
    assert is_distinguished(require_valid(SP6, Partition((4, 2))))
    assert is_distinguished(require_valid(SO9, Partition((5, 3, 1))))
    assert not is_distinguished(require_valid(SP4, Partition((2, 2))))
    assert not is_distinguished(require_valid(GroupKind(Family.GL, 3), Partition((3,))))


def test_cuspidal_pair_symplectic():
    pair = cuspidal_pair(SP6)
    assert pair.partition == Partition((4, 2))
    assert pair.character(2) == -1 and pair.character(4) == 1
    assert cuspidal_pair(SP4) is None


def test_cuspidal_pair_orthogonal():
    pair = cuspidal_pair(SO9)
    assert pair.partition == Partition((5, 3, 1))
    # both extensions restrict to -1 on each product of consecutive generators
    for lift in (pair.character, pair.minus_lift):
        assert lift.keys() == (1, 3, 5)
        assert lift(1) * lift(3) == -1
        assert lift(3) * lift(5) == -1
    assert pair.character(1) == 1 and pair.minus_lift(1) == -1
    assert cuspidal_pair(GroupKind(Family.SO_ODD, 7)) is None


@pytest.mark.parametrize("parity", (0, 1))
def test_staircase_and_its_size_parameter(parity):
    totals = set()
    for d in range(61):
        stairs = staircase(parity, d)
        assert stairs.increasing() == tuple(2 * i - parity for i in range(1, d + 1))
        assert staircase_d(parity, stairs.total) == d
        totals.add(stairs.total)
    for n in range(501):
        if n not in totals:
            assert staircase_d(parity, n) is None, n


@pytest.mark.parametrize("d", range(11))
def test_staircase_character_is_the_closed_form_of_each_side(d):
    # symplectic: (-1)^i on z_{2i}; the two orthogonal lifts: +-(-1)^(i+1) on
    # z_{2i-1}; for i = 1, ..., d, and no value at all for d = 0
    assert staircase_character(0, d, -1).as_dict() == {2 * i: (-1) ** i for i in range(1, d + 1)}
    for first in (1, -1):
        assert staircase_character(1, d, first).as_dict() == {
            2 * i - 1: first * (-1) ** (i + 1) for i in range(1, d + 1)}
        for parity in (0, 1):
            assert staircase_character(parity, d, first).keys() == staircase(parity, d).increasing()


def test_cuspidal_pair_gl():
    assert cuspidal_pair(GroupKind(Family.GL, 1)).partition == Partition((1,))
    assert cuspidal_pair(GL3) is None


def test_cuspidal_pair_is_valid_and_distinguished():
    for kind in (SP6, GroupKind(Family.SP, 12), SO9, GroupKind(Family.SO_EVEN, 4),
                 GroupKind(Family.O_ODD, 9)):
        pair = cuspidal_pair(kind)
        assert validate_partition(kind, pair.partition)
        assert is_distinguished(require_valid(kind, pair.partition))


def test_degenerate_partitions_have_no_generators():
    # splitting classes carry a connected centralizer image
    for orbit in group_partitions(GroupKind(Family.SO_EVEN, 8)):
        if orbit_count(orbit) == 2:
            assert is_degenerate(orbit.partition)
            assert component_group(orbit).generators == ()


def test_sign_character_helpers():
    eta = SignCharacter({2: -1, 4: 1})
    assert eta(2) == -1
    assert eta.product() == -1
    assert eta.flip_where(lambda q: True).as_dict() == {2: 1, 4: -1}
    assert eta.keys() == (2, 4)
    with pytest.raises(Exception):
        eta(6)
    with pytest.raises(ValueError):
        SignCharacter({2: 0})


def test_sign_character_refuses_a_sign_that_is_not_the_int_1_or_minus_1():
    for sign in (True, False, 1.0, -1.0, 0, 2):
        with pytest.raises(ValueError, match=r"^character value at 2 must be \+1 or -1, got "):
            SignCharacter({2: sign})
    assert SignCharacter({2: 1, 4: -1}).values == ((2, 1), (4, -1))


def test_partition_refuses_parts_that_are_not_integers():
    for parts in ((2.5, 1), ("4",), (2.0,)):
        with pytest.raises(TypeError):
            Partition(parts)
    assert Partition([1, 3, 2]).parts == (3, 2, 1)


def test_partition_refuses_a_bool_part():
    for parts in ((True, 2), (2, False)):
        with pytest.raises(TypeError, match=r"^expected an integer, got (True|False)$"):
            Partition(parts)


def test_group_kind_refuses_a_size_that_is_not_an_integer():
    for size in (True, 1.0, "1"):
        with pytest.raises(TypeError):
            GroupKind(Family.SO_ODD, size)
    with pytest.raises(TypeError, match=r"^expected an integer, got True$"):
        GroupKind(Family.SO_ODD, True)
    assert str(GroupKind(Family.SO_ODD, 1)) == "SOodd_1"


def test_as_int_reads_an_integer_and_refuses_a_bool_or_a_non_integer():
    assert as_int(7) == 7 and type(as_int(7)) is int
    for value in (True, False, 1.0, 1.5, "1", None):
        with pytest.raises(TypeError):
            as_int(value)


def test_characters_of_gives_the_signs_aligned_with_the_generators():
    free = component_group(require_valid(SP6, Partition((4, 2))))
    assert free.generators == (2, 4)
    assert characters_of(free) == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    # the quotient: one sign vector per flip class, +1 on the smallest generator
    quotient = component_group(require_valid(GroupKind(Family.SO_ODD, 9), Partition((5, 3, 1))))
    assert quotient.generators == (1, 3, 5)
    assert characters_of(quotient) == [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
    assert characters_of(component_group(require_valid(SP6, Partition((1,) * 6)))) == [()]


@pytest.mark.parametrize("parts, signs, message", [
    ((2, 4), (1,), r"^1 signs for the 2 parts \(2, 4\)$"),
    ((), (1,), r"^1 signs for the 0 parts \(\)$"),
    ((2, 4), (1, -1, 1), r"^3 signs for the 2 parts \(2, 4\)$"),
], ids=["missing", "no-parts", "extra"])
def test_check_aligned_refuses_unequal_lengths(parts, signs, message):
    with pytest.raises(DomainMismatch, match=message):
        check_aligned(parts, signs)
    assert check_aligned((2, 4), (1, -1)) is None


def test_check_aligned_leaves_the_part_order_to_a_caller_that_has_it():
    # a caller whose parts increase by construction has only the count checked
    assert check_aligned((4, 2), (1, -1), increasing=True) is None
    with pytest.raises(DomainMismatch, match=r"^1 signs for the 2 parts \(4, 2\)$"):
        check_aligned((4, 2), (1,), increasing=True)


@pytest.mark.parametrize("parts", [(4, 2), (2, 2), (1, 3, 3)], ids=["decreasing", "equal", "repeat"])
def test_check_aligned_refuses_parts_that_do_not_strictly_increase(parts):
    with pytest.raises(InvalidPartition, match=r"^parts \(.*\) do not strictly increase$"):
        check_aligned(parts, (1,) * len(parts))


def test_signs_on_reads_the_signs_in_key_order():
    eta = SignCharacter({2: -1, 4: 1, 6: 1})
    assert signs_on(eta, (2, 4, 6), "parts", "p") == (-1, 1, 1)
    assert signs_on(eta, (6, 4, 2), "parts", "p") == (1, 1, -1)
    assert signs_on(eta, [4, 6, 2], "parts", "p") == (1, 1, -1)
    # a repeated key gets its sign at each place
    assert signs_on(eta, (4, 2, 4, 6, 2), "parts", "p") == (1, -1, 1, 1, -1)
    assert signs_on(SignCharacter(), (), "parts", "p") == ()
    blocks = SignCharacter({("p", 2): 1, ("q", 1): -1})
    assert signs_on(blocks, (("q", 1), ("p", 2)), "blocks", "b") == (-1, 1)


@pytest.mark.parametrize("values, keys, domain", [
    ({2: 1}, (2, 4), "(2,)"),                           # a missing generator
    ({2: 1}, (4, 2, 2), "(2,)"),                        # missing, keys repeated
    ({2: 1, 4: 1, 6: -1}, (2, 4), "(2, 4, 6)"),         # an extra generator
    ({}, (2, 4), "()"),
    ({2: 1, 4: 1}, (), "(2, 4)"),
    ({1: 1}, (2,), "(1,)"),                             # as many keys, a wrong one
    ({2: 1, 6: 1}, (2, 4), "(2, 6)"),
], ids=["missing", "missing-repeated", "extra", "empty-character", "no-keys",
        "wrong-key", "wrong-key-of-two"])
def test_signs_on_raises_on_a_missing_and_an_extra_generator(values, keys, domain):
    with pytest.raises(DomainMismatch) as err:
        signs_on(SignCharacter(values), keys, "parts", Partition((4, 2)))
    assert str(err.value) == f"character domain {domain} does not match parts of (4,2)"


def test_require_valid_raises():
    with pytest.raises(InvalidPartition, match=r"^\(3,1\) is not a Sp_4 partition: "
                       r"odd part 1 has odd multiplicity 1; odd part 3 has odd multiplicity 1$"):
        require_valid(SP4, Partition((3, 1)))
    with pytest.raises(InvalidPartition, match=r"^\(4,2,2\) is not a SOeven_8 partition: "
                       r"even part 4 has odd multiplicity 1$"):
        require_valid(SO8, Partition((4, 2, 2)))


def test_valid_orbit_is_made_only_by_validation():
    with pytest.raises(TypeError):
        ValidOrbit(SP4, Partition((3, 1)))
    assert validate_partition(SP4, Partition((3, 1))).orbit is None
    orbit = validate_partition(SP4, Partition((2, 2))).orbit
    assert (orbit.kind, orbit.partition) == (SP4, Partition((2, 2)))
    assert require_valid(SP4, Partition((2, 2))) == orbit
