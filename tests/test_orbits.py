import collections
import dataclasses
import itertools
import timeit
import types

import pytest

from conftest import recursive_partitions

from cusp_atlas.errors import CuspAtlasError, DomainMismatch, InvalidParameter, InvalidPartition
from cusp_atlas.orbits import (
    ComponentGroupDescriptor,
    Family,
    GroupKind,
    Partition,
    Relation,
    SignCharacter,
    ValidOrbit,
    as_int,
    characters_of,
    check_aligned,
    classical_kind,
    component_group,
    cuspidal_pair,
    is_degenerate,
    is_distinguished,
    orbit_count,
    require_valid,
    signs_on,
    staircase,
    staircase_d,
    staircase_pairs,
    staircase_signs,
    validate_partition,
)
from cusp_atlas.census import group_partitions, unipotent_census
from cusp_atlas.lparams import DiscreteParameter, IrrLabel, SelfDualType, sgroup_factors

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


def test_group_kind_reads_its_family_through_family():
    # a member passes as it is and a member's value becomes that member, so
    # every family test (all of them `is` tests) sees the member
    for value in (Family.SO_EVEN, "SOeven"):
        kind = GroupKind(value, 4)
        assert kind.family is Family.SO_EVEN and str(kind) == "SOeven_4"
        assert orbit_count(require_valid(kind, Partition((2, 2)))) == 2
    assert unipotent_census(GroupKind("SOeven", 8)) == unipotent_census(SO8)
    assert unipotent_census(GroupKind("SOeven", 8))["pairs"] == 18
    u = IrrLabel("u", 1, SelfDualType.ORTHOGONAL)
    param = DiscreteParameter(GroupKind("SOodd", 3), [(u, 3)])
    assert sgroup_factors(param, SignCharacter({("u", 3): -1})) is True
    for value in ("Xx", "sp", None, 3, [1]):
        with pytest.raises(ValueError) as err:
            GroupKind(value, 4)
        assert str(err.value) == (f"group family {value!r} is not one of "
                                  "Sp, SOodd, SOeven, Oodd, Oeven, GL")


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
    assert pair.characters == ((-1, 1),)
    assert cuspidal_pair(SP4) is None


def test_cuspidal_pair_orthogonal():
    pair = cuspidal_pair(SO9)
    assert pair.partition == Partition((5, 3, 1))
    # both extensions, as signs on the parts 1, 3, 5, restrict to -1 on each
    # product of consecutive generators
    for signs in pair.characters:
        assert len(signs) == 3
        assert signs[0] * signs[1] == -1
        assert signs[1] * signs[2] == -1
    assert [signs[0] for signs in pair.characters] == [1, -1]
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
    # z_{2i-1}; for i = 1, ..., d, and no sign at all for d = 0
    assert staircase_pairs(0, d, -1) == tuple((2 * i, (-1) ** i) for i in range(1, d + 1))
    for first in (1, -1):
        assert staircase_pairs(1, d, first) == tuple(
            (2 * i - 1, first * (-1) ** (i + 1)) for i in range(1, d + 1))
        for parity in (0, 1):
            pairs = staircase_pairs(parity, d, first)
            assert tuple(q for q, _ in pairs) == staircase(parity, d).increasing()
            assert tuple(s for _, s in pairs) == staircase_signs(d, first)


def test_classical_kind_and_staircase_signs_refuse_out_of_range_arguments():
    # once these returned SOeven_4, () and (5, -5, 5) with no error
    assert issubclass(InvalidParameter, CuspAtlasError) and issubclass(InvalidParameter, ValueError)
    with pytest.raises(InvalidParameter, match=r"^a generator parity is 0 or 1, got 2$"):
        classical_kind(2, 4)
    for d, first in ((-1, 1), (3, 5)):
        with pytest.raises(InvalidParameter) as err:
            staircase_signs(d, first)
        assert str(err.value) == ("a staircase has d >= 0 parts and a first sign of +1 or -1, "
                                  f"got d = {d} and first = {first}")


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
            assert is_degenerate(orbit)
            assert component_group(orbit).generators == ()


def test_sign_character_helpers():
    eta = SignCharacter({2: -1, 4: 1})
    assert eta.values == ((2, -1), (4, 1))
    assert eta.keys() == (2, 4)
    assert str(eta) == "(-,+)" and SignCharacter({}).keys() == ()
    with pytest.raises(DomainMismatch):
        signs_on(eta, (2, 4, 6), "parts", "p")
    with pytest.raises(ValueError):
        SignCharacter({2: 0})


def test_sign_character_refuses_a_generator_given_twice():
    # a dict names each generator once; pairs, the only form that could
    # repeat one, are refused whatever they hold
    for pairs, name in (([(1, 1), (1, -1)], "list"), ([(1, 1), (3, -1), (1, 1)], "list"),
                        (zip((2, 4, 2), (1, 1, -1)), "zip"), (((("p", 2), 1),) * 2, "tuple")):
        with pytest.raises(TypeError) as err:
            SignCharacter(pairs)
        assert str(err.value) == f"a SignCharacter is given as a dict, got {name}"
    assert SignCharacter({3: -1, 1: 1}).values == ((1, 1), (3, -1))


def test_sign_character_refuses_a_sign_that_is_not_the_int_1_or_minus_1():
    for sign in (True, False, 1.0, -1.0, 0, 2):
        with pytest.raises(ValueError, match=r"^character value at 2 must be \+1 or -1, got "):
            SignCharacter({2: sign})
    assert SignCharacter({2: 1, 4: -1}).values == ((2, 1), (4, -1))


@pytest.mark.parametrize("mapping, key", [
    ({2: 1, 4: 0, 6: True}, 4),
    ({6: True, 4: 0, 2: 1}, 6),
    ({1: -1, 3: -1.0, 5: 2}, 3),
    ({1: 1, 3: [1], 5: "1"}, 3),
    ({("p", 2): -1, ("p", 4): 1, ("q", 1): -2}, ("q", 1)),
])
def test_sign_character_names_the_first_bad_value_in_the_mapping_order(mapping, key):
    # a dict and a dict subclass name the first bad value in their order,
    # whatever the others are
    text = f"character value at {key!r} must be +1 or -1, got {mapping[key]!r}"
    for given in (mapping, collections.OrderedDict(mapping)):
        with pytest.raises(ValueError) as err:
            SignCharacter(given)
        assert str(err.value) == text, given


def test_sign_character_takes_only_a_dict():
    mapping = {4: -1, 2: 1, 6: 1}
    for given in (mapping, collections.OrderedDict(mapping)):
        eta = SignCharacter(given)
        assert eta.values == ((2, 1), (4, -1), (6, 1))
        assert eta == SignCharacter(mapping) and hash(eta) == hash(SignCharacter(mapping))
    assert SignCharacter({}).values == ()
    # the character copies its values: a later change to the dict is not seen
    eta = SignCharacter(mapping)
    mapping[2] = -1
    assert eta.values == ((2, 1), (4, -1), (6, 1))
    # any other form is refused before its values are read, bad values included
    for given, name in ((types.MappingProxyType(mapping), "mappingproxy"),
                        (list(mapping.items()), "list"),
                        (iter(mapping.items()), "dict_itemiterator"),
                        ([(1, 1), (2, 0)], "list"), ((), "tuple"), (None, "NoneType")):
        with pytest.raises(TypeError) as err:
            SignCharacter(given)
        assert str(err.value) == f"a SignCharacter is given as a dict, got {name}"
    with pytest.raises(TypeError):
        SignCharacter()


def test_partition_refuses_parts_that_are_not_integers():
    for parts in ((2.5, 1), ("4",), (2.0,)):
        with pytest.raises(TypeError):
            Partition(parts)
    assert Partition([1, 3, 2]).parts == (3, 2, 1)


def test_partition_refuses_a_bool_part():
    for parts in ((True, 2), (2, False)):
        with pytest.raises(TypeError, match=r"^expected an integer, got (True|False)$"):
            Partition(parts)


@pytest.mark.parametrize("part, text", [
    (True, "expected an integer, got True"),
    (2.0, "'float' object cannot be interpreted as an integer"),
    ("2", "'str' object cannot be interpreted as an integer"),
], ids=["bool", "float", "str"])
def test_a_part_that_is_not_an_exact_int_is_read_through_as_int(part, text):
    # only a tuple of exact ints skips the per-part read; any other part
    # raises the error of as_int, wherever it stands
    for parts in ((part,), (3, part), (part, 1, 1)):
        with pytest.raises(TypeError) as err:
            Partition(parts)
        assert str(err.value) == text


def test_an_int_subclass_part_reads_back_as_an_exact_int():
    class Part(int):
        pass

    p = Partition((Part(2), 3, Part(1)))
    assert p.parts == (3, 2, 1)
    assert [type(q) for q in p.parts] == [int, int, int]


def test_an_orbit_carries_the_multiplicity_table_of_its_partition():
    # every family, every partition of N <= 16: the table validation counted
    # is the partition's, and the layers that read it give what a recount
    # of the partition gives
    orbits = 0
    for n in range(17):
        for family in Family:
            try:
                kind = GroupKind(family, n)
            except ValueError:  # a size of the wrong parity for the family
                continue
            parity = kind.generator_parity
            for parts in recursive_partitions(n):
                p = Partition(parts)
                orbit = validate_partition(kind, p).orbit
                if orbit is None:
                    continue
                orbits += 1
                table = p.multiplicities()
                assert orbit.multiplicities == tuple(table.items())
                want = () if parity is None else p.distinct_parts_of_parity(parity)
                assert component_group(orbit).generators == want
                assert is_degenerate(orbit) == all(q % 2 == 0 and m % 2 == 0
                                                   for q, m in table.items())
                twin = require_valid(kind, Partition(parts))
                assert twin == orbit and hash(twin) == hash(orbit)
                bare = dataclasses.replace(orbit, multiplicities=())
                assert bare == orbit and hash(bare) == hash(orbit)
    assert orbits == 1802


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


@pytest.mark.parametrize("relation", list(Relation), ids=lambda r: r.value)
def test_characters_of_is_the_product_filtered_to_one_sign_vector_per_class(relation):
    # every sign vector, and in the quotient those with +1 on the smallest
    # generator: the same list in the same order, for 0 to 8 generators
    for g in range(9):
        vectors = list(itertools.product((1, -1), repeat=g))
        if relation is Relation.QUOTIENT_BY_FULL_PRODUCT and g:
            vectors = [signs for signs in vectors if signs[0] == 1]
        descriptor = ComponentGroupDescriptor(tuple(range(1, 2 * g, 2)), relation, len(vectors))
        assert characters_of(descriptor) == vectors, g


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
    assert signs_on(SignCharacter({}), (), "parts", "p") == ()
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
