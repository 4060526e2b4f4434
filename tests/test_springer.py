import math
from dataclasses import replace

import pytest

from cusp_atlas import verifications
from cusp_atlas.census import (
    classical_kinds,
    count_identity,
    distinguished_pairs,
    group_partitions,
    unipotent_census,
)
from cusp_atlas.cuspsupport import all_order_slice_supports, outcome_supports
from cusp_atlas.errors import DomainMismatch, InvalidPartition
from cusp_atlas.lparams import IrrLabel, SelfDualType, block_group_type
from cusp_atlas.orbits import (
    Family,
    GroupKind,
    Partition,
    SignCharacter,
    characters_of,
    classical_kind,
    component_group,
    cuspidal_pair,
    orbit_count,
    require_valid,
)
from cusp_atlas.springer import (
    OCase,
    ProductFactor,
    WeylTag,
    d_from_normal_form,
    eliminate,
    elimination_outcomes,
    normal_form_content,
    springer_datum,
    springer_o,
    springer_product,
)

SP6 = GroupKind(Family.SP, 6)
SO9 = GroupKind(Family.SO_ODD, 9)
LABEL = IrrLabel("u", 1, SelfDualType.ORTHOGONAL)


def test_eliminate_fixtures():
    # the input and the normal form are increasing parts with their aligned signs
    assert eliminate((2, 4), (1, 1)) == ((), (), ((2, 4),))
    # alternating input is a fixed point
    assert eliminate((2, 4), (-1, 1)) == ((2, 4), (-1, 1), ())
    assert eliminate((2, 4, 6, 8), (1, 1, -1, -1)) == ((), (), ((2, 4), (6, 8)))
    # the leftmost path: (3,5) goes first, which makes 1 and 7 adjacent
    assert eliminate((1, 3, 5, 7, 9), (1, -1, -1, 1, -1)) == ((9,), (-1,), ((3, 5), (1, 7)))
    with pytest.raises(DomainMismatch, match=r"^1 signs for the 2 parts \(2, 4\)$"):
        eliminate((2, 4), (1,))


@pytest.mark.parametrize("run", [eliminate, elimination_outcomes], ids=["leftmost", "every-order"])
def test_elimination_refuses_signs_that_are_not_aligned(run):
    # a sign per part, or DomainMismatch; strictly increasing parts, or InvalidPartition
    with pytest.raises(DomainMismatch, match=r"^3 signs for the 2 parts \(2, 4\)$"):
        run((2, 4), (1, 1, -1))
    with pytest.raises(DomainMismatch, match=r"^0 signs for the 1 parts \(5,\)$"):
        run((5,), ())
    for parts in ((4, 2), (2, 2)):
        with pytest.raises(InvalidPartition, match=r"^parts \(.*\) do not strictly increase$"):
            run(parts, (1, 1))


def test_springer_datum_reads_its_character_on_the_parts():
    # the character is read once, where it enters: a domain off the parts
    # raises with the partition in the message, after validity and
    # distinguishedness are checked
    with pytest.raises(DomainMismatch,
                       match=r"^character domain \(2,\) does not match parts of \(4,2\)$"):
        springer_datum(SP6, Partition((4, 2)), SignCharacter({2: 1}))
    # as many generators as parts, one of them wrong
    with pytest.raises(DomainMismatch,
                       match=r"^character domain \(2, 6\) does not match parts of \(4,2\)$"):
        springer_datum(SP6, Partition((4, 2)), SignCharacter({2: 1, 6: 1}))
    with pytest.raises(InvalidPartition, match=r"^\(2,2,1,1\) is not distinguished for Sp_6$"):
        springer_datum(SP6, Partition((2, 2, 1, 1)), SignCharacter())
    with pytest.raises(InvalidPartition, match=r"^\(3,2,1\) is not a Sp_6 partition: "):
        springer_datum(SP6, Partition((3, 2, 1)), SignCharacter({5: 1}))


@pytest.mark.parametrize("kind,parts,signs", [
    (SP6, (4, 2), {2: 1, 4: -1}),
    (SO9, (5, 3, 1), {1: 1, 3: -1, 5: 1}),
    (GroupKind(Family.SP, 12), (6, 4, 2), {2: -1, 4: 1, 6: -1}),
])
def test_springer_datum_reads_its_character_once(signs_read, kind, parts, signs):
    springer_datum(kind, Partition(parts), SignCharacter(signs))
    assert signs_read == [tuple(sorted(parts))]


@pytest.mark.parametrize("parts,signs", [
    ((3, 1), {1: 1, 3: -1}),                 # case I
    ((5, 3, 1), {1: -1, 3: -1, 5: 1}),       # case I, odd N
    ((2, 2, 1, 1), {1: -1}),                 # case II
    ((2, 2), {}),                            # case III
])
def test_springer_o_reads_its_character_once(signs_read, parts, signs):
    springer_o(Partition(parts), SignCharacter(signs))
    assert signs_read == [tuple(sorted(set(q for q in parts if q % 2)))]


def test_springer_o_refuses_a_character_on_a_wrong_odd_part():
    with pytest.raises(DomainMismatch, match=r"^character domain \(1, 3, 7\) does not match "
                                             r"the odd parts of \(5,3,1\)$"):
        springer_o(Partition((5, 3, 1)), SignCharacter({1: 1, 3: 1, 7: 1}))


def test_all_order_slice_supports_takes_the_sizes_in_any_order():
    # the sizes are sorted, as a Partition sorts them: their order moves
    # neither the supports nor the owner a domain message names
    eta = SignCharacter({1: 1, 3: -1, 5: 1})
    assert all_order_slice_supports(LABEL, 1, (5, 1, 3), eta) == \
        all_order_slice_supports(LABEL, 1, (1, 3, 5), eta)
    with pytest.raises(DomainMismatch,
                       match=r"^character domain \(1, 3\) does not match parts of \(5,3,1\)$"):
        all_order_slice_supports(LABEL, 1, (1, 5, 3), SignCharacter({1: 1, 3: 1}))
    with pytest.raises(ValueError, match=r"^parts must be positive integers, got \(1, 0\)$"):
        all_order_slice_supports(LABEL, 1, (0, 1), SignCharacter({0: 1, 1: 1}))
    # a slice of a discrete parameter never repeats a size; a repeated one is refused
    with pytest.raises(InvalidPartition, match=r"^parts \(3, 3\) do not strictly increase$"):
        all_order_slice_supports(LABEL, 1, (3, 3), SignCharacter({3: 1}))


def test_eliminate_returns_tuples():
    for p, signs in distinguished_pairs(GroupKind(Family.SO_ODD, 9)):
        parts, signs, removed = eliminate(p.increasing(), list(signs))
        assert type(parts) is tuple and type(signs) is tuple and type(removed) is tuple
        assert all(type(x) is int for x in parts + signs)
        assert len(parts) == len(signs)


def test_collapse_order_insensitive_for_full_collapse():
    outcomes = elimination_outcomes((2, 4, 6, 8), (1, 1, -1, -1))
    assert outcomes == {((), (), ((2, 4), (6, 8)))}


def test_normal_form_values_can_depend_on_order():
    # the terminal parts are a computation device: from (1,3,5) with all
    # signs equal, one order ends at (5), the other at (1) ...
    outcomes = elimination_outcomes((1, 3, 5), (1, 1, 1))
    assert {(parts, removed) for parts, _, removed in outcomes} == {
        ((5,), ((1, 3),)), ((1,), ((3, 5),))}
    # ... but the invariant content and the produced support do not move
    contents = {normal_form_content(GroupKind(Family.SO_ODD, sum(parts)), parts, values)
                for parts, values, _ in outcomes}
    assert contents == {(1, (1,), 1)}
    supports = all_order_slice_supports(LABEL, 1, (1, 3, 5),
                                        SignCharacter({1: 1, 3: 1, 5: 1}))
    assert len(supports) == 1


def test_order_independence_of_content_and_support():
    for kind in classical_kinds(12):
        parity = block_group_type(kind, LABEL)
        assert parity == kind.generator_parity
        for p, signs in distinguished_pairs(kind):
            outcomes = elimination_outcomes(p.increasing(), signs)
            contents = {normal_form_content(kind, parts, values) for parts, values, _ in outcomes}
            assert len(contents) == 1
            assert len(outcome_supports(LABEL, parity, p.increasing(), outcomes)) == 1


def _walk_every_order(parts, signs, removed=()):
    """Outcomes of elimination, one deletion path at a time, without a memo:
    ``signs[j]`` is the sign of ``parts[j]``."""
    sites = [j for j in range(len(parts) - 1) if signs[j] == signs[j + 1]]
    if not sites:
        yield parts, signs, tuple(sorted(removed))
    for j in sites:
        yield from _walk_every_order(parts[:j] + parts[j + 2:], signs[:j] + signs[j + 2:],
                                     removed + (parts[j:j + 2],))


def test_elimination_outcomes_match_path_walker():
    # from N = 16 on some orders delete two pairs; N = 20 adds the four-part
    # symplectic classes and N = 25 the five-part class (9,7,5,3,1)
    for kind in classical_kinds(25):
        if kind.size > 16 and kind.size not in (20, 25):
            continue
        for p, signs in distinguished_pairs(kind):
            parts = p.increasing()
            walked = set(_walk_every_order(parts, signs))
            assert elimination_outcomes(parts, signs) == walked
            normal, normal_signs, removed = eliminate(parts, signs)
            assert (normal, normal_signs, tuple(sorted(removed))) in walked


def test_d_from_normal_form():
    assert d_from_normal_form(SP6, (2,), (-1,)) == 1
    assert d_from_normal_form(SP6, (2,), (1,)) == 0
    assert d_from_normal_form(SP6, (), ()) == 0
    assert d_from_normal_form(SO9, (5,), (1,)) == 1
    with pytest.raises(InvalidPartition):
        d_from_normal_form(SP6, (2, 4), (1, 1))


def test_d_from_normal_form_rejects_a_value_that_is_not_a_normal_form():
    # a sign for each part, or DomainMismatch
    with pytest.raises(DomainMismatch, match=r"^1 signs for the 2 parts \(2, 4\)$"):
        d_from_normal_form(SP6, (2, 4), (-1,))
    with pytest.raises(DomainMismatch):
        d_from_normal_form(SO9, (), (1,))
    # the parts increase, or InvalidPartition
    with pytest.raises(InvalidPartition):
        d_from_normal_form(SO9, (5, 3), (1, -1))


def test_springer_datum_fixtures():
    pair = cuspidal_pair(SP6)
    datum = springer_datum(SP6, pair.partition, pair.character)
    assert datum.torus_rank == 0
    assert datum.cusp_partition == pair.partition
    assert datum.cusp_character == pair.character
    assert datum.d == 2

    datum = springer_datum(SP6, Partition((4, 2)), SignCharacter({2: 1, 4: -1}))
    assert (datum.dprime, datum.d, datum.torus_rank) == (-1, 1, 2)
    assert datum.cusp_partition == Partition((2,))
    assert datum.cusp_character.as_dict() == {2: -1}

    datum = springer_datum(SO9, Partition((5, 3, 1)), SignCharacter({1: -1, 3: -1, 5: 1}))
    assert (datum.dprime, datum.d, datum.torus_rank) == (1, 1, 4)
    assert datum.cusp_partition == Partition((1,))
    assert datum.cusp_character.as_dict() == {1: 1}


def test_springer_datum_levi_rendering():
    datum = springer_datum(SP6, Partition((4, 2)), SignCharacter({2: 1, 4: -1}))
    assert datum.levi_str() == "(C*)^2 x Sp_2"


def test_cuspidal_pairs_are_fixed_points():
    for d in range(1, 5):
        kind = GroupKind(Family.SP, d * (d + 1))
        pair = cuspidal_pair(kind)
        datum = springer_datum(kind, pair.partition, pair.character)
        assert datum.torus_rank == 0 and datum.cusp_partition == pair.partition
    for d in range(1, 6):
        kind = classical_kind(1, d * d)
        pair = cuspidal_pair(kind)
        for lift in (pair.character, pair.minus_lift):
            datum = springer_datum(kind, pair.partition, lift)
            assert datum.torus_rank == 0 and datum.cusp_character == lift


def test_count_identity_small():
    kind = GroupKind(Family.SP, 4)
    by_d, predicted = count_identity(kind)
    assert by_d == predicted == {0: 5, 1: 2}
    assert unipotent_census(kind)["pairs"] == sum(predicted.values()) == 7


# -- full orthogonal group ----------------------------------------------------

def test_springer_o_case_one_odd():
    # the cuspidal lift keeps the whole group ...
    pair = cuspidal_pair(GroupKind(Family.SO_ODD, 9))
    out = springer_o(pair.partition, pair.character)
    assert out.case is OCase.I
    assert (out.quasi_levi.torus_rank, out.quasi_levi.o_size) == (0, 9)
    assert out.weyl_rep is WeylTag.BASE
    # ... while a torus-heavy character descends to the size-1 block
    out = springer_o(Partition((5, 3, 1)), SignCharacter({1: -1, 3: -1, 5: 1}))
    assert out.case is OCase.I
    assert (out.quasi_levi.torus_rank, out.quasi_levi.o_size) == (4, 1)
    assert out.datum.d == 1


def test_springer_o_case_two():
    for sign in (1, -1):
        out = springer_o(Partition((2, 2, 1, 1)), SignCharacter({1: sign}))
        assert out.case is OCase.II
        assert out.weyl_rep is WeylTag.EXTENDED
        assert out.chi == sign
        assert out.quasi_levi.o_size == 0


def test_springer_o_case_three():
    out = springer_o(Partition((2, 2)), SignCharacter())
    assert out.case is OCase.III
    assert out.weyl_rep is WeylTag.INDUCED
    assert out.fused_orbit_tags == ("I", "II")
    assert out.quasi_levi.torus_rank == 2


def test_springer_o_central_value_matches():
    # the recorded lift always matches the character on the central class
    for n in (5, 7, 9, 4, 6, 8):
        kind_o = GroupKind(Family.O_ODD if n % 2 else Family.O_EVEN, n)
        for orbit in group_partitions(kind_o):
            p = orbit.partition
            odd = p.distinct_parts_of_parity(1)
            for signs in characters_of(component_group(orbit)):
                out = springer_o(p, SignCharacter(zip(odd, signs)))
                if out.case is OCase.I:
                    central = [s for q, s in zip(odd, signs) if p.parts.count(q) % 2]
                    assert out.cusp_character_o.product() == math.prod(central)


def test_o4_torus_series_has_hyperoctahedral_size():
    """Fiber count over the torus datum of O_4: 2 + 2 extensions + 1 induced."""
    members = 0
    kind_o = GroupKind(Family.O_EVEN, 4)
    for orbit in group_partitions(kind_o):
        copies = orbit_count(require_valid(GroupKind(Family.SO_EVEN, 4), orbit.partition))
        if copies == 2:  # fused pair: one induced member
            members += 1
            continue
        desc = component_group(orbit)
        for signs in characters_of(desc):
            out = springer_o(orbit.partition, SignCharacter(zip(desc.generators, signs)))
            if out.case is OCase.II:
                members += 1
    from cusp_atlas.census import bipartition_count
    assert members == bipartition_count(2)  # 5 = |Irr(W(B_2))|


def test_springer_product_two_case_one_factors():
    f = ProductFactor(Partition((3, 1)), SignCharacter({1: 1, 3: -1}))
    out = springer_product([f, f])
    assert out.block_i == (0, 1) and not out.block_ii and not out.block_iii
    assert out.generator_labels(out.c_levi) == ("s1*s2",)
    assert out.c_orbit == () and out.c_induction == ()
    assert out.chi_levi == (1,)
    assert not out.extended and not out.induced


def test_springer_product_case_two_plus_three():
    g = ProductFactor(Partition((2, 2, 1, 1)), SignCharacter({1: -1}))
    h = ProductFactor(Partition((2, 2)), SignCharacter())
    out = springer_product([g, h])
    assert out.block_ii == (0,) and out.block_iii == (1,)
    assert out.c_orbit == ()
    assert out.generator_labels(out.c_induction) == ("s1*s2",)
    assert out.induced and not out.extended


def test_springer_product_single_factor_degenerates():
    f = ProductFactor(Partition((5, 3, 1)), SignCharacter({1: 1, 3: -1, 5: 1}))
    out = springer_product([f])
    sub = springer_o(f.partition, f.character)
    assert out.block_i == (0,)
    assert out.quasi_levi == (sub.quasi_levi,)
    assert out.cusp_data == (sub.datum,)
    assert out.c_levi == () and out.c_orbit == () and out.c_induction == ()


def test_springer_product_mixed_blocks():
    f1 = ProductFactor(Partition((3, 1)), SignCharacter({1: 1, 3: -1}))   # case I
    f2 = ProductFactor(Partition((2, 2, 1, 1)), SignCharacter({1: 1}))    # case II
    f3 = ProductFactor(Partition((2, 2)), SignCharacter())                # case III
    out = springer_product([f1, f2, f3])
    assert (out.block_i, out.block_ii, out.block_iii) == ((0,), (1,), (2,))
    # anchored at the last case-I factor
    assert out.generator_labels(out.c_orbit) == ("s1*s2",)
    assert out.generator_labels(out.c_induction) == ("s1*s3",)
    assert out.extended and out.induced


def test_springer_product_computes_each_factor_once(validated):
    # each factor's case, datum and quasi-Levi come from one springer_o call,
    # which validates the factor once
    f = ProductFactor(Partition((3, 1)), SignCharacter({1: 1, 3: -1}))
    g = ProductFactor(Partition((5, 3, 1)), SignCharacter({1: 1, 3: -1, 5: 1}))
    out = springer_product([f, g])
    assert validated == [f.partition.parts, g.partition.parts]
    assert out.block_i == (0, 1)


@pytest.mark.parametrize("parts,signs", [
    ((3, 1), {1: 1, 3: -1}),                 # case I
    ((2, 2, 1, 1), {1: -1}),                 # case II
    ((2, 2), {}),                            # case III
])
def test_springer_o_validates_its_partition_once(validated, parts, signs):
    springer_o(Partition(parts), SignCharacter(signs))
    assert validated == [parts]


@pytest.mark.parametrize("kind,parts,signs", [
    (SP6, (4, 2), {2: 1, 4: -1}),
    (SO9, (5, 3, 1), {1: 1, 3: -1, 5: 1}),
])
def test_springer_datum_validates_its_partition_once(validated, kind, parts, signs):
    springer_datum(kind, Partition(parts), SignCharacter(signs))
    assert validated == [parts]


def test_springer_o_rejects_o0():
    with pytest.raises(InvalidPartition, match="O_0"):
        springer_o(Partition(()), SignCharacter())
    f = ProductFactor(Partition((3, 1)), SignCharacter({1: 1, 3: -1}))
    with pytest.raises(InvalidPartition, match="O_0"):
        springer_product([f, ProductFactor(Partition(()), SignCharacter())])


def test_springer_product_needs_factors():
    with pytest.raises(InvalidPartition):
        springer_product([])


@pytest.mark.parametrize("family,field,detail", [
    (Family.SP, "torus_rank", "Sp_2 cuspidal pair moved"),
    (Family.SP, "cusp_character", "Sp_2 cuspidal pair moved"),
    (Family.SO_EVEN, "torus_rank", "SO_4 cuspidal pair moved"),
    (Family.SO_ODD, "cusp_character", "SO_1 cuspidal lift not restored"),
])
def test_cuspidal_fixed_points_names_the_first_pair_that_moved(monkeypatch, family, field, detail):
    direct = verifications.springer_datum

    def moved(kind, p, eta):
        datum = direct(kind, p, eta)
        if kind.family is not family:
            return datum
        changed = datum.torus_rank + 1 if field == "torus_rank" else SignCharacter()
        return replace(datum, **{field: changed})

    monkeypatch.setattr(verifications, "springer_datum", moved)
    assert verifications.check_cuspidal_fixed_points(25) == (False, detail)
