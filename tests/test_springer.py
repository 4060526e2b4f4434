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
    p, eta, removed = eliminate(Partition((4, 2)), SignCharacter({2: 1, 4: 1}))
    assert (p, eta.keys(), removed) == (Partition(()), (), ((2, 4),))
    p = Partition((4, 2))
    eta = SignCharacter({2: -1, 4: 1})
    assert eliminate(p, eta) == (p, eta, ())  # alternating input is a fixed point
    full, _, removed = eliminate(Partition((8, 6, 4, 2)),
                                 SignCharacter({2: 1, 4: 1, 6: -1, 8: -1}))
    assert full == Partition(()) and removed == ((2, 4), (6, 8))
    # the leftmost path: (3,5) goes first, which makes 1 and 7 adjacent
    normal, chi, removed = eliminate(Partition((9, 7, 5, 3, 1)),
                                     SignCharacter({1: 1, 3: -1, 5: -1, 7: 1, 9: -1}))
    assert (normal, chi.as_dict(), removed) == (Partition((9,)), {9: -1}, ((3, 5), (1, 7)))
    with pytest.raises(DomainMismatch):
        eliminate(Partition((4, 2)), SignCharacter({2: 1}))


def test_collapse_order_insensitive_for_full_collapse():
    eta = SignCharacter({2: 1, 4: 1, 6: -1, 8: -1})
    outcomes = elimination_outcomes(Partition((8, 6, 4, 2)), eta)
    assert outcomes == {((), (), ((2, 4), (6, 8)))}


def test_normal_form_values_can_depend_on_order():
    # the terminal parts are a computation device: from (1,3,5) with all
    # signs equal, one order ends at (5), the other at (1) ...
    outcomes = elimination_outcomes(Partition((5, 3, 1)), SignCharacter({1: 1, 3: 1, 5: 1}))
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
        for p, eta in distinguished_pairs(kind):
            outcomes = elimination_outcomes(p, eta)
            contents = {normal_form_content(kind, parts, values) for parts, values, _ in outcomes}
            assert len(contents) == 1
            assert len(outcome_supports(LABEL, parity, p.increasing(), outcomes)) == 1


def _walk_every_order(parts, signs, removed=()):
    """Outcomes of elimination, one deletion path at a time, without a memo."""
    sites = [j for j in range(len(parts) - 1) if signs[parts[j]] == signs[parts[j + 1]]]
    if not sites:
        yield parts, tuple((q, signs[q]) for q in parts), tuple(sorted(removed))
    for j in sites:
        yield from _walk_every_order(parts[:j] + parts[j + 2:], signs,
                                     removed + (parts[j:j + 2],))


def test_elimination_outcomes_match_path_walker():
    # from N = 16 on some orders delete two pairs; N = 20 adds the four-part
    # symplectic classes and N = 25 the five-part class (9,7,5,3,1)
    for kind in classical_kinds(25):
        if kind.size > 16 and kind.size not in (20, 25):
            continue
        for p, eta in distinguished_pairs(kind):
            walked = set(_walk_every_order(p.increasing(), eta.as_dict()))
            assert elimination_outcomes(p, eta) == walked
            normal, chi, removed = eliminate(p, eta)
            assert (normal.increasing(), chi.values, tuple(sorted(removed))) in walked


def test_d_from_normal_form():
    assert d_from_normal_form(SP6, Partition((2,)), SignCharacter({2: -1})) == 1
    assert d_from_normal_form(SP6, Partition(()), SignCharacter()) == 0
    assert d_from_normal_form(SO9, Partition((5,)), SignCharacter({5: 1})) == 1
    with pytest.raises(InvalidPartition):
        d_from_normal_form(SP6, Partition((4, 2)), SignCharacter({2: 1, 4: 1}))


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
            for eta in characters_of(component_group(orbit)):
                out = springer_o(p, eta)
                if out.case is OCase.I:
                    central = tuple(q for q in p.distinct_parts_of_parity(1)
                                    if p.parts.count(q) % 2)
                    assert out.cusp_character_o.product() == eta.product(central)


def test_o4_torus_series_has_hyperoctahedral_size():
    """Fiber count over the torus datum of O_4: 2 + 2 extensions + 1 induced."""
    members = 0
    kind_o = GroupKind(Family.O_EVEN, 4)
    for orbit in group_partitions(kind_o):
        copies = orbit_count(require_valid(GroupKind(Family.SO_EVEN, 4), orbit.partition))
        if copies == 2:  # fused pair: one induced member
            members += 1
            continue
        for eta in characters_of(component_group(orbit)):
            out = springer_o(orbit.partition, eta)
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
