import math
from dataclasses import replace

import pytest

from cusp_atlas import springer, verifications
from cusp_atlas.cli import parse_input, run
from cusp_atlas.census import (
    bipartition_count,
    classical_kinds,
    count_identity,
    distinguished_pairs,
    group_partitions,
    unipotent_census,
)
from cusp_atlas.cuspsupport import all_order_slice_supports, outcome_supports
from cusp_atlas.errors import DomainMismatch, InternalCheckError, InvalidPartition
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
    staircase_signs,
)
from cusp_atlas.springer import (
    OCase,
    ProductFactor,
    d_from_defect,
    d_from_normal_form,
    eliminate,
    elimination_outcomes,
    normal_form_content,
    springer_datum,
    springer_o,
    springer_product,
)
from cusp_atlas.symbols import defect_formula, interval_structure, swapped_symbol

SP6 = GroupKind(Family.SP, 6)
SO9 = GroupKind(Family.SO_ODD, 9)
O4 = GroupKind(Family.O_EVEN, 4)
O9 = GroupKind(Family.O_ODD, 9)
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


def o_kind(n: int) -> GroupKind:
    return GroupKind(Family.O_ODD if n % 2 else Family.O_EVEN, n)


def o_job(parts, signs) -> dict:
    """The output document of the CLI's springer job on O_N, N the parts' total."""
    kind = o_kind(sum(parts))
    return run(parse_input({"command": "springer",
                            "group": {"family": kind.family.value, "N": kind.size},
                            "partition": list(parts), "signs": list(signs)}))


def product_job(factors) -> dict:
    """The output document of the CLI's springer job on a product of O_m's."""
    return run(parse_input({"command": "springer", "factors": [
        {"partition": list(f.partition.parts), "signs": list(f.signs)} for f in factors]}))


def factor_cases(out) -> tuple[OCase, ...]:
    return tuple(sub.case for sub in out.factor_data)


def test_springer_datum_reads_its_character_on_the_parts():
    # the signs are the character's on the increasing parts: a count other
    # than the part count raises, after validity and distinguishedness
    for signs in ((1,), (1, -1, 1)):
        with pytest.raises(DomainMismatch) as err:
            springer_datum(SP6, Partition((4, 2)), signs)
        assert str(err.value) == f"{len(signs)} signs for the 2 parts (2, 4)"
    # a non-distinguished class and an invalid partition, each with a wrong count
    with pytest.raises(InvalidPartition, match=r"^\(2,2,1,1\) is not distinguished for Sp_6$"):
        springer_datum(SP6, Partition((2, 2, 1, 1)), ())
    with pytest.raises(InvalidPartition, match=r"^\(3,2,1\) is not a Sp_6 partition: "
                       r"odd part 1 has odd multiplicity 1; odd part 3 has odd multiplicity 1$"):
        springer_datum(SP6, Partition((3, 2, 1)), (1,))


def test_springer_datum_takes_only_sp_and_so():
    # a full orthogonal group is refused first, even with an invalid partition
    # and a wrong count, and named with its own map
    for p, signs in ((Partition((3, 1)), (1, 1)), (Partition((2,)), (1, 1, 1))):
        with pytest.raises(InvalidPartition) as err:
            springer_datum(O4, p, signs)
        assert str(err.value) == "Oeven_4 is a full orthogonal group: its map is springer_o"
    # GL is refused as not distinguished, as before
    with pytest.raises(InvalidPartition) as err:
        springer_datum(GroupKind(Family.GL, 3), Partition((3,)), (1,))
    assert str(err.value) == "(3) is not distinguished for GL_3"


@pytest.mark.parametrize("kind,parts,signs", [
    (SP6, (4, 2), (1, -1)),
    (SO9, (5, 3, 1), (1, -1, 1)),
    (GroupKind(Family.SP, 12), (6, 4, 2), (-1, 1, -1)),
])
def test_springer_datum_reads_its_character_once(signs_read, kind, parts, signs):
    # the signs come in read: springer_datum reads no character itself
    springer_datum(kind, Partition(parts), signs)
    assert signs_read == []


@pytest.mark.parametrize("parts,signs", [
    ((3, 1), (1, -1)),                       # case I
    ((5, 3, 1), (-1, -1, 1)),                # case I, odd N
    ((2, 2, 1, 1), (-1,)),                   # case II
    ((2, 2), ()),                            # case III
])
def test_springer_o_reads_its_character_once(signs_read, parts, signs):
    # the signs come in read: springer_o reads no character itself
    springer_o(o_kind(sum(parts)), Partition(parts), signs)
    assert signs_read == []


def test_springer_product_reads_no_character(signs_read):
    # a pair's value is the product of the two factors' first signs, those on
    # their smallest odd parts: +1 on 1 (not -1 on 3) for the case-I anchor
    factors = [ProductFactor(Partition((3, 1)), (1, -1)),
               ProductFactor(Partition((2, 2, 1, 1)), (-1,)), ProductFactor(Partition((2, 2)), ())]
    out = springer_product(factors)
    assert factor_cases(out) == (OCase.I, OCase.II, OCase.III)
    assert out.chi_orbit == (-1,)
    assert signs_read == []


def test_springer_o_refuses_a_character_on_a_wrong_odd_part():
    # one sign per distinct odd part, increasing, or DomainMismatch
    for signs in ((1, 1, 1, 1), (1, 1)):
        with pytest.raises(DomainMismatch) as err:
            springer_o(O9, Partition((5, 3, 1)), signs)
        assert str(err.value) == f"{len(signs)} signs for the 3 parts (1, 3, 5)"


@pytest.mark.parametrize("bad", [True, 1.0, 0, 2, None], ids=["bool", "float", "0", "2", "none"])
def test_springer_maps_take_only_the_int_1_or_minus_1(bad):
    # the values are checked first, as a SignCharacter checked them when made:
    # before the kind, the partition and the count
    message = f"a sign must be the int 1 or -1, got {bad!r}"
    for run in (lambda: springer_datum(SP6, Partition((4, 2)), (-1, bad)),
                lambda: springer_datum(O4, Partition((2, 1)), (bad,)),
                lambda: springer_o(O4, Partition((3, 1)), (bad, 1)),
                lambda: springer_o(SP6, Partition((3,)), (1, bad, 1)),
                lambda: springer_product([ProductFactor(Partition((3, 1)), (1, bad))])):
        with pytest.raises(ValueError) as err:
            run()
        assert str(err.value) == message


@pytest.mark.parametrize("signs, bad", [
    ((0, 1), 0), ((0, 5), 0), ((1, 5), 5), ((True, -1), True), ((1, True), True),
    ((1.0, -1), 1.0), ((-1, 1.0), 1.0), ((1, -1, 0), 0), ((0,), 0),
], ids=["zero", "zero-five", "five", "true", "true-second", "float", "float-second",
        "zero-extra", "zero-missing"])
def test_lower_layers_take_only_the_int_1_or_minus_1(signs, bad):
    # each layer below the Springer maps checks the values first, with the
    # maps' text: before the count of the signs and the order of the parts
    orbit = require_valid(SP6, Partition((4, 2)))
    parts = (2, 4)
    message = f"a sign must be the int 1 or -1, got {bad!r}"
    for run in (lambda: eliminate(parts, signs),
                lambda: eliminate(parts[::-1], signs),
                lambda: elimination_outcomes(parts, signs),
                lambda: elimination_outcomes(parts[::-1], signs),
                lambda: d_from_normal_form(SP6, parts, signs),
                lambda: swapped_symbol(interval_structure(orbit), signs),
                lambda: defect_formula(orbit, signs)):
        with pytest.raises(ValueError) as err:
            run()
        assert str(err.value) == message


def test_springer_o_checks_kind_validity_count_then_o0():
    # the kind first: springer_o takes O_N only
    for kind in (GroupKind(Family.SO_EVEN, 4), SP6, GroupKind(Family.GL, 4)):
        with pytest.raises(InvalidPartition) as err:
            springer_o(kind, Partition((3, 1)), ())
        assert str(err.value) == f"{kind} is not a full orthogonal group: springer_o takes O_N"
    # then the partition against that group's N, with a wrong count too
    with pytest.raises(InvalidPartition) as err:
        springer_o(GroupKind(Family.O_EVEN, 16), Partition((3, 1)), (1,))
    assert str(err.value) == "(3,1) is not a Oeven_16 partition: parts sum to 4, expected 16"
    # then the count, on O_0 too
    with pytest.raises(DomainMismatch) as err:
        springer_o(O4, Partition((3, 1)), (1,))
    assert str(err.value) == "1 signs for the 2 parts (1, 3)"
    with pytest.raises(DomainMismatch) as err:
        springer_o(GroupKind(Family.O_EVEN, 0), Partition(), (1,))
    assert str(err.value) == "1 signs for the 0 parts ()"
    # and last N >= 1
    with pytest.raises(InvalidPartition) as err:
        springer_o(GroupKind(Family.O_EVEN, 0), Partition(), ())
    assert str(err.value) == "the O_N correspondence is computed for N >= 1, not for O_0"


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
    datum = springer_datum(SP6, pair.partition, (-1, 1))
    assert datum.torus_rank == 0
    assert datum.cusp_partition == pair.partition
    assert (datum.cusp_signs,) == pair.characters
    assert datum.d == 2

    datum = springer_datum(SP6, Partition((4, 2)), (1, -1))
    assert (datum.dprime, datum.d, datum.torus_rank) == (-1, 1, 2)
    assert datum.cusp_partition == Partition((2,))
    assert datum.cusp_signs == (-1,)

    datum = springer_datum(SO9, Partition((5, 3, 1)), (-1, -1, 1))
    assert (datum.dprime, datum.d, datum.torus_rank) == (1, 1, 4)
    assert datum.cusp_partition == Partition((1,))
    assert datum.cusp_signs == (1,)


def test_springer_cross_checks_raise_their_texts(monkeypatch):
    # each cross-check fires once one route lies, and names what disagreed
    with pytest.raises(InternalCheckError, match=r"^symplectic defect 2 is even$"):
        d_from_defect(GroupKind(Family.SP, 4), 2)
    monkeypatch.setattr(springer, "defect_formula", lambda orbit, signs: 5)
    with pytest.raises(InternalCheckError,
                       match=r"^defect formula 5 != symbol defect -1 on \(4,2\), \(1, -1\)$"):
        springer_datum(SP6, Partition((4, 2)), (1, -1))
    monkeypatch.undo()
    monkeypatch.setattr(springer, "d_from_normal_form", lambda kind, parts, signs: 7)
    with pytest.raises(InternalCheckError, match=r"^normal form gives d=7, defect -1 gives 1$"):
        springer_datum(SP6, Partition((4, 2)), (1, -1))
    monkeypatch.undo()
    # a cuspidal character whose signs multiply to the other central value
    monkeypatch.setattr(springer, "staircase_signs", lambda d, first: (-first,) * d)
    with pytest.raises(InternalCheckError,
                       match=r"^central value not conserved on \(1\), \(1,\)$"):
        springer_datum(GroupKind(Family.SO_ODD, 1), Partition((1,)), (1,))
    monkeypatch.undo()
    # d = 3 on O_1: its staircase of 9 is larger than the group
    monkeypatch.setattr(springer, "d_from_defect", lambda kind, dprime: 3)
    with pytest.raises(InternalCheckError, match=r"^bad torus rank for \(1\), \(1,\): N=1, d=3$"):
        springer_o(GroupKind(Family.O_ODD, 1), Partition((1,)), (1,))


def test_springer_datum_levi_rendering():
    datum = springer_datum(SP6, Partition((4, 2)), (1, -1))
    assert datum.levi_str() == "(C*)^2 x Sp_2"


def test_cuspidal_pairs_are_fixed_points():
    for d in range(1, 5):
        kind = GroupKind(Family.SP, d * (d + 1))
        pair = cuspidal_pair(kind)
        (signs,) = pair.characters
        datum = springer_datum(kind, pair.partition, signs)
        assert datum.torus_rank == 0 and datum.cusp_partition == pair.partition
    for d in range(1, 6):
        kind = classical_kind(1, d * d)
        pair = cuspidal_pair(kind)
        for signs in pair.characters:
            datum = springer_datum(kind, pair.partition, signs)
            assert datum.torus_rank == 0 and datum.cusp_signs == signs


def test_every_cuspidal_datum_is_a_cuspidal_pair_that_is_its_own_datum():
    # the datum of each distinguished pair of Sp_N and SO_N, N <= 18, carries
    # the cuspidal pair of its group, with one of its characters as signs,
    # and that pair maps to itself: torus rank 0 and the same signs
    checked = 0
    for kind in classical_kinds(18):
        for p, signs in distinguished_pairs(kind):
            datum = springer_datum(kind, p, signs)
            cusp_kind = classical_kind(kind.generator_parity, datum.cusp_size)
            pair = cuspidal_pair(cusp_kind)
            assert datum.cusp_partition == pair.partition, (kind, p, signs)
            assert datum.cusp_signs in pair.characters, (kind, p, signs)
            again = springer_datum(cusp_kind, datum.cusp_partition, datum.cusp_signs)
            assert (again.torus_rank, again.cusp_signs) == (0, datum.cusp_signs), (kind, p, signs)
            checked += 1
    assert checked == 356


def test_every_case_one_o_datum_is_a_cuspidal_pair_that_is_its_own_datum():
    # the same law for the O-level lift springer_o records in case I, on O_N
    # with N <= 16: the pair is fed back to springer_o on O_{d^2}
    checked = []
    for n in range(1, 17):
        kind_o = o_kind(n)
        for orbit in group_partitions(kind_o):
            for signs in characters_of(component_group(orbit)):
                out = springer_o(kind_o, orbit.partition, signs)
                if out.case is not OCase.I:
                    continue
                datum = out.datum
                pair = cuspidal_pair(classical_kind(1, datum.cusp_size))
                assert datum.cusp_partition == pair.partition, (kind_o, orbit, signs)
                assert datum.cusp_signs in pair.characters, (kind_o, orbit, signs)
                again = springer_o(o_kind(datum.cusp_size), datum.cusp_partition, datum.cusp_signs)
                assert (again.case, again.datum.torus_rank, again.datum.cusp_signs) == \
                    (OCase.I, 0, datum.cusp_signs), (kind_o, orbit, signs)
                checked.append(datum.cusp_signs[0])
    # both lifts come out, each about half the time
    assert len(checked) == 814 and checked.count(-1) == 407


def test_o_count_identity_holds_per_lift():
    # ROADMAP item 3, an oracle for springer_o apart from its case rules:
    # bucketed by d and the O-level lift, the pairs of O_N give bip(m),
    # m = (N - d^2)/2, for each of the two lifts of each d > 0, and for even
    # N the d = 0 bucket (cases II and III) holds bip(N/2)
    pairs = 0
    for n in range(1, 19):
        kind_o = o_kind(n)
        buckets: dict = {}
        for orbit in group_partitions(kind_o):
            for signs in characters_of(component_group(orbit)):
                datum = springer_o(kind_o, orbit.partition, signs).datum
                key = (datum.d, datum.cusp_signs)
                buckets[key] = buckets.get(key, 0) + 1
        predicted = {(d, lift): bipartition_count((n - d * d) // 2)
                     for d in range(n % 2, math.isqrt(n) + 1, 2)
                     for lift in {staircase_signs(d, 1), staircase_signs(d, -1)}}  # () if d = 0
        assert buckets == predicted, kind_o
        pairs += sum(buckets.values())
    assert pairs == 2181


def test_count_identity_small():
    kind = GroupKind(Family.SP, 4)
    by_d, predicted = count_identity(kind)
    assert by_d == predicted == {0: 5, 1: 2}
    assert unipotent_census(kind)["pairs"] == sum(predicted.values()) == 7


# -- full orthogonal group ----------------------------------------------------

def test_springer_o_case_one_odd():
    # the cuspidal lift keeps the whole group ...
    pair = cuspidal_pair(GroupKind(Family.SO_ODD, 9))
    out = springer_o(O9, pair.partition, (1, -1, 1))
    assert out.case is OCase.I
    assert (out.datum.torus_rank, out.datum.d ** 2) == (0, 9)
    job = o_job(pair.partition.parts, (1, -1, 1))
    assert (job["quasi_levi"], job["weyl_rep"]) == ("O_9", "base")
    # ... while a torus-heavy character descends to the size-1 block
    out = springer_o(O9, Partition((5, 3, 1)), (-1, -1, 1))
    assert out.case is OCase.I
    assert (out.datum.torus_rank, out.datum.d ** 2) == (4, 1)
    assert o_job((5, 3, 1), (-1, -1, 1))["quasi_levi"] == "(C*)^4 x O_1"
    assert out.datum.d == 1


def test_springer_o_case_two():
    for sign in (1, -1):
        out = springer_o(GroupKind(Family.O_EVEN, 6), Partition((2, 2, 1, 1)), (sign,))
        assert out.case is OCase.II
        assert out.chi == sign
        assert out.datum.d == 0
        job = o_job((2, 2, 1, 1), (sign,))
        assert (job["quasi_levi"], job["weyl_rep"]) == ("(C*)^3", "extended")


def test_springer_o_case_three():
    out = springer_o(O4, Partition((2, 2)), ())
    assert out.case is OCase.III
    assert out.datum.torus_rank == 2
    job = o_job((2, 2), ())
    assert (job["quasi_levi"], job["weyl_rep"]) == ("(C*)^2", "induced")
    assert job["fused_orbits"] == ["I", "II"]


def test_springer_o_central_value_matches():
    # the recorded lift always matches the character on the central class
    for n in (5, 7, 9, 4, 6, 8):
        kind_o = o_kind(n)
        for orbit in group_partitions(kind_o):
            p = orbit.partition
            odd = p.distinct_parts_of_parity(1)
            for signs in characters_of(component_group(orbit)):
                out = springer_o(kind_o, p, signs)
                if out.case is OCase.I:
                    central = [s for q, s in zip(odd, signs) if p.parts.count(q) % 2]
                    assert math.prod(out.datum.cusp_signs) == math.prod(central)


def test_o_side_facts_follow_the_case_on_every_pair():
    # what the CLI writes from the case and the datum, on every O_N pair
    # with N <= 16: the quasi-Levi keeps an O-block exactly in case I, where
    # d > 0, and its torus part is (N - d^2)/2; the Weyl representation and
    # the fused classes follow the case
    weyl = {OCase.I: "base", OCase.II: "extended", OCase.III: "induced"}
    pairs = 0
    for n in range(1, 17):
        kind_o = o_kind(n)
        for orbit in group_partitions(kind_o):
            p = orbit.partition
            for signs in characters_of(component_group(orbit)):
                out = springer_o(kind_o, p, signs)
                job = o_job(p.parts, signs)
                d = out.datum.d
                assert (out.case is OCase.I) == (d > 0)
                factors = job["quasi_levi"].split(" x ")
                o_blocks = [f for f in factors if f.startswith("O_")]
                assert o_blocks == ([f"O_{d * d}"] if out.case is OCase.I else [])
                torus_rank, odd = divmod(n - d * d, 2)
                assert out.datum.torus_rank == torus_rank and odd == 0
                tori = [f for f in factors if f not in o_blocks]
                assert tori == ([f"(C*)^{torus_rank}"] if torus_rank else [])
                assert job["weyl_rep"] == weyl[out.case]
                assert job["fused_orbits"] == (["I", "II"] if out.case is OCase.III else [])
                pairs += 1
    assert pairs == 1247


def test_o4_torus_series_has_hyperoctahedral_size():
    """Fiber count over the torus datum of O_4: 2 + 2 extensions + 1 induced."""
    members = 0
    for orbit in group_partitions(O4):
        copies = orbit_count(require_valid(GroupKind(Family.SO_EVEN, 4), orbit.partition))
        if copies == 2:  # fused pair: one induced member
            members += 1
            continue
        for signs in characters_of(component_group(orbit)):
            out = springer_o(O4, orbit.partition, signs)
            if out.case is OCase.II:
                members += 1
    assert members == bipartition_count(2)  # 5 = |Irr(W(B_2))|


def test_springer_product_two_case_one_factors():
    f = ProductFactor(Partition((3, 1)), (1, -1))
    out = springer_product([f, f])
    assert factor_cases(out) == (OCase.I, OCase.I)
    assert out.generator_labels(out.c_levi) == ("s1*s2",)
    assert out.c_orbit == () and out.c_induction == ()
    assert out.chi_levi == (1,)
    job = product_job([f, f])
    assert job["blocks"] == {"case_I": [0, 1], "case_II": [], "case_III": []}
    assert job["weyl_rep"] == {"extended": False, "induced": False}


def test_springer_product_case_two_plus_three():
    g = ProductFactor(Partition((2, 2, 1, 1)), (-1,))
    h = ProductFactor(Partition((2, 2)), ())
    out = springer_product([g, h])
    assert factor_cases(out) == (OCase.II, OCase.III)
    assert out.c_orbit == ()
    assert out.generator_labels(out.c_induction) == ("s1*s2",)
    job = product_job([g, h])
    assert job["blocks"] == {"case_I": [], "case_II": [0], "case_III": [1]}
    assert job["weyl_rep"] == {"extended": False, "induced": True}


def test_springer_product_single_factor_degenerates():
    f = ProductFactor(Partition((5, 3, 1)), (1, -1, 1))
    out = springer_product([f])
    sub = springer_o(O9, f.partition, f.signs)
    assert sub.case is OCase.I
    assert out.factor_data == (sub,)
    assert out.c_levi == () and out.c_orbit == () and out.c_induction == ()
    job, sub_job = product_job([f]), o_job(f.partition.parts, f.signs)
    assert job["blocks"] == {"case_I": [0], "case_II": [], "case_III": []}
    assert job["quasi_levi"] == [sub_job["quasi_levi"]]
    assert job["cusp_data"] == [sub_job["datum"]]


def test_springer_product_mixed_blocks():
    f1 = ProductFactor(Partition((3, 1)), (1, -1))         # case I
    f2 = ProductFactor(Partition((2, 2, 1, 1)), (1,))      # case II
    f3 = ProductFactor(Partition((2, 2)), ())              # case III
    out = springer_product([f1, f2, f3])
    assert factor_cases(out) == (OCase.I, OCase.II, OCase.III)
    # anchored at the last case-I factor
    assert out.generator_labels(out.c_orbit) == ("s1*s2",)
    assert out.generator_labels(out.c_induction) == ("s1*s3",)
    job = product_job([f1, f2, f3])
    assert job["blocks"] == {"case_I": [0], "case_II": [1], "case_III": [2]}
    assert job["weyl_rep"] == {"extended": True, "induced": True}


def test_springer_product_computes_each_factor_once(validated):
    # each factor's result comes from one springer_o call, which validates
    # the factor once
    f = ProductFactor(Partition((3, 1)), (1, -1))
    g = ProductFactor(Partition((5, 3, 1)), (1, -1, 1))
    out = springer_product([f, g])
    assert validated == [f.partition.parts, g.partition.parts]
    assert factor_cases(out) == (OCase.I, OCase.I)


@pytest.mark.parametrize("parts,signs", [
    ((3, 1), (1, -1)),                       # case I
    ((2, 2, 1, 1), (-1,)),                   # case II
    ((2, 2), ()),                            # case III
])
def test_springer_o_validates_its_partition_once(validated, parts, signs):
    springer_o(o_kind(sum(parts)), Partition(parts), signs)
    assert validated == [parts]


@pytest.mark.parametrize("kind,parts,signs", [
    (SP6, (4, 2), (1, -1)),
    (SO9, (5, 3, 1), (1, -1, 1)),
])
def test_springer_datum_validates_its_partition_once(validated, kind, parts, signs):
    springer_datum(kind, Partition(parts), signs)
    assert validated == [parts]


@pytest.mark.parametrize("kind, parts, signs, error, text", [
    # the checks run in the order values, kind, validity, distinguishedness, count
    (SP6, (4, 2), (1, 0), ValueError, "a sign must be the int 1 or -1, got 0"),
    (SP6, (4, 2), (1, True), ValueError, "a sign must be the int 1 or -1, got True"),
    (O4, (3, 1), (1, 0), ValueError, "a sign must be the int 1 or -1, got 0"),
    (O4, (2, 1), (1, 1), InvalidPartition,
     "Oeven_4 is a full orthogonal group: its map is springer_o"),
    (SP6, (3, 2, 1), (1,), InvalidPartition, "(3,2,1) is not a Sp_6 partition: "
     "odd part 1 has odd multiplicity 1; odd part 3 has odd multiplicity 1"),
    (SO9, (5, 2, 2), (1,), InvalidPartition,
     "(5,2,2) is not distinguished for SOodd_9"),
    (GroupKind(Family.GL, 3), (3,), (1,), InvalidPartition, "(3) is not distinguished for GL_3"),
    (SP6, (4, 2), (1,), DomainMismatch, "1 signs for the 2 parts (2, 4)"),
    (SO9, (9,), (1, 1), DomainMismatch, "2 signs for the 1 parts (9,)"),
])
def test_springer_datum_keeps_its_exceptions(kind, parts, signs, error, text):
    with pytest.raises(error) as err:
        springer_datum(kind, Partition(parts), signs)
    assert type(err.value) is error and str(err.value) == text


def test_springer_o_rejects_o0():
    with pytest.raises(InvalidPartition, match="O_0"):
        springer_o(GroupKind(Family.O_EVEN, 0), Partition(()), ())
    f = ProductFactor(Partition((3, 1)), (1, -1))
    with pytest.raises(InvalidPartition, match="O_0"):
        springer_product([f, ProductFactor(Partition(()), ())])


def test_springer_product_needs_factors():
    with pytest.raises(InvalidPartition):
        springer_product([])


@pytest.mark.parametrize("factors, shown", [([1], "int"), ("ab", "str"), ([None], "NoneType"),
                                            ([((3, 1), (1, -1))], "tuple")])
def test_springer_product_refuses_a_factor_that_is_not_a_product_factor(factors, shown):
    with pytest.raises(TypeError) as err:
        springer_product(factors)
    assert str(err.value) == f"a factor is a ProductFactor, got {shown}"


@pytest.mark.parametrize("parts, shown", [([3, 1], "list"), ((3, 1), "tuple"), (None, "NoneType")])
def test_product_factor_refuses_a_partition_that_is_not_a_partition(parts, shown):
    with pytest.raises(TypeError) as err:
        ProductFactor(parts, (1, -1))
    assert str(err.value) == f"a factor partition is a Partition, got {shown}"


@pytest.mark.parametrize("family,moved_part,detail", [
    (Family.SP, "torus_rank", "Sp_2 cuspidal pair moved"),
    (Family.SP, "cusp_character", "Sp_2 cuspidal pair moved"),
    (Family.SO_EVEN, "torus_rank", "SO_4 cuspidal pair moved"),
    (Family.SO_ODD, "cusp_character", "SO_1 cuspidal lift not restored"),
])
def test_cuspidal_fixed_points_names_the_first_pair_that_moved(monkeypatch, family, moved_part,
                                                              detail):
    # the moved part is the torus rank or the cuspidal character, its signs
    direct = verifications.springer_datum

    def moved(kind, p, signs):
        datum = direct(kind, p, signs)
        if kind.family is not family:
            return datum
        if moved_part == "torus_rank":
            return replace(datum, torus_rank=datum.torus_rank + 1)
        return replace(datum, cusp_signs=())

    monkeypatch.setattr(verifications, "springer_datum", moved)
    assert verifications.check_cuspidal_fixed_points(25) == (False, detail)
