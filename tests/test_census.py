import itertools

import pytest

from conftest import _spy, pair_symbol, set_algebra_swapped_symbol

from cusp_atlas.cli import main

from cusp_atlas.census import (
    DEFAULT_SIGNATURE,
    bipartition_count,
    classical_kinds,
    count_identity,
    distinct_part_partitions,
    enumerate_parameters,
    group_partitions,
    partition_count,
    partitions_of,
    unipotent_census,
)
from cusp_atlas.errors import DomainMismatch, InvalidParameter
from cusp_atlas.lparams import IrrLabel, SelfDualType, det_flip, is_cuspidal, validate_parameter
from cusp_atlas.orbits import (
    Family,
    GroupKind,
    Partition,
    SignCharacter,
    characters_of,
    component_group,
    orbit_count,
    validate_partition,
)
from cusp_atlas.springer import d_from_defect, removable_sites
from cusp_atlas.symbols import interval_structure
from cusp_atlas import census, orbits, verifications
from cusp_atlas.verifications import (
    check_count_identity,
    check_defect_coherence,
    check_so_count_identity,
)


def brute_bipartitions(n):
    out = 0
    for a in range(n + 1):
        out += sum(1 for _ in partitions_of(a)) * sum(1 for _ in partitions_of(n - a))
    return out


def test_partition_count_matches_enumeration():
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [partition_count(n) for n in range(11)] == known


def test_bipartition_count_against_brute_force():
    for n in range(9):
        assert bipartition_count(n) == brute_bipartitions(n)
    assert bipartition_count(2) == 5


def test_distinct_part_partitions():
    assert set(distinct_part_partitions(6, 0)) == {(2, 4), (6,)}
    assert set(distinct_part_partitions(9, 1)) == {(1, 3, 5), (9,)}
    assert set(distinct_part_partitions(0, 0)) == {()}


def test_group_partitions_counts():
    assert sum(1 for _ in group_partitions(GroupKind(Family.SP, 4))) == 4
    assert sum(1 for _ in group_partitions(GroupKind(Family.GL, 4))) == 5


def test_unipotent_census_sp4():
    table = unipotent_census(GroupKind(Family.SP, 4))
    assert table == {"pairs": 7, "by_d": {0: 5, 1: 2}}


def recursive_partitions(n, top=None):
    """The textbook recursion: largest part first, then the rest below it."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, top or n), 0, -1):
        for rest in recursive_partitions(n - first, first):
            yield (first,) + rest


def test_partitions_of_matches_the_recursion_in_order():
    for n in range(21):
        assert list(partitions_of(n)) == list(recursive_partitions(n)), n


def census_one_symbol_per_pair(kind):
    """The census with one symbol built from its validated partition per
    (partition, character), through the set algebra on the base rows rather
    than `swapped_symbol`."""
    total, by_d = 0, {}
    for parts in recursive_partitions(kind.size):
        p = Partition(parts)
        verdict = validate_partition(kind, p)
        if not verdict:
            continue
        copies = orbit_count(verdict.orbit)
        structure = interval_structure(verdict.orbit)
        for signs in characters_of(component_group(verdict.orbit)):
            d = d_from_defect(kind, set_algebra_swapped_symbol(structure, signs).defect)
            total += copies
            by_d[d] = by_d.get(d, 0) + copies
    return {"pairs": total, "by_d": dict(sorted(by_d.items()))}


@pytest.mark.parametrize("family", [Family.SP, Family.SO_ODD, Family.SO_EVEN],
                         ids=lambda f: f.value)
def test_census_matches_one_symbol_per_pair(family):
    for n in range(1 if family is Family.SO_ODD else 0, 17, 2):
        kind = GroupKind(family, n)
        assert unipotent_census(kind) == census_one_symbol_per_pair(kind), kind


@pytest.mark.parametrize("family,parts,signs,message", [
    (Family.SP, (4, 2), (1,), "1 signs for the 2 parts (2, 4)"),
    (Family.SP, (4, 2), (1, -1, 1), "3 signs for the 2 parts (2, 4)"),
    # a sign on the odd part too: Sp has generators on the even parts only
    (Family.SP, (2, 2, 1, 1), (1, 1), "2 signs for the 1 parts (2,)"),
    (Family.SO_ODD, (5, 3, 1), (1, -1), "2 signs for the 3 parts (1, 3, 5)"),
    (Family.SO_EVEN, (3, 3, 1, 1), (1, 1, -1), "3 signs for the 2 parts (1, 3)"),
], ids=["missing", "extra", "odd-part", "so-missing", "so-extra"])
def test_swapped_symbol_rejects_a_character_off_the_generators(family, parts, signs, message):
    # the signs align with the generators, one each, or DomainMismatch
    p = Partition(parts)
    with pytest.raises(DomainMismatch) as err:
        pair_symbol(GroupKind(family, p.total), p, signs)
    assert str(err.value) == message


def test_census_reads_no_character(signs_read, monkeypatch):
    # the census enumerates each character as its signs, which the symbol
    # takes as they are: no SignCharacter is built, and none is read
    built = []
    init = SignCharacter.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(SignCharacter, "__init__", counted)
    assert unipotent_census(GroupKind(Family.SP, 16))["pairs"] == 336
    assert signs_read == [] and built == []


def test_census_retests_no_part_order(monkeypatch):
    # an interval structure's parts strictly increase: the symbol of each
    # pair has its sign count checked, and nothing re-tests the part order
    calls = _spy(monkeypatch, orbits.check_aligned,
                 lambda parts, signs, increasing=False: increasing)
    assert unipotent_census(GroupKind(Family.SP, 16))["pairs"] == 336
    assert calls == [True] * 336


def test_classical_kinds_order():
    assert [str(k) for k in classical_kinds(4)] == \
        ["SOodd_1", "Sp_2", "SOeven_2", "SOodd_3", "Sp_4", "SOeven_4"]


def test_so_count_identity_range():
    so_kinds = [kind for kind in classical_kinds(20) if not kind.is_symplectic]
    assert [kind.size for kind in so_kinds] == list(range(1, 21))
    for kind in so_kinds:
        by_d, predicted = count_identity(kind)
        assert by_d == predicted, kind


def test_so_count_identity_buckets():
    # SO_8: d = 0 (m = 4, #Irr W(D_4) = (20 + 3*2)/2) and d = 2 (m = 2, bip 5)
    so8 = GroupKind(Family.SO_EVEN, 8)
    assert count_identity(so8) == ({0: 13, 2: 5}, {0: 13, 2: 5})
    assert unipotent_census(so8)["pairs"] == 18
    # SO_9: d = 1 (m = 4, bip 20) and d = 3 (m = 0, bip 1)
    assert count_identity(GroupKind(Family.SO_ODD, 9)) == ({1: 20, 3: 1}, {1: 20, 3: 1})
    # SO_6: d = 0 with odd m = 3: bip(3)/2 = 5
    assert count_identity(GroupKind(Family.SO_EVEN, 6))[1] == {0: 5, 2: 2}


@pytest.mark.parametrize("family,n,buckets", [
    (Family.SO_ODD, 1, {1: 1}),          # d = 1 with m = 0; d = 0 leaves N - 0 odd
    (Family.SP, 2, {0: 2, 1: 1}),        # bip(1) = 2, and the cuspidal Sp_2 pair
    (Family.SO_EVEN, 2, {0: 1}),         # #Irr W(D_1) = bip(1)/2
    (Family.SO_EVEN, 4, {0: 4, 2: 1}),   # #Irr W(D_2) = (5 + 3)/2, and m = 0 at d = 2
    (Family.SP, 0, {0: 1}),              # bip(0)
    (Family.SO_EVEN, 0, {0: 1}),         # W(D_0) is trivial
], ids=["SO_1", "Sp_2", "SO_2", "SO_4", "Sp_0", "SO_0"])
def test_count_identity_edges(family, n, buckets):
    assert count_identity(GroupKind(family, n)) == (buckets, buckets)


def test_census_rejects_other_families():
    with pytest.raises(InvalidParameter):
        unipotent_census(GroupKind(Family.GL, 4))
    with pytest.raises(InvalidParameter):
        count_identity(GroupKind(Family.GL, 4))


def test_count_identity_checks_name_the_first_group_that_misses(monkeypatch):
    real = census.count_identity

    def one_too_many_at_size_4(kind):
        by_d, predicted = real(kind)
        if kind.size == 4:
            predicted = {**predicted, 0: predicted[0] + 1}
        return by_d, predicted

    monkeypatch.setattr(census, "count_identity", one_too_many_at_size_4)
    assert check_count_identity(6) == (
        False, "Sp_4: census 7 {0: 5, 1: 2} vs predicted 8 {0: 6, 1: 2}")
    assert check_so_count_identity(6) == (
        False, "SO_4: census 5 {0: 4, 2: 1} vs predicted 6 {0: 5, 2: 1}")
    assert check_count_identity(2) == (True, "Sp_N census matches for even N <= 2")
    assert check_so_count_identity(3) == (True, "SO_N census matches for N <= 3")


def test_springer_count_identity_range():
    sp_kinds = [kind for kind in classical_kinds(12) if kind.is_symplectic]
    assert [kind.size for kind in sp_kinds] == list(range(2, 13, 2))
    for kind in sp_kinds:
        by_d, predicted = count_identity(kind)
        assert by_d == predicted, kind


def test_enumerate_parameters_sp6():
    out = list(enumerate_parameters(GroupKind(Family.SP, 6)))
    assert len(out) == 6  # partitions (2,4) and (6): 4 + 2 sign vectors
    partitions = {tuple(a for _, a in p.blocks) for p, _ in out}
    assert partitions == {(2, 4), (6,)}
    for param, eta in out:
        assert validate_parameter(param.dual_group, param.blocks)
        assert set(eta.keys()) == set(param.block_keys())


def test_enumerate_parameters_n0_and_n2():
    assert len(list(enumerate_parameters(GroupKind(Family.SP, 0)))) == 1
    out = list(enumerate_parameters(GroupKind(Family.SP, 2)))
    assert len(out) == 2  # single block (2) with two characters


def test_enumerate_parameters_orthogonal_dedup():
    # for an orthogonal dual the two value tables of a character coincide
    out = list(enumerate_parameters(GroupKind(Family.SO_ODD, 9)))
    seen = set()
    for param, eta in out:
        desc_order = 2 ** max(0, len(param.blocks) - 1)
        key = (param.blocks, eta.values)
        assert key not in seen
        seen.add(key)
    by_param = {}
    for param, eta in out:
        by_param.setdefault(param.blocks, []).append(eta)
    for blocks, etas in by_param.items():
        assert len(etas) == 2 ** max(0, len(blocks) - 1)


def test_enumerate_parameters_two_labels():
    sig = (IrrLabel("a", 1, SelfDualType.ORTHOGONAL),
           IrrLabel("b", 1, SelfDualType.ORTHOGONAL))
    out = list(enumerate_parameters(GroupKind(Family.SP, 4), sig))
    # size splits: (4,0), (2,2), (0,4) -> blocks (a:4), (a:2)+(b:2), (b:4)
    assert len(out) == 2 + 4 + 2


def test_parameter_census_counts_cuspidals():
    out = list(enumerate_parameters(GroupKind(Family.SP, 6)))
    assert len(out) == 6
    # only (2,4) with signs (-,+)
    assert sum(is_cuspidal(param, eta) for param, eta in out) == 1


def test_signature_validation():
    with pytest.raises(InvalidParameter):
        list(enumerate_parameters(
            GroupKind(Family.SP, 4),
            (IrrLabel("g", 1, SelfDualType.GL_PAIR),)))
    with pytest.raises(InvalidParameter):
        list(enumerate_parameters(
            GroupKind(Family.SP, 4),
            (IrrLabel("x", 1, SelfDualType.ORTHOGONAL),
             IrrLabel("x", 1, SelfDualType.ORTHOGONAL))))


TWO_LABELS = (IrrLabel("a", 1, SelfDualType.ORTHOGONAL), IrrLabel("b", 2, SelfDualType.SYMPLECTIC))


def classical_duals(limit):
    """Sp_N, SO_N for every size N <= limit the family allows."""
    for n in range(limit + 1):
        for family in (Family.SP, Family.SO_EVEN) if n % 2 == 0 else (Family.SO_ODD,):
            yield GroupKind(family, n)


def flip_class(param, eta):
    return frozenset({eta.values, det_flip(param, eta).values})


@pytest.mark.parametrize("signature", [DEFAULT_SIGNATURE, TWO_LABELS],
                         ids=["default", "two-labels"])
def test_orthogonal_characters_are_the_smaller_table_of_their_flip_class(signature):
    for dual in classical_duals(14):
        if dual.is_symplectic:
            continue
        yielded = {}
        for param, eta in enumerate_parameters(dual, signature):
            assert eta.values <= det_flip(param, eta).values, (param, eta)
            classes = yielded.setdefault(param, [])
            classes.append(flip_class(param, eta))
        for param, classes in yielded.items():
            keys = param.block_keys()
            every = {flip_class(param, SignCharacter(dict(zip(keys, signs))))
                     for signs in itertools.product((1, -1), repeat=len(keys))}
            # each class once, and none missing
            assert sorted(classes, key=sorted) == sorted(every, key=sorted), param


def test_slices_are_the_per_label_filter_of_the_blocks():
    for dual in classical_duals(12):
        for signature in (DEFAULT_SIGNATURE, TWO_LABELS):
            for param in {param for param, _ in enumerate_parameters(dual, signature)}:
                labels = sorted({label for label, _ in param.blocks}, key=lambda lab: lab.name)
                naive = tuple((label, tuple(sorted(a for lab, a in param.blocks if lab == label)))
                              for label in labels)
                assert param.slices() == naive


@pytest.mark.parametrize("family", [Family.SP, Family.SO_EVEN], ids=lambda f: f.value)
def test_census_validates_each_partition_once(family, validated):
    kind = GroupKind(family, 12)
    table = unipotent_census(kind)
    assert table["pairs"] > 0
    assert sorted(validated) == sorted(partitions_of(12))


def test_validate_job_validates_its_partition_once(validated, feed_stdin, capsys):
    feed_stdin('{"command":"validate","group":{"family":"SOeven","N":8},"partition":[2,2,2,2]}')
    assert main(["validate", "--input", "-"]) == 0
    assert '"orbit_count": 2' in capsys.readouterr().out
    assert validated == [(2, 2, 2, 2)]


def test_defect_coherence_validates_each_partition_and_each_step_once(validated):
    # one validation per distinguished partition, as the census makes it, and
    # one per elimination step that leaves parts; none per sign vector
    limit, expected = 16, 0
    for n in range(1, limit + 1):
        for parity in ((0, 1) if n % 2 == 0 else (1,)):
            for parts in distinct_part_partitions(n, parity):
                expected += 1
                if len(parts) > 2:
                    expected += sum(len(removable_sites(signs))
                                    for signs in itertools.product((1, -1), repeat=len(parts)))
    assert check_defect_coherence(limit)[0]
    assert len(validated) == expected


def test_defect_coherence_reports_a_step_that_changes_the_defect(monkeypatch):
    # a deletion site list that also names pairs of unequal signs: removing
    # (1, 3) under (+, -) takes the defect 2 of SOeven_4 to 0, and the check
    # names the first such step
    monkeypatch.setattr(verifications, "removable_sites", lambda signs: range(len(signs) - 1))
    assert check_defect_coherence(6) == (False, "defect not conserved at SOeven_4 (3,1) (+,-) step 0")

