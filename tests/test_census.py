import pytest

from cusp_atlas.census import (
    bipartition_count,
    distinct_part_partitions,
    enumerate_parameters,
    group_partitions,
    parameter_census,
    partition_count,
    partitions_of,
    springer_count_identity,
    unipotent_census,
)
from cusp_atlas.errors import BoundExceeded, InvalidParameter
from cusp_atlas.lparams import IrrLabel, SelfDualType, validate_parameter
from cusp_atlas.orbits import Family, GroupKind


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


def test_census_rejects_other_families():
    with pytest.raises(InvalidParameter):
        unipotent_census(GroupKind(Family.GL, 4))


def test_springer_count_identity_range():
    for n in range(2, 13, 2):
        total, predicted, by_d, by_d_pred = springer_count_identity(n)
        assert total == predicted
        assert by_d == by_d_pred


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


def test_enumerate_parameters_bound():
    with pytest.raises(BoundExceeded):
        list(enumerate_parameters(GroupKind(Family.SP, 30), bound=10))


def test_parameter_census_counts_cuspidals():
    table = parameter_census(GroupKind(Family.SP, 6))
    assert table["parameters"] == 6
    assert table["cuspidal"] == 1  # only (2,4) with signs (-,+)


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
