import itertools
from dataclasses import replace

import pytest

from conftest import (_spy, det_flip, pair_symbol, recursive_partitions,
                      reference_kept_characters, row_bits, set_algebra_swapped_symbol)

from cusp_atlas.cli import MAX_CENSUS_SIZE, main

from cusp_atlas.census import (
    DEFAULT_SIGNATURE,
    bipartition_count,
    classical_kinds,
    count_identity,
    distinct_part_partitions,
    enumerate_parameters,
    group_partitions,
    partition_count,
    unipotent_census,
)
from cusp_atlas.cuspsupport import check_support
from cusp_atlas.errors import DomainMismatch, InternalCheckError, InvalidParameter
from cusp_atlas.lparams import IrrLabel, SelfDualType, is_cuspidal, validate_parameter
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
from cusp_atlas.symbols import USymbol
from cusp_atlas import census, orbits, verifications
from cusp_atlas.verifications import (
    check_count_identity,
    check_defect_coherence,
    check_so_count_identity,
)


def brute_bipartitions(n):
    out = 0
    for a in range(n + 1):
        out += len(list(recursive_partitions(a))) * len(list(recursive_partitions(n - a)))
    return out


def test_partition_count_matches_enumeration():
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [partition_count(n) for n in range(11)] == known
    # the recurrence against the GL census, which builds every partition as a
    # class, and against the textbook recursion; none below 0
    for n in range(25):
        walks = (group_partitions(GroupKind(Family.GL, n)), recursive_partitions(n))
        assert [partition_count(n)] * 2 == [sum(1 for _ in walk) for walk in walks], n
    assert [partition_count(n) for n in range(-5, 0)] == [0] * 5


@pytest.mark.parametrize("enumerator, generator, built", [
    (group_partitions, "class_partitions", lambda n, paired, top: iter([(4,), (3, 1)])),
    (census.distinguished_orbits, "distinct_part_partitions", lambda n, parity: iter([(1, 3)])),
], ids=["group_partitions", "distinguished_orbits"])
def test_a_built_partition_that_is_not_a_class_is_an_internal_error(
        monkeypatch, enumerator, generator, built):
    # Sp_4 has no class (3, 1): the census refuses it rather than drop it
    monkeypatch.setattr(census, generator, built)
    orbits_built = enumerator(GroupKind(Family.SP, 4))
    if enumerator is group_partitions:
        assert next(orbits_built).partition.parts == (4,)
    with pytest.raises(InternalCheckError) as err:
        next(orbits_built)
    assert str(err.value) == ("the census built (3,1), which is not a Sp_4 partition: "
                              "odd part 1 has odd multiplicity 1; odd part 3 has odd multiplicity 1")


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


# the parity of the parts that come in pairs: odd in Sp, even in SO and O
PAIRED_PARITY = {Family.SP: 1, Family.SO_ODD: 0, Family.SO_EVEN: 0,
                 Family.O_ODD: 0, Family.O_EVEN: 0, Family.GL: None}


def admissible_kinds(family, limit):
    for n in range(1, limit + 1):
        try:
            yield GroupKind(family, n)
        except ValueError:  # a size of the wrong parity
            continue


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_group_partitions_count_is_the_generating_function_coefficient(family):
    # prod over q of 1/(1 - t^(q k_q)), k_q = 2 on a part of the paired parity
    # and 1 otherwise, expanded by polynomial multiplication up to t^limit
    limit = MAX_CENSUS_SIZE
    coeffs = [1] + [0] * limit
    for q in range(1, limit + 1):
        step = q * (2 if q % 2 == PAIRED_PARITY[family] else 1)
        for i in range(step, limit + 1):
            coeffs[i] += coeffs[i - step]
    kinds = list(admissible_kinds(family, limit))
    assert len(kinds) == (limit if family is Family.GL else limit // 2)
    for kind in kinds:
        assert sum(1 for _ in group_partitions(kind)) == coeffs[kind.size], kind


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_group_partitions_are_the_filter_of_all_partitions_in_order(family):
    for kind in admissible_kinds(family, 20):
        expected = [parts for parts in recursive_partitions(kind.size)
                    if validate_partition(kind, Partition(parts))]
        assert [o.partition.parts for o in group_partitions(kind)] == expected, kind


def test_unipotent_census_sp4():
    table = unipotent_census(GroupKind(Family.SP, 4))
    assert table == {"pairs": 7, "by_d": {0: 5, 1: 2}}


def census_one_symbol_per_pair(kind):
    """The census with one symbol built from its validated partition per
    (partition, character), its rows through the set algebra on the two-row
    split rather than `interval_structure` and `swapped_symbol`."""
    total, by_d = 0, {}
    for parts in recursive_partitions(kind.size):
        p = Partition(parts)
        verdict = validate_partition(kind, p)
        if not verdict:
            continue
        copies = orbit_count(verdict.orbit)
        for signs in characters_of(component_group(verdict.orbit)):
            row_a, row_b = set_algebra_swapped_symbol(kind, p, signs)
            symbol = USymbol(kind.generator_parity, row_bits(row_a), row_bits(row_b))
            d = d_from_defect(kind, symbol.defect)
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


@pytest.mark.parametrize("dual", [GroupKind(Family.SP, 8), GroupKind(Family.SO_ODD, 9),
                                  GroupKind(Family.SO_EVEN, 10)], ids=str)
def test_enumerate_parameters_yields_the_characters_a_comparison_of_tables_keeps(dual):
    # the sign tuples are compared with their determinant flips before any
    # character is built: the yielded sequence is the one that building each
    # table and its flip and comparing them gives, in the same order
    yielded = list(enumerate_parameters(dual, TWO_LABELS))
    params = list(dict.fromkeys(param for param, _ in yielded))
    assert len(params) > 1 and any(len({label for label, _ in p.blocks}) == 2 for p in params)
    assert yielded == [(param, eta) for param in params
                       for eta in reference_kept_characters(param)]


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
    # only the classes of the group are built: each is validated once, no
    # invalid partition is, and they come in the order of the filter
    kind = GroupKind(family, 12)
    table = unipotent_census(kind)
    assert table["pairs"] > 0
    seen = list(validated)
    validated.clear()
    yielded = [o.partition.parts for o in group_partitions(kind)]
    assert validated == yielded == seen
    assert len(set(seen)) == len(seen)
    expected = [parts for parts in recursive_partitions(12)
                if validate_partition(kind, Partition(parts))]
    assert seen == expected
    assert 0 < len(expected) < partition_count(12)


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


def test_pair_checks_name_the_failing_pair_alike(monkeypatch):
    # every failure of the defect and order checks names its pair as the
    # group, the partition and the signs printed as a character: here the
    # first pair checked, SOodd_1 (1) with the sign +
    monkeypatch.setattr(verifications, "swapped_symbol", lambda structure, signs: USymbol(1, 0, 0))
    assert check_defect_coherence(4) == (False, "defect mismatch at SOodd_1 (1) (+)")
    monkeypatch.undo()
    monkeypatch.setattr(verifications, "outcome_supports", lambda *args: {1, 2})
    assert verifications.check_order_independence(4) == (False, "2 supports for SOodd_1 (1) (+)")
    monkeypatch.setattr(verifications, "elimination_outcomes",
                        lambda parts, signs: {(parts, signs, ()), ((), (), ())})
    assert verifications.check_order_independence(4) == \
        (False, "2 normal-form contents for SOodd_1 (1) (+)")


def test_support_invariants_report_a_failed_route_and_a_failed_law(monkeypatch):
    # both failures name the first parameter checked, SOodd_1 {(u,1)} (-)
    def routes_disagree(param, eta):
        raise InternalCheckError("routes disagree")

    monkeypatch.setattr(verifications, "check_support", routes_disagree)
    assert verifications.check_support_invariants(2) == (False, "{(u,1)} (-): routes disagree")
    monkeypatch.setattr(verifications, "check_support",
                        lambda param, eta: replace(check_support(param, eta), idempotent=False))
    assert verifications.check_support_invariants(2) == (False, "{(u,1)} (-): ('idempotent',)")


def test_run_all_reports_a_crash_as_a_failed_check(monkeypatch):
    def crash(limit):
        raise ValueError("no census")

    monkeypatch.setattr(verifications, "check_count_identity", crash)
    results = verifications.run_all(verifications.Limits(2, 2, 2, 2, 2))
    assert results[0] == ("count-identity", False, "ValueError: no census")
    assert [ok for _, ok, _ in results] == [False] + [True] * 5


def test_unipotent_cuspidal_count_matches_lusztig():
    # Lusztig: a unipotent supercuspidal of split Sp_2n is induced from a
    # maximal parahoric with quotient Sp_2a(q) x Sp_2b(q), a + b = n, and
    # Sp_2a(q) has one cuspidal unipotent character iff a = s(s+1); so there
    # are L(n) = #{(s, t) >= 0 : s(s+1) + t(t+1) = n} of them.  On the Galois
    # side they are the cuspidal pairs of SO_{2n+1} on the unramified labels
    # 1 and xi, with the staircases of sizes (odd, even) of (s + t + 1, |s - t|)
    one = IrrLabel("1", 1, SelfDualType.ORTHOGONAL)
    xi = IrrLabel("xi", 1, SelfDualType.ORTHOGONAL)
    for n in range(1, 17):
        cuspidal = [p for p, eta in enumerate_parameters(GroupKind(Family.SO_ODD, 2 * n + 1),
                                                         (one, xi)) if is_cuspidal(p, eta)]
        # formal labels cannot see det phi = xi^(xi-total), which must be 1
        unramified = [p for p in cuspidal if sum(a for label, a in p.blocks if label == xi) % 2 == 0]
        solutions = [(s, t) for s in range(n + 1) for t in range(n + 1)
                     if s * (s + 1) + t * (t + 1) == n]
        assert len(unramified) == len(solutions)
        blocks = [(sum(label == one for label, _ in p.blocks),
                   sum(label == xi for label, _ in p.blocks)) for p in unramified]
        sizes = [tuple(sorted((s + t + 1, abs(s - t)), key=lambda k: 1 - k % 2))
                 for s, t in solutions]
        assert sorted(blocks) == sorted(sizes)
        # twisting by xi swaps the labels: without the filter, twice as many
        assert len(cuspidal) == 2 * len(unramified)
