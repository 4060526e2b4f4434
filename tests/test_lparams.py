import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import character_on, det_flip, reference_parameter_problems

from cusp_atlas.census import classical_kinds, enumerate_parameters
from cusp_atlas.errors import DomainMismatch, InvalidParameter
from cusp_atlas.lparams import (
    DiscreteParameter,
    ExponentMultiset,
    IrrLabel,
    ParameterCharacter,
    SelfDualType,
    block_group_type,
    infinitesimal_character,
    is_cuspidal,
    reducibility_point,
    sgroup_factors,
    signed_slices,
    slice_exponents,
    validate_parameter,
)
from cusp_atlas.orbits import (Family, GroupKind, Partition, SignCharacter, classical_kind,
                               cuspidal_pair)

ORTH1 = IrrLabel("p", 1, SelfDualType.ORTHOGONAL)
MU1 = IrrLabel("m1", 1, SelfDualType.ORTHOGONAL)
MU2 = IrrLabel("m2", 1, SelfDualType.ORTHOGONAL)
SYMP2 = IrrLabel("s", 2, SelfDualType.SYMPLECTIC)
GLP = IrrLabel("g", 1, SelfDualType.GL_PAIR)
P_OTHER = IrrLabel("p", 1, SelfDualType.GL_PAIR)  # ORTH1's name with other data
Q = IrrLabel("q", 2, SelfDualType.SYMPLECTIC)

SP4 = GroupKind(Family.SP, 4)
SP6 = GroupKind(Family.SP, 6)
SO7 = GroupKind(Family.SO_ODD, 7)


def test_validate_parameter_fixtures():
    assert validate_parameter(SP6, [(ORTH1, 2), (ORTH1, 4)])
    assert validate_parameter(SP4, [(MU1, 2), (MU2, 2)])
    bad = validate_parameter(SP4, [(ORTH1, 2), (ORTH1, 2)])
    assert not bad and any("repeated" in p for p in bad.problems)


def test_validate_parameter_parity_rules():
    # orthogonal label in a symplectic group: even sizes only
    assert not validate_parameter(SP4, [(ORTH1, 1), (ORTH1, 3)])
    # symplectic label in a symplectic group: odd sizes only
    assert validate_parameter(SP6, [(SYMP2, 1), (ORTH1, 4)])
    # orthogonal label in an odd special orthogonal group: odd sizes
    assert validate_parameter(SO7, [(ORTH1, 1), (ORTH1, 3), (ORTH1, 3)]) \
        .problems  # repeated block
    assert validate_parameter(SO7, [(ORTH1, 7)])
    assert not validate_parameter(SO7, [(ORTH1, 7)] + [(GLP, 0)])


def test_validate_parameter_dimension():
    verdict = validate_parameter(SP6, [(ORTH1, 2)])
    assert not verdict and any("dimension" in p for p in verdict.problems)


def test_validate_rejects_gl_dual():
    verdict = validate_parameter(GroupKind(Family.GL, 3), [(ORTH1, 3)])
    assert not verdict


def test_parameter_is_valid_by_construction():
    blocks = [(ORTH1, 3), (ORTH1, 1)]
    with pytest.raises(InvalidParameter) as err:
        DiscreteParameter(SP4, blocks)
    assert str(err.value) == ("{(p,1),(p,3)}: "
                              "block (p,1): an orthogonal label needs even sizes in Sp; "
                              "block (p,3): an orthogonal label needs even sizes in Sp")
    assert str(err.value).endswith("; ".join(validate_parameter(SP4, blocks).problems))


def test_parameter_refuses_a_block_size_that_is_not_an_integer():
    for a in (2.7, 2.0, "2", True):
        for read in (validate_parameter, DiscreteParameter):
            with pytest.raises(TypeError):
                read(GroupKind(Family.SP, 2), [(ORTH1, a)])
    assert DiscreteParameter(GroupKind(Family.SP, 2), [(ORTH1, 2)]).blocks == ((ORTH1, 2),)
    # a dual that is not classical is reported before the blocks are read,
    # by the validator and by the constructor alike
    gl2 = GroupKind(Family.GL, 2)
    text = "dual group GL_2 is not a classical dual (Sp / SOodd / SOeven)"
    for a in (2.7, 2.0, "2", True):
        assert validate_parameter(gl2, [(ORTH1, a)]).problems == (text,)
        with pytest.raises(InvalidParameter) as err:
            DiscreteParameter(gl2, [(ORTH1, a)])
        assert str(err.value) == f"{{(p,{a})}}: {text}"
    # the blocks are shown sorted, or as given when their sizes do not compare
    for blocks, shown in (([(ORTH1, 3), (ORTH1, 1)], "(p,1),(p,3)"),
                          ([(ORTH1, "2"), (ORTH1, 1)], "(p,2),(p,1)")):
        assert validate_parameter(gl2, blocks).problems == (text,)
        with pytest.raises(InvalidParameter) as err:
            DiscreteParameter(gl2, blocks)
        assert str(err.value) == f"{{{shown}}}: {text}"


def test_parameter_refuses_a_bool_block_size():
    with pytest.raises(TypeError, match=r"^expected an integer, got True$"):
        DiscreteParameter(GroupKind(Family.SO_ODD, 1), [(ORTH1, True)])


@pytest.mark.parametrize("dual", [SP4, GroupKind(Family.GL, 3)])
@pytest.mark.parametrize("block", [("u", 3), (ORTH1,), (ORTH1, 2, 2), 3, (2, ORTH1)])
def test_both_parameter_doors_refuse_a_block_that_is_not_a_label_and_a_size(dual, block):
    # one block door for both parameter doors, under a classical dual and
    # under any other: the same TypeError, naming the block, before any sort
    text = f"a block is an (IrrLabel, size) pair, got {block!r}"
    for blocks in ([block], [(ORTH1, 2), block]):
        for read in (validate_parameter, DiscreteParameter):
            with pytest.raises(TypeError) as err:
                read(dual, blocks)
            assert type(err.value) is TypeError and str(err.value) == text


def test_label_refuses_a_dimension_that_is_not_an_integer():
    for dim in (1.5, 1.0, True, "1"):
        with pytest.raises(TypeError):
            IrrLabel("p", dim, SelfDualType.ORTHOGONAL)
    assert IrrLabel("p", 2, SelfDualType.ORTHOGONAL).dim == 2


def test_label_refuses_a_dimension_below_one():
    for dim in (0, -2):
        with pytest.raises(ValueError, match=rf"^label dimension must be positive, got {dim}$"):
            IrrLabel("p", dim, SelfDualType.ORTHOGONAL)


def test_label_refuses_a_name_that_is_not_a_str():
    for name, shown in ((1, "int"), (None, "NoneType"), (("p",), "tuple"), (b"p", "bytes")):
        with pytest.raises(TypeError, match=rf"^a label name is a str, got {shown}$"):
            IrrLabel(name, 1, SelfDualType.ORTHOGONAL)


def test_label_reads_its_type_through_self_dual_type():
    # a member passes as it is, and a member's value becomes that member
    for sd_type in SelfDualType:
        assert IrrLabel("p", 1, sd_type).sd_type is sd_type
        label = IrrLabel("p", 1, sd_type.value)
        assert label.sd_type is sd_type and label == IrrLabel("p", 1, sd_type)
    for bad in ("weird", "Orthogonal", "", None, 1, ["orthogonal"]):
        with pytest.raises(ValueError) as err:
            IrrLabel("p", 1, bad)
        assert str(err.value) == \
            f"label type {bad!r} is not one of orthogonal, symplectic, gl-pair"


def test_a_label_given_its_type_as_a_string_is_validated_as_the_member():
    # the validator sees the member, so a parity problem is reported (a
    # string type would raise a bare AttributeError on its .value), and an
    # unknown type is refused when the label is built, not passed as valid
    u = IrrLabel("p", 1, "orthogonal")
    verdict = validate_parameter(SP6, [(u, 1), (u, 5)])
    assert verdict.problems == ("block (p,1): an orthogonal label needs even sizes in Sp",
                                "block (p,5): an orthogonal label needs even sizes in Sp")
    assert verdict == validate_parameter(SP6, [(ORTH1, 1), (ORTH1, 5)])
    with pytest.raises(ValueError, match=r"^label type 'weird' is not one of "):
        validate_parameter(SP6, [(IrrLabel("p", 1, "weird"), 6)])


def test_sign_character_refuses_generators_that_do_not_compare():
    for mapping in ({1: 1, "a": -1}, {("p", 1): 1, (2, 1): -1}, {("p", 1): 1, ("p", "1"): -1}):
        with pytest.raises(TypeError) as err:
            SignCharacter(mapping)
        assert str(err.value) == ("the generators of a SignCharacter must compare with each "
                                  f"other, got {tuple(mapping)!r}")
    # int keys, as an orbit-level table, and (name, a) keys stay accepted
    assert SignCharacter({3: -1, 1: 1}).values == ((1, 1), (3, -1))
    assert SignCharacter({("q", 1): 1, ("p", 3): -1}).keys() == (("p", 3), ("q", 1))


def test_validate_parameter_reports_a_repeated_block_once():
    verdict = validate_parameter(SP6, [(ORTH1, 3), (ORTH1, 3)])
    assert verdict.problems == ("repeated block (p,3)",
                                "block (p,3): an orthogonal label needs even sizes in Sp")
    assert validate_parameter(SP6, [(SYMP2, 2), (SYMP2, 1)]).problems == (
        "block (s,2): a symplectic label needs odd sizes in Sp",)
    # two labels of one name at one size, the first given again after the
    # other: the repeat is named once, the clash once, each label checked once
    blocks = [(ORTH1, 2), (P_OTHER, 2), (ORTH1, 2)]
    problems = ("repeated block (p,2)",
                "block (p,2): an orthogonal label needs odd sizes in SOeven",
                "label name 'p' used with two different data",
                "gl-pair label p in a discrete parameter",
                "blocks span dimension 6, expected 4")
    dual = GroupKind(Family.SO_EVEN, 4)
    assert reference_parameter_problems(dual, blocks) == problems
    assert validate_parameter(dual, blocks).problems == problems
    with pytest.raises(InvalidParameter) as err:
        DiscreteParameter(dual, blocks)
    assert str(err.value) == "{(p,2),(p,2),(p,2)}: " + "; ".join(problems)


def _name_and_size(block):
    return block[0].name, block[1]


def _block_lists() -> list[list[tuple[IrrLabel, int]]]:
    """Every list of at most four blocks with sizes -1..7 over two names, "p"
    also used with other data, and all three self-dual types (ORTH1, P_OTHER
    and Q), up to the order of blocks of different (name, size): each
    multiset comes in decreasing (name, size) order, once for each distinct
    order of the labels that share a (name, size)."""
    alphabet = [(label, a) for label in (ORTH1, P_OTHER, Q) for a in range(-1, 8)]
    lists = []
    for n in range(5):
        for multiset in itertools.combinations_with_replacement(alphabet, n):
            runs = [tuple(run) for _, run in itertools.groupby(
                sorted(multiset, key=_name_and_size, reverse=True), key=_name_and_size)]
            for orders in itertools.product(*(sorted(set(itertools.permutations(run)))
                                              for run in runs)):
                lists.append([block for run in orders for block in run])
    return lists


BLOCK_LISTS = _block_lists()


def _admissible(family: Family) -> list[int]:
    parity = {Family.SP: 0, Family.SO_EVEN: 0, Family.SO_ODD: 1, Family.O_ODD: 1}.get(family)
    return [n for n in range(15) if parity is None or n % 2 == parity]


_SO_BY_PARITY = (Family.SO_EVEN, Family.SO_ODD)


@pytest.mark.parametrize("family", [Family.SP, Family.SO_ODD, Family.SO_EVEN, Family.O_ODD,
                                    Family.GL], ids=lambda family: family.value)
def test_validate_parameter_matches_the_counting_oracle(family):
    # every bounded block list against a dual of the family with N <= 14: the
    # span of the blocks when the family admits it, else a size that cycles
    # through those it admits; the problems must be the oracle's, text and
    # order, and the constructor must raise them all, after the sorted blocks.
    # SOodd and SOeven share their parity rule, so they share the lists: SOodd
    # takes those of odd span, or of a span over 14 at an odd index
    duals = {n: GroupKind(family, n) for n in _admissible(family)}
    sizes = list(duals)
    assert len(BLOCK_LISTS) == 35695 and [(ORTH1, 2), (P_OTHER, 2), (ORTH1, 2)] in BLOCK_LISTS
    for i, blocks in enumerate(BLOCK_LISTS):
        span = sum(label.dim * a for label, a in blocks)
        if family in _SO_BY_PARITY and family is not _SO_BY_PARITY[
                (span if 0 <= span <= 14 else i) % 2]:
            continue
        dual = duals.get(span) or duals[sizes[i % len(sizes)]]
        problems = reference_parameter_problems(dual, blocks)
        assert validate_parameter(dual, blocks).problems == problems, (dual, blocks)
        ordered = sorted(blocks, key=_name_and_size)
        try:
            param = DiscreteParameter(dual, blocks)
        except InvalidParameter as exc:
            inner = ",".join(f"({label},{a})" for label, a in ordered)
            assert str(exc) == f"{{{inner}}}: " + "; ".join(problems), (dual, blocks)
        else:
            assert not problems and list(param.blocks) == ordered, (dual, blocks)


def test_block_group_type_table():
    # the generator parity of the group that acts: 0 for Sp, 1 for O
    assert block_group_type(SP6, SYMP2) == 1
    assert block_group_type(SP6, ORTH1) == 0
    assert block_group_type(SO7, ORTH1) == 1
    assert block_group_type(SO7, SYMP2) == 0
    with pytest.raises(InvalidParameter, match="^gl-pair labels have no block parity rule$"):
        block_group_type(SP6, GLP)


def sign_tables(p: DiscreteParameter) -> list[ParameterCharacter]:
    """Every value table on the blocks of p."""
    return [character_on(p, signs)
            for signs in itertools.product((1, -1), repeat=len(p.blocks))]


def test_sgroup_factors_symplectic_dual_truth_table():
    # the center -1 acts by -1 on every block: eta factors iff its product is 1
    param = DiscreteParameter(SP6, [(ORTH1, 2), (ORTH1, 4)])
    assert [eta.values for eta in sign_tables(param) if sgroup_factors(param, eta)] == [
        ((("p", 2), 1), (("p", 4), 1)), ((("p", 2), -1), (("p", 4), -1))]


def test_sgroup_factors_orthogonal_dual_truth_table():
    # odd special orthogonal dual: trivial center, every table factors
    param = DiscreteParameter(SO7, [(ORTH1, 1), (ORTH1, 3),
                                    (IrrLabel("q", 3, SelfDualType.ORTHOGONAL), 1)])
    assert all(sgroup_factors(param, eta) for eta in sign_tables(param))
    # even special orthogonal dual: the center -1 acts by -1 on every block
    param = DiscreteParameter(GroupKind(Family.SO_EVEN, 4), [(MU1, 1), (MU2, 3)])
    assert [sgroup_factors(param, eta) for eta in sign_tables(param)] == [True, False, False, True]


def component_group_order_oracle(p: DiscreteParameter) -> int:
    """Brute-force order of the component group over F_2."""
    keys = p.block_keys()
    dims = {key: label.dim * a for (label, a), key in zip(p.blocks, p.block_keys())}
    count = 0
    for subset in itertools.product((0, 1), repeat=len(keys)):
        if p.dual_group.is_symplectic:
            count += 1
            continue
        weight = sum(dims[key] for key, bit in zip(keys, subset) if bit)
        if weight % 2 == 0:
            count += 1
    return count


def characters_up_to_det_flip(p: DiscreteParameter) -> int:
    """The number of value tables, a table and its det_flip counted once."""
    return len({frozenset((eta.values, det_flip(p, eta).values)) for eta in sign_tables(p)})


def test_component_group_order_against_f2_oracle():
    cases = [
        DiscreteParameter(SP6, [(ORTH1, 2), (ORTH1, 4)]),
        DiscreteParameter(SO7, [(ORTH1, 1), (ORTH1, 3),
                                (IrrLabel("q", 3, SelfDualType.ORTHOGONAL), 1)]),
        DiscreteParameter(GroupKind(Family.SO_EVEN, 8),
                          [(IrrLabel("a", 2, SelfDualType.ORTHOGONAL), 1),
                           (IrrLabel("b", 2, SelfDualType.ORTHOGONAL), 3)]),
        DiscreteParameter(GroupKind(Family.SO_EVEN, 6),
                          [(IrrLabel("a", 1, SelfDualType.ORTHOGONAL), 3),
                           (IrrLabel("b", 3, SelfDualType.ORTHOGONAL), 1)]),
    ]
    for param in cases:
        order = component_group_order_oracle(param)
        assert characters_up_to_det_flip(param) == order
        signature = tuple(dict.fromkeys(label for label, _ in param.blocks))
        kept = [eta for other, eta in enumerate_parameters(param.dual_group, signature)
                if other == param]
        assert len(kept) == order


def test_sgroup_factors():
    param = DiscreteParameter(SP4, [(MU1, 2), (MU2, 2)])
    assert sgroup_factors(param, character_on(param, (-1, -1)))
    assert not sgroup_factors(param, character_on(param, (1, -1)))
    # odd special orthogonal dual has trivial center: everything factors
    param = DiscreteParameter(SO7, [(ORTH1, 7)])
    assert sgroup_factors(param, character_on(param, (-1,)))


def test_sgroup_factors_reads_its_character_through_signed_slices(signs_read):
    # one read, on the block keys, with signed_slices' domain text
    param = DiscreteParameter(SP4, [(MU1, 2), (MU2, 2)])
    eta = character_on(param, (-1, -1))
    assert sgroup_factors(param, eta) is True
    assert signs_read == [param.block_keys()]
    slices = signed_slices(param, eta)
    assert sgroup_factors(param, eta, slices=slices) is True
    assert signs_read == [param.block_keys()] * 2  # the slices' read, and none more
    odd = DiscreteParameter(SO7, [(ORTH1, 7)])
    for p in (param, odd):  # an odd SO dual reads its character all the same
        for read in (sgroup_factors, signed_slices):
            with pytest.raises(DomainMismatch) as err:
                read(p, SignCharacter({("m1", 2): 1}))
            assert str(err.value) == \
                f"character domain (('m1', 2),) does not match blocks of {p}"


def test_is_cuspidal_fixtures():
    param = DiscreteParameter(SP4, [(MU1, 2), (MU2, 2)])
    assert is_cuspidal(param, character_on(param, (-1, -1)))
    assert not is_cuspidal(param, character_on(param, (1, 1)))

    param = DiscreteParameter(SP6, [(ORTH1, 2), (ORTH1, 4)])
    assert not is_cuspidal(param, character_on(param, (1, -1)))   # min even block not -1
    assert is_cuspidal(param, character_on(param, (-1, 1)))

    gapped = DiscreteParameter(GroupKind(Family.SP, 8), [(ORTH1, 2), (ORTH1, 6)])
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        assert not is_cuspidal(gapped, character_on(gapped, signs))


def test_is_cuspidal_reads_its_character_before_it_decides(signs_read):
    # a character on other blocks raises signed_slices' DomainMismatch, as in
    # sgroup_factors, even where the gap above 2 alone would decide
    param = DiscreteParameter(SP6, [(ORTH1, 6)])
    for read in (is_cuspidal, sgroup_factors):
        with pytest.raises(DomainMismatch) as err:
            read(param, SignCharacter({("w", 9): 1}))
        assert str(err.value) == "character domain (('w', 9),) does not match blocks of {(p,6)}"
    # one read, on the block keys, and none more when handed the slices
    signs_read.clear()
    eta = character_on(param, (-1,))
    assert is_cuspidal(param, eta) is False
    assert signs_read == [param.block_keys()]
    assert is_cuspidal(param, eta, slices=signed_slices(param, eta)) is False
    assert signs_read == [param.block_keys()] * 2


def test_is_cuspidal_agrees_with_the_cuspidal_pair_of_each_slice():
    # the paper's statement: (phi, eps) is cuspidal exactly when each label's
    # slice, with its signs, is the cuspidal pair of its centralizer factor,
    # Sp or SO of the slice's total by the parity of its sizes
    u = IrrLabel("u", 1, SelfDualType.ORTHOGONAL)
    v = IrrLabel("v", 1, SelfDualType.SYMPLECTIC)
    w = IrrLabel("w", 2, SelfDualType.ORTHOGONAL)
    checked = cuspidal = 0
    for signature in ((u,), (u, v), (u, w)):
        for dual in classical_kinds(18):
            for param, eta in enumerate_parameters(dual, signature):
                pairs = [(cuspidal_pair(classical_kind(sizes[0] % 2, sum(sizes))), sizes, signs)
                         for _, sizes, signs in signed_slices(param, eta)]
                by_pairs = all(pair is not None and pair.partition == Partition(sizes)
                               and signs in pair.characters for pair, sizes, signs in pairs)
                assert is_cuspidal(param, eta) is by_pairs, (param, eta)
                checked += 1
                cuspidal += by_pairs
    assert (checked, cuspidal) == (3601, 72)


def test_is_cuspidal_respects_det_flip():
    dual = GroupKind(Family.SO_EVEN, 4)
    param = DiscreteParameter(dual, [(MU1, 1), (MU2, 3)])
    eta = character_on(param, (1, -1))
    assert is_cuspidal(param, eta) == is_cuspidal(param, det_flip(param, eta))


def test_infinitesimal_character():
    param = DiscreteParameter(GroupKind(Family.SO_ODD, 3), [(ORTH1, 3)])
    ent = infinitesimal_character(param)
    assert ent == ExponentMultiset([(ORTH1, 2), (ORTH1, 0), (ORTH1, -2)])
    param = DiscreteParameter(SP6, [(ORTH1, 2), (ORTH1, 4)])
    ent = infinitesimal_character(param)
    assert ent.multiplicity(ORTH1, 1) == 2
    assert ent.multiplicity(ORTH1, 3) == 1
    assert ent.multiplicity(ORTH1, -1) == 2
    assert len(ent) == 6
    assert infinitesimal_character(
        DiscreteParameter(GroupKind(Family.SP, 0), [])) == ExponentMultiset()


def test_exponent_multiset_operations():
    m = slice_exponents(ORTH1, (4,))
    assert m.is_symmetric()
    half = m.nonnegative_half()
    assert half == ExponentMultiset([(ORTH1, 3), (ORTH1, 1)])
    assert half.union(half.negated()) == m
    with pytest.raises(InvalidParameter):
        half.minus(m)


def test_reducibility_point():
    jord = DiscreteParameter(SP6, [(ORTH1, 2), (ORTH1, 4)])
    assert reducibility_point(ORTH1, jord.blocks, SP6) == 5
    absent_same = IrrLabel("t", 2, SelfDualType.SYMPLECTIC)
    assert reducibility_point(absent_same, jord.blocks, SP6) == 1
    absent_diff = IrrLabel("t", 1, SelfDualType.ORTHOGONAL)
    assert reducibility_point(absent_diff, (), SP6) == 0
    with pytest.raises(InvalidParameter):
        reducibility_point(GLP, jord.blocks, SP6)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the absent-label branch of "
                   "reducibility_point returns the block parity, not 1 - parity")
@pytest.mark.parametrize("dual", [GroupKind(Family.SP, 0), GroupKind(Family.SO_EVEN, 0)],
                         ids=str)
@pytest.mark.parametrize("label", [ORTH1, SYMP2], ids=str)
def test_reducibility_point_absent_label(dual, label):
    # x = (a_max + 1)/2 with a_max the largest block the label could have and
    # does not: 0 on the Sp side (even sizes), -1 on the O side (odd sizes),
    # so 2x = 1 on the Sp side and 0 on the O side
    assert reducibility_point(label, (), dual) == 1 - block_group_type(dual, label)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=3),
                          st.integers(min_value=1, max_value=4)),
                min_size=1, max_size=4, unique=True))
def test_component_group_oracle_on_random_orthogonal_signatures(raw):
    # random multi-label data for an even special orthogonal dual group
    blocks = []
    for i, (dim, half_a) in enumerate(raw):
        blocks.append((IrrLabel(f"l{i}", dim, SelfDualType.ORTHOGONAL), 2 * half_a - 1))
    total = sum(lab.dim * a for lab, a in blocks)
    if total % 2:
        return  # not an even-size group; skip silently
    dual = GroupKind(Family.SO_EVEN, total)
    if not validate_parameter(dual, blocks):
        return
    param = DiscreteParameter(dual, blocks)
    assert characters_up_to_det_flip(param) == component_group_order_oracle(param)


def test_character_domain_checks():
    param = DiscreteParameter(SP4, [(MU1, 2), (MU2, 2)])
    with pytest.raises(DomainMismatch):
        sgroup_factors(param, SignCharacter({("m1", 2): 1}))
    with pytest.raises(DomainMismatch):
        character_on(param, (1,))
