import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import character_on

from cusp_atlas.census import enumerate_parameters
from cusp_atlas.errors import DomainMismatch, InvalidParameter
from cusp_atlas.lparams import (
    DiscreteParameter,
    ExponentMultiset,
    IrrLabel,
    ParameterCharacter,
    SelfDualType,
    block_exponents,
    block_group_type,
    det_flip,
    infinitesimal_character,
    is_cuspidal,
    reducibility_point,
    sgroup_factors,
    validate_parameter,
)
from cusp_atlas.orbits import Family, GroupKind, SignCharacter

ORTH1 = IrrLabel("p", 1, SelfDualType.ORTHOGONAL)
MU1 = IrrLabel("m1", 1, SelfDualType.ORTHOGONAL)
MU2 = IrrLabel("m2", 1, SelfDualType.ORTHOGONAL)
SYMP2 = IrrLabel("s", 2, SelfDualType.SYMPLECTIC)
GLP = IrrLabel("g", 1, SelfDualType.GL_PAIR)

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
    for a in (2.7, 2.0, "2"):
        with pytest.raises(TypeError):
            DiscreteParameter(GroupKind(Family.SP, 2), [(ORTH1, a)])
    assert DiscreteParameter(GroupKind(Family.SP, 2), [(ORTH1, 2)]).blocks == ((ORTH1, 2),)


def test_parameter_refuses_a_bool_block_size():
    with pytest.raises(TypeError, match=r"^expected an integer, got True$"):
        DiscreteParameter(GroupKind(Family.SO_ODD, 1), [(ORTH1, True)])


def test_label_refuses_a_dimension_that_is_not_an_integer():
    for dim in (1.5, 1.0, True, "1"):
        with pytest.raises(TypeError):
            IrrLabel("p", dim, SelfDualType.ORTHOGONAL)
    assert IrrLabel("p", 2, SelfDualType.ORTHOGONAL).dim == 2


def test_validate_parameter_reports_a_repeated_block_once():
    verdict = validate_parameter(SP6, [(ORTH1, 3), (ORTH1, 3)])
    assert verdict.problems == ("repeated block (p,3)",
                                "block (p,3): an orthogonal label needs even sizes in Sp")
    assert validate_parameter(SP6, [(SYMP2, 2), (SYMP2, 1)]).problems == (
        "block (s,2): a symplectic label needs odd sizes in Sp",)


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
    m = block_exponents(ORTH1, 4)
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
