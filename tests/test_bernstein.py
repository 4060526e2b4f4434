import pytest

from cusp_atlas.bernstein import (
    GLFactor,
    InertialTriple,
    RootType,
    hecke_parameters,
    torus_dim,
    weyl_descriptor,
)
from cusp_atlas.errors import NormalizationError
from cusp_atlas.lparams import DiscreteParameter, IrrLabel, SelfDualType
from cusp_atlas.orbits import Family, GroupKind

R = IrrLabel("r", 1, SelfDualType.ORTHOGONAL)
S = IrrLabel("s", 2, SelfDualType.SYMPLECTIC)
T = IrrLabel("t", 1, SelfDualType.ORTHOGONAL)
G = IrrLabel("g", 1, SelfDualType.GL_PAIR)

EMPTY_SP = DiscreteParameter(GroupKind(Family.SP, 0), [])
EMPTY_SO_EVEN = DiscreteParameter(GroupKind(Family.SO_EVEN, 0), [])


def sp_triple(factors, blocks, total):
    cusp = DiscreteParameter(GroupKind(Family.SP, sum(l.dim * a for l, a in blocks)), blocks)
    return InertialTriple(GroupKind(Family.SP, total), factors, cusp)


def test_weyl_factor_types():
    # self-dual label with classical blocks: type B
    t = sp_triple([GLFactor(R, 2)], [(R, 2), (R, 4)], 10)
    wd = weyl_descriptor(t)
    assert (wd.factors[0].root_type, wd.factors[0].rank, wd.factors[0].star) == \
        (RootType.B, 2, False)

    # gl-pair label: type A_{ell-1}
    t = sp_triple([GLFactor(G, 3)], [(R, 2), (R, 4)], 12)
    assert weyl_descriptor(t).factors[0].root_type is RootType.A
    assert weyl_descriptor(t).factors[0].rank == 2

    # sp-side label absent from the blocks: type C
    t = sp_triple([GLFactor(T, 2)], [(R, 2), (R, 4)], 10)
    assert weyl_descriptor(t).factors[0].root_type is RootType.C

    # o-side label absent: type D with star
    t = sp_triple([GLFactor(S, 2)], [(R, 2), (R, 4)], 14)
    wf = weyl_descriptor(t).factors[0]
    assert (wf.root_type, wf.star) == (RootType.D, True)

    # ell = 0: trivial tag
    t = sp_triple([GLFactor(R, 0)], [(R, 2), (R, 4)], 6)
    assert weyl_descriptor(t).factors[0].root_type is RootType.TRIVIAL


def test_star_only_for_o_side_without_blocks():
    t = sp_triple([GLFactor(S, 2), GLFactor(T, 1), GLFactor(G, 2)],
                  [(R, 2), (R, 4)], 20)
    for wf in weyl_descriptor(t).factors:
        if wf.star:
            assert wf.root_type is RootType.D
    assert [wf.star for wf in weyl_descriptor(t).factors] == [True, False, False]


def test_r_group_split_case():
    # symplectic ambient dual: every starred factor contributes its flip
    t = sp_triple([GLFactor(S, 2)], [(R, 2), (R, 4)], 14)
    rg = weyl_descriptor(t).r_group
    assert rg.case == "split" and rg.order == 2


def test_r_group_so_even_with_classical_block():
    q = IrrLabel("q", 1, SelfDualType.ORTHOGONAL)
    cusp = DiscreteParameter(GroupKind(Family.SO_EVEN, 4), [(q, 1), (q, 3)])
    t = InertialTriple(GroupKind(Family.SO_EVEN, 8), [GLFactor(T, 2)], cusp)
    rg = weyl_descriptor(t).r_group
    assert rg.case == "so-even-classical" and rg.order == 2


def test_r_group_so_even_gl_levi_pairs_odd_dimensions():
    u = IrrLabel("u", 1, SelfDualType.ORTHOGONAL)
    v = IrrLabel("v", 1, SelfDualType.ORTHOGONAL)
    w = IrrLabel("w", 2, SelfDualType.ORTHOGONAL)
    t = InertialTriple(GroupKind(Family.SO_EVEN, 16),
                       [GLFactor(u, 2), GLFactor(v, 2), GLFactor(w, 2)],
                       EMPTY_SO_EVEN)
    rg = weyl_descriptor(t).r_group
    assert rg.case == "so-even-gl-levi"
    # the even-dimensional label flips alone; the two odd ones only in a pair
    assert len(rg.generators) == 2
    assert any("*" in g for g in rg.generators)

    # a single odd-dimensional starred factor contributes nothing
    t = InertialTriple(GroupKind(Family.SO_EVEN, 4), [GLFactor(u, 2)], EMPTY_SO_EVEN)
    assert weyl_descriptor(t).r_group.order == 1


def test_weyl_descriptor_invariant_under_factor_permutation():
    f1, f2 = GLFactor(R, 2), GLFactor(G, 3)
    blocks = [(R, 2), (R, 4)]
    left = weyl_descriptor(sp_triple([f1, f2], blocks, 16))
    right = weyl_descriptor(sp_triple([f2, f1], blocks, 16))
    def facts(descriptor):
        return sorted((f.label.name, f.root_type, f.rank, f.star) for f in descriptor.factors)

    assert facts(left) == facts(right)
    assert left.r_group.order == right.r_group.order


def test_hecke_parameters_present_label():
    t = sp_triple([GLFactor(R, 2)], [(R, 2), (R, 4)], 10)
    f = hecke_parameters(t, {"r": 1})[0]
    assert f.x_plus == 5
    assert f.x_plus == 4 + 1  # the short-root identity 2x+ = a + 1
    assert f.mu_short == f.lam + f.lam_star
    f = hecke_parameters(t, {"r": -1})[0]
    assert f.mu_short == 2 * f.x_minus


def test_hecke_parameters_partner_block_total():
    # the companion twist carries blocks of total 2, i.e. a staircase (2)
    t = sp_triple([GLFactor(R, 2, partner_mprime=2)], [(R, 2), (R, 4)], 10)
    f = hecke_parameters(t)[0]
    assert f.x_minus == 3
    assert f.lam == 2 * 4 and f.lam_star == 2 * 1
    assert f.mu_short == 2 * 5  # theta defaults to +1


def test_hecke_parameters_huge_partner_block_total():
    # d = 10**20: the staircase 2+4+...+2d has a 41-digit total, read in closed form
    d = 10**20
    total = d * (d + 1)
    t = sp_triple([GLFactor(R, 0, partner_mprime=total)], [(R, total)], total)
    f = hecke_parameters(t)[0]
    assert f.x_minus == 2 * d + 1 and f.x_plus == total + 1
    q = IrrLabel("q", 1, SelfDualType.ORTHOGONAL)
    cusp = DiscreteParameter(GroupKind(Family.SO_ODD, d * d + 1), [(q, d * d + 1)])
    t = InertialTriple(cusp.dual_group, [GLFactor(q, 0, partner_mprime=d * d)], cusp)
    assert hecke_parameters(t)[0].x_minus == 2 * d


def test_hecke_parameters_partner_total_off_the_staircase():
    t = sp_triple([GLFactor(R, 2, partner_mprime=4)], [(R, 2), (R, 4)], 10)
    with pytest.raises(NormalizationError, match=r"^4 is not a staircase total 2\+4\+\.\.\.\+2d$"):
        hecke_parameters(t)
    q = IrrLabel("q", 1, SelfDualType.ORTHOGONAL)
    cusp = DiscreteParameter(GroupKind(Family.SO_ODD, 9), [(q, 1), (q, 3), (q, 5)])
    t = InertialTriple(GroupKind(Family.SO_ODD, 13), [GLFactor(q, 2, partner_mprime=8)], cusp)
    with pytest.raises(NormalizationError,
                       match=r"^8 is not a staircase total 1\+3\+\.\.\.\+\(2d-1\)$"):
        hecke_parameters(t)


def test_hecke_parameters_o_side_half_point():
    # o-side label present, partner absent but type-matched: x- = 1/2
    q = IrrLabel("q", 1, SelfDualType.ORTHOGONAL)
    cusp = DiscreteParameter(GroupKind(Family.SO_ODD, 9), [(q, 1), (q, 3), (q, 5)])
    t = InertialTriple(GroupKind(Family.SO_ODD, 13), [GLFactor(q, 2)], cusp)
    f = hecke_parameters(t, {"q": 1})[0]
    assert f.x_plus == 2 * 3 and f.x_minus == 1
    assert f.mu_short == f.x_plus * 2 == 2 * (5 + 1)
    assert hecke_parameters(t, {"q": -1})[0].mu_short == 2 * 1


def test_hecke_parameters_unnormalized_triple_message():
    # the factor label shares the name r with the cusp blocks but not their
    # dimension; m' matches blocks by name and x+ by the whole label, so the
    # triple is refused as it is built, with the words validate_parameter uses
    r2 = IrrLabel("r", 2, SelfDualType.ORTHOGONAL)
    with pytest.raises(NormalizationError) as err:
        sp_triple([GLFactor(r2, 1, partner_mprime=2)], [(R, 2), (R, 4)], 10)
    assert str(err.value) == "label name 'r' used with two different data"


def test_hecke_parameters_absent_mismatch():
    t = sp_triple([GLFactor(T, 2)], [(R, 2), (R, 4)], 10)
    f = hecke_parameters(t)[0]
    assert f.x_plus == 0 and f.x_minus == 0
    assert f.root_type is RootType.C and f.mu_short is None and f.mu_other == 2


def test_hecke_gl_pair_factor_is_constant():
    t = sp_triple([GLFactor(G, 3)], [(R, 2), (R, 4)], 12)
    f = hecke_parameters(t)[0]
    assert f.x_plus is None and f.mu_other == 2


def test_normalization_errors():
    with pytest.raises(NormalizationError):
        # partner total exceeding the label's own blocks
        sp_triple([GLFactor(R, 1, partner_mprime=12)], [(R, 2), (R, 4)], 8)
    with pytest.raises(NormalizationError):
        # duplicate labels
        sp_triple([GLFactor(R, 1), GLFactor(R, 1)], [(R, 2), (R, 4)], 10)
    with pytest.raises(NormalizationError):
        # dimension bookkeeping off
        sp_triple([GLFactor(R, 1)], [(R, 2), (R, 4)], 12)
    with pytest.raises(NormalizationError):
        hecke_parameters(sp_triple([GLFactor(R, 1)], [(R, 2)], 4), {"r": 0})


def test_hecke_parameters_refuse_a_theta_sign_that_is_not_the_int_1_or_minus_1():
    triple = sp_triple([GLFactor(R, 1)], [(R, 2)], 4)
    for sign in (True, False, 1.0, -1.0):
        with pytest.raises(NormalizationError, match=r"^theta\['r'\] must be \+1 or -1$"):
            hecke_parameters(triple, {"r": sign})
    assert hecke_parameters(triple, {"r": -1}) != hecke_parameters(triple, {"r": 1})


def test_torus_dim():
    t = sp_triple([GLFactor(R, 2), GLFactor(G, 3, torsion=2)], [(R, 2), (R, 4)], 16)
    td = torus_dim(t)
    assert td.total == 5
    assert td.torsions == (("r", 2, 1), ("g", 3, 2))
    empty = InertialTriple(GroupKind(Family.SP, 6), [],
                           DiscreteParameter(GroupKind(Family.SP, 6), [(R, 2), (R, 4)]))
    assert torus_dim(empty).total == 0
