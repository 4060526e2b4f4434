import itertools
import types

import pytest

from cusp_atlas.bernstein import (
    GLFactor,
    InertialTriple,
    RootType,
    hecke_parameters,
    weyl_descriptor,
)
from cusp_atlas.cli import parse_input, run
from cusp_atlas.errors import NormalizationError
from cusp_atlas.lparams import DiscreteParameter, IrrLabel, SelfDualType
from cusp_atlas.orbits import Family, GroupKind, Partition

R = IrrLabel("r", 1, SelfDualType.ORTHOGONAL)
S = IrrLabel("s", 2, SelfDualType.SYMPLECTIC)
T = IrrLabel("t", 1, SelfDualType.ORTHOGONAL)
G = IrrLabel("g", 1, SelfDualType.GL_PAIR)

EMPTY_SP = DiscreteParameter(GroupKind(Family.SP, 0), [])
EMPTY_SO_EVEN = DiscreteParameter(GroupKind(Family.SO_EVEN, 0), [])


def sp_triple(factors, blocks, total):
    cusp = DiscreteParameter(GroupKind(Family.SP, sum(l.dim * a for l, a in blocks)), blocks)
    return InertialTriple(GroupKind(Family.SP, total), factors, cusp)


def bernstein_job(triple):
    """The output document of the CLI `bernstein` job on the triple, run in process."""
    def pi(label):
        return {"name": label.name, "dim": label.dim, "type": label.sd_type.value}

    doc = {"command": "bernstein",
           "group": {"family": triple.dual_group.family.value, "N": triple.dual_group.size},
           "gl_factors": [{"pi": pi(f.label), "ell": f.ell, "torsion": f.torsion,
                           "partner_mprime": f.partner_mprime} for f in triple.gl_factors],
           "cusp_blocks": [{"pi": pi(label), "a": a} for label, a in triple.cusp_param.blocks]}
    return run(parse_input(doc))


def test_weyl_factor_types():
    # self-dual label with classical blocks: type B
    t = sp_triple([GLFactor(R, 2)], [(R, 2), (R, 4)], 10)
    wd = weyl_descriptor(t)
    assert (wd.factors[0].root_type, wd.factors[0].rank) == (RootType.B, 2)
    assert bernstein_job(t)["factors"] == [{"pi": "r", "type": "B", "rank": 2, "star": False}]

    # gl-pair label: type A_{ell-1}
    t = sp_triple([GLFactor(G, 3)], [(R, 2), (R, 4)], 12)
    assert weyl_descriptor(t).factors[0].root_type is RootType.A
    assert weyl_descriptor(t).factors[0].rank == 2

    # sp-side label absent from the blocks: type C
    t = sp_triple([GLFactor(T, 2)], [(R, 2), (R, 4)], 10)
    assert weyl_descriptor(t).factors[0].root_type is RootType.C

    # o-side label absent: type D, written with its star
    t = sp_triple([GLFactor(S, 2)], [(R, 2), (R, 4)], 14)
    wf = weyl_descriptor(t).factors[0]
    assert (wf.root_type, wf.rank) == (RootType.D, 2)
    assert bernstein_job(t)["factors"] == [{"pi": "s", "type": "D", "rank": 2, "star": True}]

    # ell = 0: trivial tag
    t = sp_triple([GLFactor(R, 0)], [(R, 2), (R, 4)], 6)
    assert weyl_descriptor(t).factors[0].root_type is RootType.TRIVIAL


def test_star_only_for_o_side_without_blocks():
    t = sp_triple([GLFactor(S, 2), GLFactor(T, 1), GLFactor(G, 2)],
                  [(R, 2), (R, 4)], 20)
    assert [wf.root_type for wf in weyl_descriptor(t).factors] == \
        [RootType.D, RootType.C, RootType.A]
    factors = bernstein_job(t)["factors"]
    for factor in factors:
        assert factor["star"] is (factor["type"] == "D")
    assert [factor["star"] for factor in factors] == [True, False, False]


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
        return sorted((f.label.name, f.root_type, f.rank) for f in descriptor.factors)

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
    assert f.weyl.root_type is RootType.C and f.mu_short is None and f.mu_other == 2
    assert f.weyl == weyl_descriptor(t).factors[0]


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


def test_gl_factor_refuses_a_torsion_below_one_and_a_negative_partner_total():
    for torsion in (0, -1):
        with pytest.raises(ValueError, match=r"^torsion is a positive integer$"):
            GLFactor(R, 1, torsion=torsion)
    with pytest.raises(ValueError, match=r"^a block total is nonnegative$"):
        GLFactor(R, 1, partner_mprime=-1)
    assert GLFactor(R, 1, torsion=1, partner_mprime=0).torsion == 1


def test_gl_factor_reads_its_integers_through_the_one_integer_door():
    # ell, torsion and partner_mprime are read as a group's size and a
    # partition's parts are: the same TypeError, with the same text
    for value, text in ((1.5, "'float' object cannot be interpreted as an integer"),
                        (True, "expected an integer, got True"),
                        ("1", "'str' object cannot be interpreted as an integer")):
        for build in (lambda: GroupKind(Family.SP, value), lambda: Partition((value,)),
                      lambda: GLFactor(R, value), lambda: GLFactor(R, 1, torsion=value),
                      lambda: GLFactor(R, 1, partner_mprime=value)):
            with pytest.raises(TypeError) as err:
                build()
            assert str(err.value) == text

    class Three:  # an exact integer that is not an int
        def __index__(self):
            return 3

    # one read through `__index__` each, stored as the int it gives
    for factor, name in ((GLFactor(R, Three()), "ell"),
                         (GLFactor(R, 1, torsion=Three()), "torsion"),
                         (GLFactor(R, 1, partner_mprime=Three()), "partner_mprime")):
        value = getattr(factor, name)
        assert value == 3 and type(value) is int


def test_gl_factor_refuses_a_label_that_is_not_an_irr_label():
    # the label is read first, before the integers
    for label, shown in (("r", "str"), (None, "NoneType"), (("r", 1, "orthogonal"), "tuple")):
        for build in (lambda: GLFactor(label, 1), lambda: GLFactor(label, 1.5)):
            with pytest.raises(TypeError) as err:
                build()
            assert str(err.value) == f"a factor label is an IrrLabel, got {shown}"


def test_triple_refuses_a_classical_part_of_another_family():
    # an SOeven_0 classical part under an Sp_4 ambient group
    with pytest.raises(NormalizationError,
                       match=r"^classical part must have the ambient family$"):
        InertialTriple(GroupKind(Family.SP, 4), [GLFactor(R, 1)], EMPTY_SO_EVEN)


def test_hecke_parameters_refuse_a_theta_sign_that_is_not_the_int_1_or_minus_1():
    triple = sp_triple([GLFactor(R, 1)], [(R, 2)], 4)
    for sign in (True, False, 1.0, -1.0):
        with pytest.raises(NormalizationError, match=r"^theta\['r'\] must be \+1 or -1$"):
            hecke_parameters(triple, {"r": sign})
    assert hecke_parameters(triple, {"r": -1}) != hecke_parameters(triple, {"r": 1})


def test_torus_dim():
    # the bernstein job writes the torus dimension as the factors' sum of ell,
    # and each factor's (label name, ell, torsion) as it was given
    t = sp_triple([GLFactor(R, 2), GLFactor(G, 3, torsion=2)], [(R, 2), (R, 4)], 16)
    out = bernstein_job(t)
    assert out["torus_dim"] == 5
    assert out["torsions"] == [["r", 2, 1], ["g", 3, 2]]
    empty = InertialTriple(GroupKind(Family.SP, 6), [],
                           DiscreteParameter(GroupKind(Family.SP, 6), [(R, 2), (R, 4)]))
    out = bernstein_job(empty)
    assert out["torus_dim"] == 0 and out["torsions"] == []


def test_bernstein_entry_points_refuse_wrong_types_with_their_own_text():
    cusp = DiscreteParameter(GroupKind(Family.SP, 6), [(R, 2), (R, 4)])
    sp8 = GroupKind(Family.SP, 8)
    triple = InertialTriple(sp8, [GLFactor(R, 1)], cusp)
    for build, text in (
            (lambda: InertialTriple(sp8, ["r"], cusp), "a factor is a GLFactor, got str"),
            (lambda: InertialTriple(sp8, [GLFactor(R, 1), ("r", 1)], cusp),
             "a factor is a GLFactor, got tuple"),
            (lambda: InertialTriple(sp8, [GLFactor(R, 1)], "cusp"),
             "a classical part is a DiscreteParameter, got str"),
            (lambda: InertialTriple("Sp", [GLFactor(R, 1)], cusp),
             "an ambient group is a GroupKind, got str"),
            (lambda: weyl_descriptor("u"), "a triple is an InertialTriple, got str"),
            (lambda: hecke_parameters("u", {}), "a triple is an InertialTriple, got str"),
            (lambda: hecke_parameters(cusp, "u"), "a triple is an InertialTriple, "
             "got DiscreteParameter"),
            (lambda: hecke_parameters(triple, "u"),
             "theta is a Mapping of label name -> +1 or -1, got str"),
            # a list of pairs is not a Mapping either
            (lambda: hecke_parameters(triple, [("r", -1)]),
             "theta is a Mapping of label name -> +1 or -1, got list")):
        with pytest.raises(TypeError) as err:
            build()
        assert str(err.value) == text
    # any Mapping is read, not only a dict
    theta = types.MappingProxyType({"r": -1})
    assert hecke_parameters(triple, theta) == hecke_parameters(triple, {"r": -1})
    assert hecke_parameters(triple) == hecke_parameters(triple, {}) == \
        hecke_parameters(triple, {"r": 1})


UNIPOTENT = IrrLabel("1", 1, SelfDualType.ORTHOGONAL)
XI = IrrLabel("ξ", 1, SelfDualType.ORTHOGONAL)


@pytest.mark.parametrize("s, t", [
    pytest.param(s, t, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2: with the partner label absent, x- reads "
        "the absent-label reducibility point 1/2 where Lusztig's end parameter needs 0"))
    if s == t else (s, t)
    for s, t in itertools.combinations_with_replacement(range(4), 2)])
def test_hecke_parameters_match_lusztig_on_unipotent_blocks(s, t):
    # Lusztig (IMRN 1995): the unipotent block (s, t) of split Sp_2n has an
    # affine Hecke algebra of type C~ whose end parameters are q^(2s+1) and
    # q^(2t+1).  On the dual side its cuspidal part is the staircase of
    # d = s+t+1 on 1 and of d' = |s-t| on xi, and one GL_1 factor of rank 2
    # carries x+ and x- as the tops of the two staircases.
    d, d_prime = s + t + 1, abs(s - t)
    blocks = [(UNIPOTENT, 2 * i - 1) for i in range(1, d + 1)]
    blocks += [(XI, 2 * i - 1) for i in range(1, d_prime + 1)]
    cusp = DiscreteParameter(GroupKind(Family.SO_ODD, d * d + d_prime * d_prime), blocks)
    triple = InertialTriple(GroupKind(Family.SO_ODD, d * d + d_prime * d_prime + 4),
                            [GLFactor(UNIPOTENT, 2, partner_mprime=d_prime * d_prime)], cusp)
    factor, = hecke_parameters(triple)
    assert factor.weyl.root_type is RootType.B
    assert {factor.lam, factor.lam_star} == {2 * (2 * max(s, t) + 1), 2 * (2 * min(s, t) + 1)}
