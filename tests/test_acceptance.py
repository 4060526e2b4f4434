"""Acceptance suite: one test per criterion, at the documented bounds.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; `cusp-atlas selfcheck` covers the same ground from the command
line.
"""

import time
from fractions import Fraction

from conftest import alternative_defect_formula_sp, character_on, pair_defect

from cusp_atlas import verifications
from cusp_atlas.bernstein import GLFactor, InertialTriple, hecke_parameters
from cusp_atlas.census import count_identity
from cusp_atlas.cuspsupport import support
from cusp_atlas.lparams import (
    DiscreteParameter,
    IrrLabel,
    SelfDualType,
    is_cuspidal,
    reducibility_point,
    sgroup_factors,
)
from cusp_atlas.orbits import (
    Family,
    GroupKind,
    classical_kind,
    staircase,
    staircase_character,
)


LIMITS = verifications.Limits()  # the documented bounds, read from one place


def report(number, name, elapsed):
    print(f"criterion {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_springer_count_identity():
    start = time.time()
    ok, detail = verifications.check_count_identity(LIMITS.census)
    assert ok, detail
    by_d, predicted = count_identity(GroupKind(Family.SP, 4))
    assert sum(by_d.values()) == sum(predicted.values()) == 7  # 7 = 5 + 2
    ok, detail = verifications.check_so_count_identity(LIMITS.census)
    assert ok, detail
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(1, "Sp and SO count identities", elapsed)


def test_criterion_2_defect_coherence():
    start = time.time()
    ok, detail = verifications.check_defect_coherence(LIMITS.defect)
    assert ok, detail
    ok, detail = verifications.check_order_independence(LIMITS.orders)
    assert ok, detail
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(2, "defect coherence and order independence", elapsed)


def test_criterion_3_cuspidal_fixed_points():
    start = time.time()
    ok, detail = verifications.check_cuspidal_fixed_points(LIMITS.cuspidal)
    assert ok, detail
    # the default bound 25 covers the symplectic sizes 2, 6, 12, 20 and the squares up to 25
    report(3, "cuspidal fixed points", time.time() - start)


def test_criterion_4_support_invariants():
    start = time.time()
    ok, detail = verifications.check_support_invariants(LIMITS.support)
    assert ok, detail
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(4, "support invariants", elapsed)


def test_criterion_5_so5_packet():
    start = time.time()
    dual = GroupKind(Family.SP, 4)
    mu1 = IrrLabel("m1", 1, SelfDualType.ORTHOGONAL)
    mu2 = IrrLabel("m2", 1, SelfDualType.ORTHOGONAL)
    param = DiscreteParameter(dual, [(mu1, 2), (mu2, 2)])

    factoring = [signs for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1))
                 if sgroup_factors(param, character_on(param, signs))]
    assert factoring == [(1, 1), (-1, -1)]

    minus = character_on(param, (-1, -1))
    assert is_cuspidal(param, minus)
    assert support(param, minus).is_self(param, minus)

    plus = character_on(param, (1, 1))
    assert not is_cuspidal(param, plus)
    sup = support(param, plus)
    assert sup.cusp_param.dimension == 0 and sup.cusp_param.blocks == ()
    assert sorted((label.name, Fraction(k, 2), n) for label, k, n in sup.gl_twists.entries()) == \
        [("m1", Fraction(1, 2), 1), ("m2", Fraction(1, 2), 1)]
    report(5, "SO_5 packet", time.time() - start)


def test_criterion_6_hecke_short_root_identity():
    start = time.time()
    label = IrrLabel("r", 1, SelfDualType.ORTHOGONAL)
    for d in range(1, 7):
        # symplectic-side staircase: largest block 2d
        blocks = [(label, 2 * a) for a in range(1, d + 1)]
        cusp = DiscreteParameter(GroupKind(Family.SP, d * (d + 1)), blocks)
        triple = InertialTriple(GroupKind(Family.SP, d * (d + 1) + 2),
                                [GLFactor(label, 1)], cusp)
        factor = hecke_parameters(triple, {"r": 1})[0]
        assert factor.x_plus == 2 * d + 1
        assert factor.mu_short == 2 * (2 * d + 1)  # the table's a + 1 with a = 2d

        # orthogonal-side staircase: largest block 2d - 1
        oblocks = [(label, 2 * a - 1) for a in range(1, d + 1)]
        ocusp = DiscreteParameter(classical_kind(1, d * d), oblocks)
        otriple = InertialTriple(classical_kind(1, d * d + 2),
                                 [GLFactor(label, 1)], ocusp)
        ofactor = hecke_parameters(otriple, {"r": 1})[0]
        assert ofactor.x_plus == 2 * d
        assert ofactor.mu_short == 2 * ((2 * d - 1) + 1)
    report(6, "hecke short-root identity", time.time() - start)


def test_criterion_7_reducibility_fixture():
    start = time.time()
    label = IrrLabel("p", 1, SelfDualType.ORTHOGONAL)
    jord = DiscreteParameter(GroupKind(Family.SP, 6), [(label, 2), (label, 4)])
    assert reducibility_point(label, jord.blocks, jord.dual_group) == 5
    same = IrrLabel("q", 2, SelfDualType.SYMPLECTIC)
    assert reducibility_point(same, jord.blocks, jord.dual_group) == 1
    diff = IrrLabel("q", 1, SelfDualType.ORTHOGONAL)
    assert reducibility_point(diff, (), jord.dual_group) == 0
    report(7, "reducibility fixture", time.time() - start)


def test_criterion_8_alternative_defect_formula_guard():
    start = time.time()
    for d in range(1, 6):
        p = staircase(0, d)
        eps = tuple(sign for _, sign in staircase_character(0, d, -1).values)
        kind = GroupKind(Family.SP, d * (d + 1))
        gap = alternative_defect_formula_sp(eps) - pair_defect(kind, p, eps)
        assert gap == len(p) + 1
    report(8, "alternative defect formula offset", time.time() - start)
