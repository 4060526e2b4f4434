import json
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import character_on

from cusp_atlas import cuspsupport, lparams
from cusp_atlas.cli import main
from cusp_atlas.census import enumerate_parameters
from cusp_atlas.cuspsupport import (
    check_support,
    ec_multiset,
    staircase_exponents,
    support,
    support_infinitesimal,
    support_via_psi,
)
from cusp_atlas.errors import InternalCheckError, InvalidParameter
from cusp_atlas.lparams import (
    DiscreteParameter,
    ExponentMultiset,
    IrrLabel,
    SelfDualType,
    block_exponents,
    block_group_type,
    det_flip,
    half_str,
    infinitesimal_character,
    is_cuspidal,
    signed_slices,
)
from cusp_atlas.orbits import Family, GroupKind, Partition, SignCharacter, classical_kind
from cusp_atlas.springer import springer_datum

P = IrrLabel("p", 1, SelfDualType.ORTHOGONAL)
MU1 = IrrLabel("m1", 1, SelfDualType.ORTHOGONAL)
MU2 = IrrLabel("m2", 1, SelfDualType.ORTHOGONAL)
SP4 = GroupKind(Family.SP, 4)
SP6 = GroupKind(Family.SP, 6)


def exponent_oracle(label, sizes):
    """Brute-force multiset of exponents of a block list, as a Counter."""
    counts = Counter()
    for a in sizes:
        for j in range(a):
            counts[(label, Fraction(a - 1, 2) - j)] += 1
    return counts


def to_counter(m):
    """The multiset m as a Counter keyed by (label, e), with e a Fraction."""
    return Counter({(label, Fraction(k, 2)): n for label, k, n in m.entries()})


def half_oracle(counts):
    """Nonnegative half of a symmetric Counter: positives kept, zeros halved."""
    half = Counter({(label, e): n for (label, e), n in counts.items() if e > 0})
    half.update({(label, e): n // 2 for (label, e), n in counts.items() if e == 0})
    return +half


# (block parity: 0 Sp, 1 O; slice sizes up to a = 801; the d values whose
# staircase embeds)
LARGE_SLICES = [
    (0, (2, 4, 800), (0, 1, 2)),
    (0, (6, 8), (0, 1)),
    (1, (1, 3, 801), (1, 2)),
    (1, (5, 99, 801), (0, 1, 3)),
]


def test_support_fixture_sp6():
    param = DiscreteParameter(SP6, [(P, 2), (P, 4)])
    eta = character_on(param, (1, -1))
    sup = support(param, eta)
    assert to_counter(sup.gl_twists) == Counter({(P, Fraction(3, 2)): 1,
                                                 (P, Fraction(1, 2)): 1})
    assert sup.cusp_param.blocks == ((P, 2),)
    assert sup.cusp_char.as_dict() == {("p", 2): -1}
    assert sup.cusp_param.dual_group.size == 2
    assert str(sup.levi) == "GL_1^2 x Sp_2"


def test_support_fixture_sp6_all_plus():
    param = DiscreteParameter(SP6, [(P, 2), (P, 4)])
    sup = support(param, character_on(param, (1, 1)))
    # the eliminated pair folds to {3/2, 1/2, 1/2}
    assert to_counter(sup.gl_twists) == Counter({(P, Fraction(3, 2)): 1,
                                                 (P, Fraction(1, 2)): 2})
    assert sup.cusp_param.blocks == ()


def test_support_so5_packet():
    param = DiscreteParameter(SP4, [(MU1, 2), (MU2, 2)])
    minus = character_on(param, (-1, -1))
    sup = support(param, minus)
    assert sup.is_self(param, minus)
    plus = character_on(param, (1, 1))
    sup = support(param, plus)
    assert len(sup.gl_twists) == 2
    assert to_counter(sup.gl_twists) == Counter({(MU1, Fraction(1, 2)): 1,
                                                 (MU2, Fraction(1, 2)): 1})
    assert sup.cusp_param.dimension == 0


def test_ec_multiset_sp_slice():
    out = ec_multiset(P, 0, (2, 4), 1)
    assert to_counter(out.e_prime) == Counter({(P, Fraction(3, 2)): 1,
                                               (P, Fraction(1, 2)): 1})
    oracle = exponent_oracle(P, (2, 4))
    oracle.subtract(exponent_oracle(P, (2,)))
    assert to_counter(out.e_c) == +oracle


def test_ec_multiset_cuspidal_slice_is_empty():
    out = ec_multiset(P, 0, (2, 4), 2)
    assert len(out.e_c) == 0 and len(out.e_prime) == 0


def test_ec_multiset_o_slice_with_zero_entries():
    # confirmed against the brute-force multiset difference: E' = {2,1,1,0}
    out = ec_multiset(P, 1, (1, 3, 5), 1)
    oracle = exponent_oracle(P, (1, 3, 5))
    oracle.subtract(exponent_oracle(P, (1,)))
    assert to_counter(out.e_c) == +oracle
    assert to_counter(out.e_prime) == Counter({(P, Fraction(2)): 1,
                                               (P, Fraction(1)): 2,
                                               (P, Fraction(0)): 1})
    assert len(out.e_prime) == (9 - 1) // 2


def test_ec_multiset_rejects_incompatible_d():
    with pytest.raises(InvalidParameter):
        ec_multiset(P, 0, (2,), 2)


def test_ec_multiset_reports_an_asymmetric_correction(monkeypatch):
    # negative control: a staircase that takes only the exponent 3/2 out of
    # the block (p,4) leaves the asymmetric correction {1/2, -1/2, -3/2}
    monkeypatch.setattr(cuspsupport, "staircase_exponents",
                        lambda label, parity, d: ExponentMultiset([(label, 3)]))
    with pytest.raises(InternalCheckError,
                       match=r"^correction multiset of slice \(4,\), d=1 is asymmetric$") as info:
        ec_multiset(P, 0, (4,), 1)
    assert isinstance(info.value.__cause__, InvalidParameter)


def test_staircase_exponents():
    assert staircase_exponents(P, 0, 1) == block_exponents(P, 2)
    assert staircase_exponents(P, 1, 2) == \
        block_exponents(P, 1).union(block_exponents(P, 3))


def test_support_via_psi_agrees_on_fixtures():
    param = DiscreteParameter(SP6, [(P, 2), (P, 4)])
    for signs in ((1, -1), (1, 1), (-1, 1), (-1, -1)):
        eta = character_on(param, signs)
        assert support_via_psi(param, eta) == support(param, eta)


def test_support_preserves_infinitesimal_character():
    param = DiscreteParameter(SP6, [(P, 2), (P, 4)])
    for signs in ((1, -1), (1, 1), (-1, 1), (-1, -1)):
        sup = support(param, character_on(param, signs))
        assert support_infinitesimal(sup) == infinitesimal_character(param)


def test_mutated_support_fails_conservation():
    # negative control: dropping one twist breaks both conservation laws
    param = DiscreteParameter(SP6, [(P, 2), (P, 4)])
    sup = support(param, character_on(param, (1, -1)))
    pairs = [(label, k) for label, k, n in sup.gl_twists.entries() for _ in range(n)]
    mutated = ExponentMultiset(pairs[1:])
    broken = mutated.union(mutated.negated()).union(
        infinitesimal_character(sup.cusp_param))
    assert broken != infinitesimal_character(param)
    dims = 2 * sum(label.dim * n for label, _, n in mutated.entries()) + sup.cusp_param.dimension
    assert dims != param.dual_group.size


def test_fixed_point_iff_cuspidal_multilabel():
    dual = GroupKind(Family.SP, 8)
    q = IrrLabel("q", 2, SelfDualType.SYMPLECTIC)
    param = DiscreteParameter(dual, [(P, 2), (P, 4), (q, 1)])
    for signs in ((1, 1, 1), (-1, 1, 1), (1, -1, -1), (-1, 1, -1)):
        eta = character_on(param, signs)
        sup = support(param, eta)
        assert sup.is_self(param, eta) == is_cuspidal(param, eta)
        assert check_support(param, eta).ok()


def test_support_equivariant_under_det_flip():
    # flipping the value table flips the output table, same classical data
    dual = GroupKind(Family.SO_EVEN, 4)
    param = DiscreteParameter(dual, [(MU1, 1), (MU2, 3)])
    eta = character_on(param, (1, 1))
    left = support(param, eta)
    right = support(param, det_flip(param, eta))
    assert left.gl_twists == right.gl_twists
    assert left.cusp_param == right.cusp_param
    assert left.levi == right.levi


def test_slice_dependence_only():
    # two characters with the same slice signs give the same levi and blocks
    dual = GroupKind(Family.SP, 8)
    q = IrrLabel("q", 2, SelfDualType.SYMPLECTIC)
    param = DiscreteParameter(dual, [(P, 2), (P, 4), (q, 1)])
    eta1 = character_on(param, (1, -1, 1))
    eta2 = character_on(param, (1, -1, -1))
    # the q-slice has a single block, so its sign never changes the datum
    assert support(param, eta1).levi == support(param, eta2).levi
    assert support(param, eta1).cusp_param == support(param, eta2).cusp_param


def test_sp_side_dprime_is_odd_everywhere():
    # the data `support` computes, slice by slice
    for dual in (GroupKind(Family.SP, 10), GroupKind(Family.SO_ODD, 9)):
        for param, eta in enumerate_parameters(dual):
            for label, sizes, signs in signed_slices(param, eta):
                parity = block_group_type(dual, label)
                datum = springer_datum(classical_kind(parity, sum(sizes)),
                                       Partition(sizes), SignCharacter(zip(sizes, signs)))
                if parity == 0:
                    assert datum.dprime % 2 == 1
                else:
                    assert datum.dprime % 2 == len(sizes) % 2


def test_check_support_full_enumeration_small():
    for family, cap in ((Family.SP, 10), (Family.SO_ODD, 9), (Family.SO_EVEN, 10)):
        for n in range(1, cap + 1):
            try:
                dual = GroupKind(family, n)
            except ValueError:
                continue
            for param, eta in enumerate_parameters(dual):
                assert check_support(param, eta).ok(), (param, eta)


def test_check_support_mixed_signatures():
    signatures = [
        (IrrLabel("a", 1, SelfDualType.ORTHOGONAL),
         IrrLabel("b", 2, SelfDualType.SYMPLECTIC)),
        (IrrLabel("a", 1, SelfDualType.ORTHOGONAL),
         IrrLabel("b", 3, SelfDualType.ORTHOGONAL)),
        (IrrLabel("a", 2, SelfDualType.ORTHOGONAL),
         IrrLabel("b", 2, SelfDualType.SYMPLECTIC)),
    ]
    checked = 0
    for family in (Family.SP, Family.SO_ODD, Family.SO_EVEN):
        for n in range(1, 11):
            try:
                dual = GroupKind(family, n)
            except ValueError:
                continue
            for signature in signatures:
                for param, eta in enumerate_parameters(dual, signature):
                    assert check_support(param, eta).ok(), (param, eta)
                    checked += 1
    assert checked > 200


@pytest.mark.parametrize("parity, sizes, ds", LARGE_SLICES,  # ids name the side: sp or o
                         ids=lambda v: ("sp", "o")[v] if isinstance(v, int) else None)
def test_integer_core_matches_fraction_oracle(parity, sizes, ds):
    dual = classical_kind(parity, sum(sizes))
    param = DiscreteParameter(dual, [(P, a) for a in sizes])
    assert to_counter(infinitesimal_character(param)) == exponent_oracle(P, sizes)
    for d in ds:
        stair = range(2, 2 * d + 1, 2) if parity == 0 else range(1, 2 * d, 2)
        oracle = exponent_oracle(P, sizes)
        oracle.subtract(exponent_oracle(P, stair))
        out = ec_multiset(P, parity, sizes, d)
        assert to_counter(out.e_c) == +oracle
        assert to_counter(out.e_prime) == half_oracle(+oracle)


@pytest.mark.parametrize("signs", [(1, 1, 1), (1, -1, 1), (-1, 1, -1)])
def test_support_infinitesimal_matches_fraction_oracle(signs):
    sizes = (2, 4, 800)
    param = DiscreteParameter(GroupKind(Family.SP, sum(sizes)), [(P, a) for a in sizes])
    sup = support(param, character_on(param, signs))
    oracle = Counter()
    for label, a in sup.cusp_param.blocks:
        oracle += exponent_oracle(label, (a,))
    for (label, e), n in to_counter(sup.gl_twists).items():
        oracle[(label, e)] += n
        oracle[(label, -e)] += n
    assert to_counter(support_infinitesimal(sup)) == oracle == exponent_oracle(P, sizes)


def test_cli_support_twists_match_fraction_oracle(feed_stdin, capsys):
    # Sp_800 with the one block (p, 800): 400 twists, far beyond the golden jobs
    doc = {"command": "support", "group": {"family": "Sp", "N": 800},
           "blocks": [{"pi": {"name": "p", "dim": 1, "type": "orthogonal"}, "a": 800, "sign": 1}]}
    feed_stdin(json.dumps(doc))
    assert main(["support", "--input", "-", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    stair = [a for name, a in out["cusp_blocks"]]
    oracle = exponent_oracle(P, (800,))
    oracle.subtract(exponent_oracle(P, stair))
    half = half_oracle(+oracle)
    expected = [[label.name, str(e)] for (label, e) in
                sorted(half.elements(), key=lambda t: (t[0].name, -t[1]))]
    assert len(out["gl_twists"]) == 400
    assert out["gl_twists"] == expected


def test_exponent_accessors_speak_doubled_integers():
    m = block_exponents(P, 5).union(block_exponents(P, 2)).union(block_exponents(MU1, 2))
    assert all(type(k) is int and type(n) is int for _, k, n in m.entries())
    assert m.entries() == ((MU1, -1, 1), (MU1, 1, 1), (P, -4, 1), (P, -2, 1), (P, -1, 1),
                           (P, 0, 1), (P, 1, 1), (P, 2, 1), (P, 4, 1))
    assert m.multiplicity(P, 1) == 1 and m.multiplicity(P, 2) == 1
    assert m.multiplicity(P, -4) == 1 and m.multiplicity(P, 3) == 0
    assert (P, -1) in m and (P, 5) not in m
    assert (P, 3) not in m and (MU1, 0) not in m
    doubled = m.union(block_exponents(P, 2))
    assert doubled.multiplicity(P, 1) == 2 and (P, 1, 2) in doubled.entries()
    assert repr(ExponentMultiset([(P, -3), (P, 2)])) == "{{(p,-3/2),(p,1)}}"
    assert repr(ExponentMultiset([(P, 1), (P, 1), (P, 0)])) == "{{(p,0),(p,1/2),(p,1/2)}}"


def test_half_str_matches_fraction():
    for two_e in range(-2001, 2002):
        assert half_str(two_e) == str(Fraction(two_e, 2)), two_e


def test_exponent_multiset_keeps_no_zero_counts():
    m = block_exponents(P, 7)
    empty = m.minus(m)
    assert empty == ExponentMultiset() and hash(empty) == hash(ExponentMultiset())
    assert len(empty) == 0 and empty.entries() == ()
    rest = m.minus(block_exponents(P, 3))
    assert rest == ExponentMultiset([(P, k) for k in (6, 4, -4, -6)])
    assert hash(rest) == hash(ExponentMultiset([(P, k) for k in (-6, -4, 4, 6)]))


def test_check_support_of_one_huge_block_stays_small():
    # the exponents of a block are one run, held as two jumps, so neither
    # route nor any conservation law builds anything of the block's size;
    # a dense {2e: count} dict per label would trace well over 10 MB here
    a = 200_001
    param = DiscreteParameter(GroupKind(Family.SO_ODD, a), [(P, a)])
    eta = character_on(param, (1,))
    tracemalloc.start()
    try:
        report = check_support(param, eta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok()
    assert len(report.support.gl_twists) == (a - 1) // 2
    assert peak < 1_000_000


def test_check_support_computes_the_support_twice(support_calls):
    param = DiscreteParameter(SP6, [(P, 2), (P, 4)])
    report = check_support(param, character_on(param, (1, -1)))
    assert report.ok()
    # the input, then its cuspidal part for idempotence
    assert support_calls == [param, report.support.cusp_param]
    assert report.support == support(param, character_on(param, (1, -1)))


def test_check_support_validates_only_the_classical_parts(monkeypatch):
    # a parameter is checked when built: check_support validates nothing but
    # the three classical parts it builds (support on the input, support on
    # its cuspidal part, and the psi route)
    calls = []
    validate = lparams.validate_parameter

    def counted(dual, blocks):
        calls.append(dual)
        return validate(dual, blocks)

    for dual in (GroupKind(Family.SP, 10), GroupKind(Family.SO_ODD, 9),
                 GroupKind(Family.SO_EVEN, 10)):
        cases = list(enumerate_parameters(dual))
        monkeypatch.setattr(lparams, "validate_parameter", counted)
        for param, eta in cases:
            calls.clear()
            assert check_support(param, eta).ok()
            assert len(calls) == 3, (param, eta)
        monkeypatch.setattr(lparams, "validate_parameter", validate)


def test_support_via_psi_does_not_call_support(support_calls):
    param = DiscreteParameter(SP6, [(P, 2), (P, 4)])
    for signs in ((1, -1), (1, 1), (-1, 1), (-1, -1)):
        support_via_psi(param, character_on(param, signs))
    assert support_calls == []


def test_check_support_sees_a_perturbed_psi_route(lossy_psi_route):
    param = DiscreteParameter(SP6, [(P, 2), (P, 4)])
    report = check_support(param, character_on(param, (1, -1)))
    assert report.routes_agree is False
    assert report.failures() == ("routes_agree",)


def test_check_support_sees_shifted_psi_images(shifted_psi_route):
    # the psi route then keeps the blocks (p,2),(p,4) with no twist: a valid
    # support, of another parameter than the one the first route finds
    param = DiscreteParameter(SP6, [(P, 2), (P, 4)])
    eta = character_on(param, (1, -1))
    assert support_via_psi(param, eta).cusp_param == param
    report = check_support(param, eta)
    assert report.routes_agree is False
    assert report.failures() == ("routes_agree",)


MULTISET_LABELS = (P, MU1, IrrLabel("q", 2, SelfDualType.SYMPLECTIC))
labels = st.sampled_from(MULTISET_LABELS)
# each part is built one of three ways, each with its own oracle: explicit
# (label, 2e) pairs, the exponents of a block (label, a), and a folded
# segment (top, length) of the psi route.  Blocks up to a = 60 and segments
# whose tops reach down to -30 and up to 30 make runs that merge, cancel
# where one ends and the next begins, and straddle 0 on either side.
pair_parts = st.lists(st.tuples(labels, st.integers(-9, 9)), max_size=8).map(
    lambda pairs: ("pairs", pairs))
block_parts = st.lists(st.tuples(labels, st.integers(0, 60)), max_size=3).map(
    lambda blocks: ("blocks", blocks))
segment_parts = st.lists(st.tuples(labels, st.integers(-30, 30), st.integers(0, 30)),
                         max_size=3).map(lambda segments: ("segments", segments))
multiset_parts = st.lists(st.one_of(pair_parts, block_parts, segment_parts), max_size=3)


def build_parts(parts):
    """The multiset the parts describe, and its Counter oracle."""
    built, oracle = [], Counter()
    for kind, items in parts:
        if kind == "pairs":
            built.append(ExponentMultiset(items))
            oracle.update((label, Fraction(k, 2)) for label, k in items)
        elif kind == "blocks":
            built.extend(block_exponents(label, a) for label, a in items)
            for label, a in items:
                oracle += exponent_oracle(label, (a,))
        else:
            built.extend(cuspsupport._segment(top, length, label) for label, top, length in items)
            oracle.update((label, abs(Fraction(top - 1, 2) - f))
                          for label, top, length in items for f in range(length))
    return ExponentMultiset.union_all(built), oracle


def fraction_repr(oracle) -> str:
    return "{{" + ",".join(f"({label},{e})" for label, e in sorted(oracle.elements())) + "}}"


def has_no_empty_label(m) -> bool:
    return all(n > 0 for _, n in m.label_sizes())


@settings(max_examples=150, derandomize=True, deadline=None)
@given(multiset_parts, multiset_parts, st.randoms(use_true_random=False))
def test_exponent_multiset_matches_the_fraction_oracle(left_parts, right_parts, rnd):
    left, left_oracle = build_parts(left_parts)
    right, right_oracle = build_parts(right_parts)
    for m, oracle in ((left, left_oracle), (right, right_oracle)):
        assert to_counter(m) == oracle
        assert m.entries() == tuple(sorted(m.entries()))
        assert all(type(k) is int and type(n) is int and n > 0 for _, k, n in m.entries())
        assert repr(m) == fraction_repr(oracle)
        assert len(m) == sum(oracle.values())
        sizes = Counter()
        for (label, _), n in oracle.items():
            sizes[label] += n
        assert m.label_sizes() == tuple(sorted(sizes.items()))
        top_down = sorted(((label, int(2 * e)) for label, e in oracle.elements()),
                          key=lambda entry: (entry[0], -entry[1]))
        assert all(n > 0 and hi >= lo and (hi - lo) % 2 == 0 for _, hi, lo, n in m.runs())
        assert [(label, k) for label, hi, lo, n in m.runs()
                for k in range(hi, lo - 2, -2) for _ in range(n)] == top_down
        reach = max((abs(k) for _, k in top_down), default=0) + 2
        for label in MULTISET_LABELS:
            for k in range(-reach, reach + 1):
                assert m.multiplicity(label, k) == oracle[(label, Fraction(k, 2))]
                assert ((label, k) in m) == (oracle[(label, Fraction(k, 2))] > 0)
        assert to_counter(m.negated()) == Counter({(label, -e): n for (label, e), n in oracle.items()})
        assert m.negated().negated() == m
        # equal multisets hash equal, whatever the construction order
        pairs = [(label, k) for label, k, n in m.entries() for _ in range(n)]
        rnd.shuffle(pairs)
        shuffled = ExponentMultiset(pairs)
        assert shuffled == m and hash(shuffled) == hash(m)

    both = ExponentMultiset.union_all([left, right])
    assert to_counter(both) == left_oracle + right_oracle
    assert both == ExponentMultiset.union_all([right, left])
    assert hash(both) == hash(ExponentMultiset.union_all([right, left]))
    assert both == left.union(right)

    assert both.minus(right) == left and has_no_empty_label(both.minus(right))
    assert both.minus(both) == ExponentMultiset() and both.minus(both).label_sizes() == ()
    short = Counter(left_oracle)
    short.subtract(right_oracle)
    if min(short.values(), default=0) >= 0:
        diff = left.minus(right)
        assert to_counter(diff) == +short and has_no_empty_label(diff)
    else:
        with pytest.raises(InvalidParameter) as info:
            left.minus(right)
        negative = {f"({label},{e})" for (label, e), n in short.items() if n < 0}
        message = str(info.value)
        prefix = "multiset difference would be negative at "
        assert message.startswith(prefix) and message[len(prefix):] in negative

    symmetric = left.union(left.negated())
    assert symmetric.is_symmetric()
    half = symmetric.nonnegative_half()
    assert to_counter(half) == half_oracle(to_counter(symmetric))
    assert half.union(half.negated()) == symmetric and has_no_empty_label(half)
    asymmetric = any(n != left_oracle[(label, -e)] for (label, e), n in left_oracle.items())
    assert left.is_symmetric() is not asymmetric
    if asymmetric:
        with pytest.raises(InvalidParameter):
            left.nonnegative_half()


def test_union_leaves_its_inputs_alone():
    # a union copies every per-label dict it starts from, so adding more into
    # the union never reaches back into the multisets it was built from
    def fresh_a():
        return ExponentMultiset([(P, 1), (P, -1), (P, 3), (MU1, 0)])

    def fresh_b():
        return ExponentMultiset([(P, 1), (MU1, 0), (MU2, 2)])

    a, b = fresh_a(), fresh_b()
    u = ExponentMultiset.union_all([a, b])
    u = ExponentMultiset.union_all([u, a, block_exponents(P, 4)])
    u = u.union(b).union(b.negated())
    rest = u.minus(ExponentMultiset([(MU2, 2)]))
    ExponentMultiset.union_all([rest, a, b])
    ExponentMultiset.union_all([b.minus(ExponentMultiset([(P, 1)])), b])
    assert a == fresh_a() and repr(a) == repr(fresh_a())
    assert b == fresh_b() and repr(b) == repr(fresh_b())
    block = block_exponents(P, 4)
    ExponentMultiset.union_all([block, block, block])
    assert block == ExponentMultiset([(P, k) for k in (3, 1, -1, -3)])
