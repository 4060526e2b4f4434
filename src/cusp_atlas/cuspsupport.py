"""Cuspidal support of discrete enhanced parameters, by two routes.

Each label slice of a parameter is a distinguished partition (the block
sizes) with signs; elimination turns it into a cuspidal datum, and the
exponents the slice loses on the way become general-linear twist factors.
Concretely, per label:

* d comes from the slice's elimination normal form (with the defect
  formula cross-checked against it);
* the classical part keeps the staircase blocks (pi,2),...,(pi,2d) on the
  symplectic side, (pi,1),...,(pi,2d-1) on the orthogonal one, carrying the
  canonical alternating character;
* the correction multiset E_c = exponents(slice) - exponents(staircase) is
  symmetric; its canonical nonnegative half E' lists the twist exponents,
  one general-linear factor GL_{n_pi} per entry (exponent 0 entries are
  untwisted self-dual pairs and stay explicit).

The second route rewrites the normal form through the increasing block map
psi (size 2(i-1) or 2i on the symplectic side by the leading sign, 2i-1 on
the orthogonal side) and harvests the twists as integer segments, one per
surviving block plus one per eliminated pair.

Each route yields one record per label, (label, twists E', cuspidal
character on the staircase sizes, torus rank), and one assembler turns the
records into a :class:`CuspidalSupport`.  Neither route calls the other:
:func:`check_support` reads the character once, runs each route on the
slices, compares the two supports with ``==``, and bundles that with the
conservation laws (infinitesimal character, dimension, idempotence, and the
fixed-point criterion: support = self exactly for gapless alternating data).
The trust boundary is the public functions and ``orbits.signs_on``; below it
a slice's orbit is minted once and run through the core ``springer._slice_datum``.

Exponents are half-integers, held everywhere as the integers 2e:
:class:`~cusp_atlas.lparams.ExponentMultiset` takes and returns
(label, 2e) pairs.  The exponents of a block and the segments below are
runs 2e = lo, lo+2, ..., hi, which the multiset holds as two jumps each,
so no step here grows with the block sizes.  Only the CLI writes the
exponents out, as fraction strings, through
:func:`~cusp_atlas.lparams.half_str`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InternalCheckError, InvalidParameter
from .orbits import (GroupKind, Partition, SignCharacter, classical_kind, require_valid,
                     signs_on, staircase_pairs)
from .springer import _slice_datum, eliminate, elimination_outcomes
from .lparams import (
    DiscreteParameter,
    ExponentMultiset,
    IrrLabel,
    ParameterCharacter,
    block_group_type,
    infinitesimal_character,
    is_cuspidal,
    signed_slices,
    slice_exponents,
)


@dataclass(frozen=True)
class ECMultiset:
    """Correction exponents of one slice: the full multiset and its half."""

    e_c: ExponentMultiset
    e_prime: ExponentMultiset


def staircase_exponents(label: IrrLabel, parity: int, d: int) -> ExponentMultiset:
    return slice_exponents(label, range(2 - parity, 2 * d + 1, 2))


def ec_multiset(label: IrrLabel, parity: int, sizes: Iterable[int], d: int) -> ECMultiset:
    """E_c = slice exponents minus staircase exponents, split as E' + (-E')."""
    sizes = tuple(sizes)
    total = slice_exponents(label, sizes)
    try:
        e_c = total.minus(staircase_exponents(label, parity, d))
    except InvalidParameter as exc:
        raise InvalidParameter(
            f"staircase of size parameter {d} does not embed in slice {sizes}: {exc}") from exc
    try:
        e_prime = e_c.nonnegative_half()
    except InvalidParameter as exc:
        raise InternalCheckError(
            f"correction multiset of slice {sizes}, d={d} is asymmetric") from exc
    return ECMultiset(e_c, e_prime)


@dataclass(frozen=True)
class CuspidalSupport:
    gl_twists: ExponentMultiset
    cusp_param: DiscreteParameter
    cusp_char: ParameterCharacter

    @property
    def levi(self) -> str:
        """The Levi: GL_{n_pi}^{count} per label with twists, then the classical group."""
        pieces = [f"GL_{label.dim}^{n}" for label, n in self.gl_twists.label_sizes()]
        pieces.append(str(self.cusp_param.dual_group))
        return " x ".join(pieces)

    def is_self(self, p: DiscreteParameter, eta: ParameterCharacter) -> bool:
        return (len(self.gl_twists) == 0 and self.cusp_param == p
                and self.cusp_char == eta)


def _classical_part(dual: GroupKind, blocks, chars) -> tuple[DiscreteParameter, ParameterCharacter]:
    n_sharp = sum(label.dim * a for label, a in blocks)
    try:
        group = GroupKind(dual.family, n_sharp)
    except ValueError as exc:  # parity of the classical part is a theorem
        raise InternalCheckError(f"classical part of size {n_sharp} for {dual}: {exc}") from exc
    return DiscreteParameter(group, blocks), SignCharacter(chars)


# (label, twists, the cuspidal (block size, sign) pairs with sizes increasing, torus rank)
_SliceRecord = tuple[IrrLabel, ExponentMultiset, tuple[tuple[int, int], ...], int]


def _assemble(dual: GroupKind, slices: list[_SliceRecord]) -> CuspidalSupport:
    """The support whose labels carry the given records, one GL factor per twist."""
    blocks: list[tuple[IrrLabel, int]] = []
    chars: dict = {}
    for label, twists, cusp, torus_rank in slices:
        for a, value in cusp:
            blocks.append((label, a))
            chars[(label.name, a)] = value
        if len(twists) != torus_rank:
            raise InternalCheckError(
                f"slice {label}: {len(twists)} twists but torus rank {torus_rank}")
    param, char = _classical_part(dual, blocks, chars)
    return CuspidalSupport(ExponentMultiset.union_all(s[1] for s in slices), param, char)


def support(p: DiscreteParameter, eta: ParameterCharacter, *, slices=None) -> CuspidalSupport:
    """Cuspidal support via per-slice data and correction multisets, on
    ``slices`` = ``signed_slices(p, eta)`` when the caller has read them."""
    records = []
    for label, sizes, signs in signed_slices(p, eta) if slices is None else slices:
        parity = block_group_type(p.dual_group, label)
        orbit = require_valid(classical_kind(parity, sum(sizes)), Partition(sizes))
        d, _, torus_rank, first = _slice_datum(orbit, signs)
        twists = ec_multiset(label, parity, sizes, d).e_prime
        records.append((label, twists, staircase_pairs(parity, d, first), torus_rank))
    return _assemble(p.dual_group, records)


def _psi_map(parity: int, parts: tuple[int, ...], signs: tuple[int, ...]) -> tuple[int, ...]:
    """Images of the increasing normal-form blocks under the block map psi."""
    if parity == 0 and signs and signs[0] == -1:
        return tuple(2 * (i + 1) for i in range(len(parts)))
    return tuple(2 * i + parity for i in range(len(parts)))


def _segment(top: int, length: int, label: IrrLabel) -> ExponentMultiset:
    """Exponents (top-1)/2 - f for f = 0..length-1, folded to be nonnegative.

    Doubled, this is the run from hi = top-1 down to lo = top+1-2*length;
    the fold at 0 mirrors the part below 0 into a second run.
    """
    hi, lo = top - 1, top + 1 - 2 * length
    if hi < 0:
        runs = ((-hi, -lo),)
    elif lo >= 0:
        runs = ((lo, hi),)
    else:
        runs = ((hi % 2, hi), (2 - hi % 2, -lo))
    return ExponentMultiset.of_runs(label, runs)


def _slice_psi_support(label: IrrLabel, parity: int, sizes: tuple[int, ...],
                       parts: tuple[int, ...], signs: tuple[int, ...],
                       removed: Sequence[tuple[int, int]]) -> _SliceRecord:
    """One slice's record from an elimination outcome: the normal form, as
    its increasing parts and their signs, and the deleted pairs."""
    segments = []
    cusp = []
    for a, sign, image in zip(parts, signs, _psi_map(parity, parts, signs)):
        segments.append(_segment(a, (a - image) // 2, label))
        if image >= 1:
            cusp.append((image, sign))
    segments.extend(_segment(hi, (lo + hi) // 2, label) for lo, hi in removed)
    return (label, ExponentMultiset.union_all(segments), tuple(cusp),
            (sum(sizes) - sum(a for a, _ in cusp)) // 2)


def support_via_psi(p: DiscreteParameter, eta: ParameterCharacter, *,
                    slices=None) -> CuspidalSupport:
    """Cuspidal support through the normal form and the block map psi.

    Surviving blocks contribute the segment from their size down to their
    psi-image; each eliminated pair (lo, hi) contributes the segment of
    length (lo + hi)/2 below hi.  The result is compared with
    :func:`support` in :func:`check_support`; ``slices`` as there.
    """
    records = []
    for label, sizes, signs in signed_slices(p, eta) if slices is None else slices:
        records.append(_slice_psi_support(label, block_group_type(p.dual_group, label), sizes,
                                          *eliminate(sizes, signs)))
    return _assemble(p.dual_group, records)


def all_order_slice_supports(label: IrrLabel, parity: int,
                             sizes: tuple[int, ...],
                             slice_char: SignCharacter) -> set:
    """Slice supports over every admissible elimination order (test hook).

    ``slice_char`` is read once, on the sizes sorted.  Returns the set of
    (twist multiset, cuspidal blocks decreasing, cuspidal (block, sign)
    pairs increasing) triples; order independence makes it a singleton.
    ``parity`` is the value :func:`~cusp_atlas.lparams.block_group_type`
    returns, which callers such as the ``sweep`` benchmark workload pass
    straight through, and it never appears in the returned triples.
    """
    p = Partition(sizes)
    parts = p.increasing()
    outcomes = elimination_outcomes(parts, signs_on(slice_char, parts, "parts", p))
    return outcome_supports(label, parity, sizes, outcomes)


def outcome_supports(label: IrrLabel, parity: int, sizes: tuple[int, ...],
                     outcomes: Iterable) -> set:
    """The slice support triples of the given :func:`elimination_outcomes`."""
    out = set()
    for outcome in outcomes:
        _, twists, cusp, _ = _slice_psi_support(label, parity, sizes, *outcome)
        out.add((twists, tuple(a for a, _ in reversed(cusp)), cusp))
    return out


SUPPORT_CHECKS = ("infinitesimal_preserved", "dimension_conserved", "idempotent",
                  "fixed_point_iff_cuspidal", "routes_agree")


@dataclass(frozen=True)
class SupportReport:
    """The conservation laws and the route comparison for one support."""

    support: CuspidalSupport
    infinitesimal_preserved: bool
    dimension_conserved: bool
    idempotent: bool
    fixed_point_iff_cuspidal: bool
    routes_agree: bool

    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> tuple[str, ...]:
        return tuple(n for n in SUPPORT_CHECKS if not getattr(self, n))


def support_infinitesimal(sup: CuspidalSupport) -> ExponentMultiset:
    """Exponent multiset of a support: +-e per twist plus the classical part.

    An exponent-0 twist is an untwisted self-dual pair and contributes the
    entry (label, 0) twice, which the plain symmetrization already does.
    """
    return ExponentMultiset.union_all((infinitesimal_character(sup.cusp_param),
                                       sup.gl_twists, sup.gl_twists.negated()))


def check_support(p: DiscreteParameter, eta: ParameterCharacter) -> SupportReport:
    """Compute the support once and check it: both routes, all five laws."""
    slices = signed_slices(p, eta)
    sup = support(p, eta, slices=slices)
    inf_ok = infinitesimal_character(p) == support_infinitesimal(sup)
    twist_dims = 2 * sum(label.dim * n for label, n in sup.gl_twists.label_sizes())
    dim_ok = twist_dims + sup.cusp_param.dimension == p.dual_group.size
    again = support(sup.cusp_param, sup.cusp_char)
    idem_ok = again.is_self(sup.cusp_param, sup.cusp_char)
    fixed = sup.is_self(p, eta)
    fix_ok = fixed == is_cuspidal(p, eta, slices=slices)
    try:
        routes_ok = support_via_psi(p, eta, slices=slices) == sup
    except InternalCheckError:
        routes_ok = False
    return SupportReport(sup, inf_ok, dim_ok, idem_ok, fix_ok, routes_ok)
