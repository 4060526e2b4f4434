"""Elimination and the map from enhanced classes to cuspidal data.

For a distinguished class with character, repeatedly deleting a pair of
adjacent parts carrying equal signs ("elimination") terminates in a normal
form with strictly alternating signs.  The content of the normal form
(length, sign pattern, d) does not depend on the deletion order, the symbol
defect survives every step, and the defect (equivalently the shape of the
normal form) determines a cuspidal datum: a torus rank, the
triangular/staircase cuspidal partition, and its alternating character.
Both computation routes, the closed defect formula and the normal form, are
always run and compared; disagreement raises.  :func:`eliminate` (the
leftmost path, with its history) and :func:`elimination_outcomes` (every
order) are the only two places that eliminate.  Both take and return one
normal-form value, increasing parts with their aligned signs, the form in
which every map here takes a character and returns one: its signs on the
generators, increasing.  Both find their deletion sites as
:func:`removable_sites` does, and a single step is a slice of the
increasing parts and of their signs.
The public maps check their input, the trust boundary; below it the support
runs :func:`springer_datum`'s core ``_slice_datum`` on each slice.

The second half extends the dictionary beyond the connected groups: to the
full orthogonal group O_N (three cases, by the shape of the quasi-Levi and
the degeneracy of the partition) and to the index-two subgroup of a product
of orthogonal groups, where the extension proceeds in three stages with
generator sets C_L, C_O, C_I pairing the factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import InternalCheckError, InvalidPartition
from .orbits import (
    Family,
    GroupKind,
    Partition,
    ValidOrbit,
    check_aligned,
    check_signs,
    classical_kind,
    is_degenerate,
    require_type,
    require_valid,
    staircase,
    staircase_signs,
)
from .symbols import defect_formula, interval_structure, swapped_symbol


def removable_sites(signs: Sequence[int]) -> list[int]:
    """Positions j where the increasing parts j, j+1 carry equal signs."""
    return [j for j in range(len(signs) - 1) if signs[j] == signs[j + 1]]


def eliminate(parts: Sequence[int], signs: Sequence[int]
              ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Full elimination along the leftmost path, with its history.

    Returns the normal form, as its increasing parts and their (strictly
    alternating) signs, and the deleted (lo, hi) pairs in deletion order.
    Always deleting the leftmost admissible pair is one pass over the
    increasing parts with a stack: a part cancels the top of the stack when
    their signs agree and is pushed otherwise.  Other orders may delete
    other pairs and end at other parts; what they share is the subject of
    :func:`elimination_outcomes`.
    """
    check_aligned(parts, signs)
    kept: list[tuple[int, int]] = []  # (part, sign)
    removed: list[tuple[int, int]] = []
    for q, sign in zip(parts, signs):
        if kept and kept[-1][1] == sign:
            removed.append((kept.pop()[0], q))
        else:
            kept.append((q, sign))
    normal, signs = zip(*kept) if kept else ((), ())
    return normal, signs, tuple(removed)


def elimination_outcomes(parts: Sequence[int], signs: Sequence[int]) -> set[tuple]:
    """Outcomes of elimination over every admissible deletion order.

    An outcome is (normal parts increasing, their signs, the deleted (lo, hi)
    pairs sorted).  The literal terminal partition may depend on the order:
    from (1,3,5) with signs (+,+,+) one deletion order ends at (5), the
    other at (1).  What is order-independent is the invariant content
    captured by :func:`normal_form_content` and, downstream, the cuspidal
    support, which adds one segment per deleted pair and so sees the pairs
    only as a set.

    The search is memoised on its state, the remaining parts with their
    signs (the sign of a part never changes, so the parts are the key): the
    outcomes of a state are found once, however many orders reach it.
    """
    memo: dict[tuple[int, ...], set[tuple]] = {}

    def search(parts: tuple[int, ...], signs: tuple[int, ...]) -> set[tuple]:
        found = memo.get(parts)
        if found is not None:
            return found
        sites = removable_sites(signs)
        found = set() if sites else {(parts, signs, ())}
        for j in sites:
            pair = parts[j:j + 2]
            for normal, normal_signs, removed in search(parts[:j] + parts[j + 2:],
                                                        signs[:j] + signs[j + 2:]):
                found.add((normal, normal_signs, tuple(sorted(removed + (pair,)))))
        memo[parts] = found
        return found

    check_aligned(parts, signs)
    return search(tuple(parts), tuple(signs))


def normal_form_content(kind: GroupKind, parts: tuple[int, ...],
                        signs: tuple[int, ...]) -> tuple:
    """Order-independent content of a normal form: length, sign pattern, d.

    The part values themselves are a computation device; every admissible
    deletion order reaches the same content (and the same support).
    """
    return (len(parts), signs, d_from_normal_form(kind, parts, signs))


def d_from_normal_form(kind: GroupKind, parts: Sequence[int], signs: Sequence[int]) -> int:
    """Read the cuspidal size parameter d off an elimination normal form:
    increasing parts with their aligned, strictly alternating signs."""
    check_aligned(parts, signs)
    if removable_sites(signs):
        raise InvalidPartition(
            f"parts {tuple(parts)} with signs {tuple(signs)} are not elimination-normal")
    if kind.is_symplectic and parts and signs[0] == 1:
        return len(parts) - 1
    return len(parts)


def d_from_defect(kind: GroupKind, dprime: int) -> int:
    if kind.is_symplectic:
        if dprime % 2 == 0:
            raise InternalCheckError(f"symplectic defect {dprime} is even")
        return dprime - 1 if dprime >= 1 else -dprime
    return abs(dprime)


@dataclass(frozen=True)
class CuspidalDatum:
    """Levi torus rank + cuspidal (partition, character) + shape parameters.

    ``cusp_signs`` are the cuspidal character's signs, aligned with
    ``cusp_partition.increasing()``.
    """

    kind: GroupKind
    torus_rank: int
    cusp_partition: Partition
    cusp_signs: tuple[int, ...]
    d: int
    dprime: int

    @property
    def cusp_size(self) -> int:
        return self.cusp_partition.total

    def levi_str(self) -> str:
        tail = f"{self.kind.family.value}_{self.cusp_size}" if self.cusp_size else "1"
        if self.torus_rank == 0:
            return tail
        return f"(C*)^{self.torus_rank} x {tail}"


def _slice_datum(orbit: ValidOrbit, signs: Sequence[int]) -> tuple[int, int, int, int]:
    """(d, d', torus rank, first cuspidal sign) of :func:`springer_datum`: every
    check after validity, and no Partition, signs or datum built."""
    kind, p = orbit.kind, orbit.partition
    dprime = defect_formula(orbit, signs)
    normal, normal_signs, _ = eliminate(p.increasing(), signs)
    sym = swapped_symbol(interval_structure(orbit), signs)
    if sym.defect != dprime:
        raise InternalCheckError(
            f"defect formula {dprime} != symbol defect {sym.defect} on {p}, {signs}")
    d = d_from_normal_form(kind, normal, normal_signs)
    if d != d_from_defect(kind, dprime):
        raise InternalCheckError(
            f"normal form gives d={d}, defect {dprime} gives {d_from_defect(kind, dprime)}")
    parity = kind.generator_parity
    first = -1 if parity == 0 else (normal_signs[0] if normal_signs else 1)
    if parity and math.prod(signs) != math.prod(staircase_signs(d, first)):
        raise InternalCheckError(f"central value not conserved on {p}, {signs}")
    return d, dprime, _torus_rank(kind, d, p, signs), first


def _torus_rank(kind: GroupKind, d: int, p: Partition, signs: Sequence[int]) -> int:
    """(N - the size of the staircase of d)/2, checked to be a nonnegative integer."""
    torus_rank, rem = divmod(kind.size - d * (d + 1 - kind.generator_parity), 2)
    if rem or torus_rank < 0:
        raise InternalCheckError(f"bad torus rank for {p}, {signs}: N={kind.size}, d={d}")
    return torus_rank


def springer_datum(kind: GroupKind, p: Partition, signs: Sequence[int]) -> CuspidalDatum:
    """Cuspidal datum of a distinguished enhanced class of Sp_N or SO_N.

    ``signs`` are the character's on the increasing parts, and the datum's
    ``cusp_signs`` those of the cuspidal character.  The checks run: values, kind
    (its type, then O_N is :func:`springer_o`'s), p's type, validity, distinguished, count.
    d' comes from the closed defect formula and d from the normal form; the
    two are tied by d = d'-1 (d' >= 1) or -d' in the symplectic case and
    d = |d'| in the orthogonal one, and the agreement is enforced.
    """
    check_signs(signs)
    if require_type(kind, GroupKind, "a group").is_full_orthogonal:
        raise InvalidPartition(f"{kind} is a full orthogonal group: its map is springer_o")
    orbit = require_valid(kind, require_type(p, Partition, "a partition"))
    d, dprime, torus_rank, first = _slice_datum(orbit, signs)
    return CuspidalDatum(kind, torus_rank, staircase(kind.generator_parity, d),
                         staircase_signs(d, first), d, dprime)


# -- full orthogonal group ---------------------------------------------------

class OCase(Enum):
    I = "I"
    II = "II"
    III = "III"


@dataclass(frozen=True)
class OSpringerDatum:
    """Output of the correspondence for the full orthogonal group.

    Case I: the quasi-Levi keeps an O-block; the extension sign chi rides on
    the cuspidal character, and the datum's ``cusp_signs`` are its honest
    O-level lift.  Case II: torus quasi-Levi, nondegenerate partition; chi
    rides on the Weyl-group representation instead.  Case III (degenerate
    partition): the two special-orthogonal classes fuse into one O-class, the
    component group is trivial and the Weyl representation is induced.

    The rest is read off these fields.  The quasi-Levi is (C*)^r x O_{d^2},
    r the datum's torus rank and d its size parameter, a factor left out
    when it is trivial; it keeps an O-block (d >= 1) exactly in case I.  The
    Weyl-group representation is the base one in case I, extended by chi in
    case II and induced in case III, where the fused classes are I and II.
    """

    case: OCase
    datum: CuspidalDatum
    chi: Optional[int]


def springer_o(kind: GroupKind, p: Partition, signs: Sequence[int]) -> OSpringerDatum:
    """Correspondence for O_N on a class with character at the O-level.

    ``kind`` is O_N, and ``signs`` an honest character of the O-component
    group: its signs on the distinct odd parts, increasing.  Checks run in order:
    sign values, kind (its type, then O_N), p's type, validity, sign count, N.  Cases:

    * III when the partition is degenerate (only even parts, all even
      multiplicities): one fused class, trivial character required;
    * I when N is odd, or N is even with cuspidal block size d^2 >= 4;
    * II otherwise (N even, torus quasi-Levi, some odd part present).

    d is read off the symbol defect, as the census reads it.  The lift of the
    cuspidal character is ``staircase_signs(d, first)``.  In case I, for even
    N, ``first`` is chi, the sign on the smallest odd part (a det = -1 class);
    for odd N (d odd) chi is the central value, the sign on the odd parts of
    odd multiplicity, and ``first`` is chi * (-1)^(d//2), so that the lift's
    signs multiply to chi.  In case II ``first`` is +1.  The correspondence is
    computed for N >= 1: O_0 has no det = -1 class for case II to read its
    sign from, so it is rejected.
    """
    check_signs(signs)
    if not require_type(kind, GroupKind, "a group").is_full_orthogonal:
        raise InvalidPartition(f"{kind} is not a full orthogonal group: springer_o takes O_N")
    orbit = require_valid(kind, require_type(p, Partition, "a partition"))
    multiplicity = dict(orbit.multiplicities)
    odd = tuple(q for q in multiplicity if q % 2)
    check_aligned(odd, signs, increasing=True)
    n = kind.size
    if n == 0:
        raise InvalidPartition("the O_N correspondence is computed for N >= 1, not for O_0")
    # O_N and SO_N admit the same partitions and share the orthogonal symbols
    dprime = swapped_symbol(interval_structure(orbit), signs).defect
    d = d_from_defect(kind, dprime)
    central = math.prod(sign for q, sign in zip(odd, signs) if multiplicity[q] % 2)
    if is_degenerate(orbit):
        case, chi, first = OCase.III, None, 1
    elif n % 2:  # d is odd: the lift whose signs multiply to chi
        case, chi, first = OCase.I, central, central * (-1) ** (d // 2)
    elif d >= 2:  # the quasi-Levi keeps an O_{d^2} block
        case, chi, first = OCase.I, signs[0], signs[0]
    else:  # a torus quasi-Levi: chi rides on the Weyl-group representation
        case, chi, first = OCase.II, signs[0], 1
    cusp_signs = staircase_signs(d, first)
    if case is OCase.I and math.prod(cusp_signs) != central:
        raise InternalCheckError(f"central values disagree in the even case on {p}, {signs}")
    datum = CuspidalDatum(classical_kind(1, n), _torus_rank(kind, d, p, signs), staircase(1, d),
                          cusp_signs, d, dprime)
    return OSpringerDatum(case, datum, chi)


# -- index-two subgroup of a product of orthogonal groups --------------------

@dataclass(frozen=True)
class ProductFactor:
    """A factor O_m, m the partition's total, with signs on its odd parts, increasing."""

    partition: Partition
    signs: tuple[int, ...]

    def __post_init__(self):
        require_type(self.partition, Partition, "a factor partition")


@dataclass(frozen=True)
class ProductSpringerDatum:
    """Staged datum for the determinant-one subgroup of a product of O_m's.

    ``factor_data`` holds each factor's :func:`springer_o` result, in factor
    order; their cases group the factors into the three blocks.  The
    generator sets of the three extension stages are recorded verbatim as
    products ``s_i s_j`` of the per-factor flips (0-based indices);
    characters of the first two stages are evaluated on their generators
    (case-III factors carry no values, their stage is an induction).  The
    Weyl-group representation is extended when ``c_orbit`` is non-empty and
    induced when ``c_induction`` is.
    """

    factor_data: tuple[OSpringerDatum, ...]
    c_levi: tuple[tuple[int, int], ...]
    c_orbit: tuple[tuple[int, int], ...]
    c_induction: tuple[tuple[int, int], ...]
    chi_levi: tuple[int, ...]
    chi_orbit: tuple[int, ...]

    def generator_labels(self, pairs: tuple[tuple[int, int], ...]) -> tuple[str, ...]:
        return tuple(f"s{i + 1}*s{j + 1}" for i, j in pairs)


def springer_product(factors: Sequence[ProductFactor]) -> ProductSpringerDatum:
    """Three-stage correspondence for S(prod O_{m_i}) on per-factor data.

    Characters are given per factor at the O_{m_i} level, as its signs; the
    global determinant-one constraint is then structural (only products of
    the per-factor flips are ever evaluated), so the signs are taken as
    given, up to the simultaneous flip of every factor with odd parts.
    """
    if not factors:
        raise InvalidPartition("a product needs at least one orthogonal factor")
    for f in factors:
        require_type(f, ProductFactor, "a factor")
    subs = tuple(springer_o(GroupKind(Family.O_ODD if f.partition.total % 2 else Family.O_EVEN,
                                 f.partition.total), f.partition, f.signs) for f in factors)
    ones = tuple(i for i, sub in enumerate(subs) if sub.case is OCase.I)
    twos = tuple(i for i, sub in enumerate(subs) if sub.case is OCase.II)
    threes = tuple(i for i, sub in enumerate(subs) if sub.case is OCase.III)

    if ones:
        anchor = ones[-1]
        c_levi = tuple(zip(ones, ones[1:]))
        c_orbit = tuple((anchor, j) for j in twos)
        c_induction = tuple((anchor, j) for j in threes)
    else:
        c_levi = ()
        c_orbit = tuple(zip(twos, twos[1:]))
        bridge = (twos[-1],) if twos else ()
        tail = bridge + threes
        c_induction = tuple(zip(tail, tail[1:]))

    def pair_value(pair: tuple[int, int]) -> int:
        # the signs on the smallest odd parts, det = -1 classes every case I/II factor has
        i, j = pair
        return factors[i].signs[0] * factors[j].signs[0]

    chi_levi = tuple(pair_value(g) for g in c_levi)
    chi_orbit = tuple(pair_value(g) for g in c_orbit)

    return ProductSpringerDatum(subs, c_levi, c_orbit, c_induction, chi_levi, chi_orbit)
