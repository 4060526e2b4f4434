"""Elimination and the map from enhanced classes to cuspidal data.

For a distinguished class with character, repeatedly deleting a pair of
adjacent parts carrying equal signs ("elimination") terminates in a normal
form with strictly alternating signs.  The content of the normal form
(length, sign pattern, d) does not depend on the deletion order, the symbol
defect survives every step, and the defect (equivalently the shape of the
normal form) determines a cuspidal datum: a torus rank, the
triangular/staircase cuspidal partition, and its sign character.  Both
computation routes, the closed defect formula and the normal form, are
always run and compared; disagreement raises.  :func:`eliminate` (the
leftmost path, with its history) and :func:`elimination_outcomes` (every
order) are the only two places that eliminate.  Both take and return one
normal-form value, increasing parts with their aligned signs, into which
:func:`springer_datum` reads its character once.  Both find their deletion
sites as :func:`removable_sites` does, and a single step is a slice of the
increasing parts and of their signs.

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
    SignCharacter,
    check_aligned,
    classical_kind,
    is_degenerate,
    require_valid,
    signs_on,
    staircase,
    staircase_character,
)
from .symbols import defect_formula, distinguished_parts, interval_structure, swapped_symbol


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
    """Levi torus rank + cuspidal (partition, character) + shape parameters."""

    kind: GroupKind
    torus_rank: int
    cusp_partition: Partition
    cusp_character: SignCharacter
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


def springer_datum(kind: GroupKind, p: Partition, eta: SignCharacter) -> CuspidalDatum:
    """Cuspidal datum of a distinguished enhanced class of Sp_N or SO_N.

    d' comes from the closed defect formula and d from the normal form; the
    two are tied by d = d'-1 (d' >= 1) or -d' in the symplectic case and
    d = |d'| in the orthogonal one, and the agreement is enforced.
    """
    orbit = require_valid(kind, p)
    parts = distinguished_parts(orbit)
    signs = signs_on(eta, parts, "parts", p)
    dprime = defect_formula(orbit, signs)
    normal, normal_signs, _ = eliminate(parts, signs)
    sym = swapped_symbol(interval_structure(orbit), signs)
    if sym.defect != dprime:
        raise InternalCheckError(
            f"defect formula {dprime} != symbol defect {sym.defect} on {p}, {eta}")
    d = d_from_normal_form(kind, normal, normal_signs)
    if d != d_from_defect(kind, dprime):
        raise InternalCheckError(
            f"normal form gives d={d}, defect {dprime} gives {d_from_defect(kind, dprime)}")
    parity = kind.generator_parity
    cusp = staircase(parity, d)
    if parity == 0:
        char = staircase_character(parity, d, -1)
    else:
        leading = normal_signs[0] if normal_signs else 1
        char = staircase_character(parity, d, leading)
        if math.prod(signs) != (char.product() if len(cusp) else 1):
            raise InternalCheckError(f"central value not conserved on {p}, {eta}")
    torus_rank, rem = divmod(kind.size - cusp.total, 2)
    if rem or torus_rank < 0:
        raise InternalCheckError(f"bad torus rank for {p}, {eta}: N={kind.size}, d={d}")
    return CuspidalDatum(kind, torus_rank, cusp, char, d, dprime)


# -- full orthogonal group ---------------------------------------------------

class OCase(Enum):
    I = "I"
    II = "II"
    III = "III"


class WeylTag(Enum):
    BASE = "base"
    EXTENDED = "extended"
    INDUCED = "induced"


@dataclass(frozen=True)
class QuasiLevi:
    """Centralizer of a torus in O_N: a torus part and one O-block."""

    torus_rank: int
    o_size: int

    def __str__(self) -> str:
        if self.torus_rank and self.o_size:
            return f"(C*)^{self.torus_rank} x O_{self.o_size}"
        if self.torus_rank:
            return f"(C*)^{self.torus_rank}"
        if self.o_size:
            return f"O_{self.o_size}"
        return "1"


@dataclass(frozen=True)
class OSpringerDatum:
    """Output of the correspondence for the full orthogonal group.

    Case I: the quasi-Levi keeps an O-block; the extension sign chi rides on
    the cuspidal character (recorded as the honest O-level lift).  Case II:
    torus quasi-Levi, nondegenerate partition; chi rides on the Weyl-group
    representation instead.  Case III (degenerate partition): the two
    special-orthogonal classes fuse into one O-class, the component group is
    trivial and the Weyl representation is induced.
    """

    case: OCase
    quasi_levi: QuasiLevi
    datum: CuspidalDatum
    weyl_rep: WeylTag
    chi: Optional[int]
    cusp_character_o: Optional[SignCharacter]
    fused_orbit_tags: tuple[str, ...] = ()


def springer_o(p: Partition, eta: SignCharacter) -> OSpringerDatum:
    """Correspondence for O_N on a class with character at the O-level.

    ``eta`` is an honest character of the O-component group (one value per
    distinct odd part).  The three cases:

    * III when the partition is degenerate (only even parts, all even
      multiplicities): one fused class, trivial character required;
    * I when N is odd, or N is even with cuspidal block size d^2 >= 4;
    * II otherwise (N even, torus quasi-Levi, some odd part present).

    In case I the recorded lift of the cuspidal character matches eta on
    the central element when that pins it (d odd) and carries the extension
    sign on z_1 otherwise.

    The correspondence is computed for N >= 1: O_0 has no det = -1 class
    for case II to read its sign from, so it is rejected.
    """
    n = p.total
    kind_so = classical_kind(1, n)
    orbit = require_valid(GroupKind(Family.O_ODD if n % 2 else Family.O_EVEN, n), p)
    odd = p.distinct_parts_of_parity(1)
    signs = signs_on(eta, odd, "the odd parts", p)
    if n == 0:
        raise InvalidPartition("the O_N correspondence is computed for N >= 1, not for O_0")

    if is_degenerate(p):
        torus_rank = n // 2
        datum = CuspidalDatum(kind_so, torus_rank, Partition(), SignCharacter(), 0, 0)
        return OSpringerDatum(
            OCase.III, QuasiLevi(torus_rank, 0), datum, WeylTag.INDUCED,
            None, None, fused_orbit_tags=("I", "II"))

    # O_N and SO_N admit the same partitions and share the orthogonal symbols
    dprime = swapped_symbol(interval_structure(orbit), signs).defect
    d = abs(dprime)
    torus_rank = (n - d * d) // 2
    cusp = staircase(1, d)
    # eta on the central element -1 (the odd parts of odd multiplicity), and on
    # the smallest odd part, a det = -1 class that a nondegenerate partition has
    multiplicity = p.multiplicities()
    central = math.prod(sign for q, sign in zip(odd, signs) if multiplicity[q] % 2)
    det_minus = signs[0]
    if n % 2 or d >= 2:
        # case I: the quasi-Levi keeps an O_{d^2} block
        if n % 2:
            chi = central
            lift = staircase_character(1, d, 1)
            o_char = lift if lift.product() == chi else staircase_character(1, d, -1)
            if o_char.product() != chi:
                raise InternalCheckError(f"no central-value-matching lift on {p}, {eta}")
        else:
            chi = det_minus
            o_char = staircase_character(1, d, chi)
            if o_char.product() != central:
                raise InternalCheckError(
                    f"central values disagree in the even case on {p}, {eta}")
        datum = CuspidalDatum(kind_so, torus_rank, cusp, o_char, d, dprime)
        return OSpringerDatum(OCase.I, QuasiLevi(torus_rank, d * d), datum,
                              WeylTag.BASE, chi, o_char)

    # case II: N even, torus quasi-Levi, extension sign moves to the Weyl side
    chi = det_minus
    datum = CuspidalDatum(kind_so, torus_rank, cusp, staircase_character(1, d, 1), d, dprime)
    return OSpringerDatum(OCase.II, QuasiLevi(torus_rank, 0), datum,
                          WeylTag.EXTENDED, chi, None)


# -- index-two subgroup of a product of orthogonal groups --------------------

@dataclass(frozen=True)
class ProductFactor:
    partition: Partition
    character: SignCharacter


@dataclass(frozen=True)
class ProductSpringerDatum:
    """Staged datum for the determinant-one subgroup of a product of O_m's.

    Factors are grouped by their individual case: ``block_i`` (case I-like),
    ``block_ii``, ``block_iii`` hold the 0-based factor indices.  The
    generator sets of the three extension stages are recorded verbatim as
    products ``s_i s_j`` of the per-factor flips; characters of the first
    two stages are evaluated on their generators (case-III factors carry no
    values, their stage is an induction).
    """

    block_i: tuple[int, ...]
    block_ii: tuple[int, ...]
    block_iii: tuple[int, ...]
    c_levi: tuple[tuple[int, int], ...]
    c_orbit: tuple[tuple[int, int], ...]
    c_induction: tuple[tuple[int, int], ...]
    quasi_levi: tuple[QuasiLevi, ...]
    cusp_data: tuple[CuspidalDatum, ...]
    chi_levi: tuple[int, ...]
    chi_orbit: tuple[int, ...]
    extended: bool
    induced: bool

    def generator_labels(self, pairs: tuple[tuple[int, int], ...]) -> tuple[str, ...]:
        return tuple(f"s{i + 1}*s{j + 1}" for i, j in pairs)


def _factor_flip_value(factor: ProductFactor) -> int:
    """Value of the character on the smallest odd part of the factor, a
    canonical det = -1 class, which every case I or II factor has."""
    return factor.character(factor.partition.distinct_parts_of_parity(1)[0])


def springer_product(factors: Sequence[ProductFactor]) -> ProductSpringerDatum:
    """Three-stage correspondence for S(prod O_{m_i}) on per-factor data.

    Characters are given per factor at the O_{m_i} level; the global
    determinant-one constraint is then structural (only products of the
    per-factor flips are ever evaluated), so the value tables are taken as
    given, up to the simultaneous flip of every factor with odd parts.
    """
    if not factors:
        raise InvalidPartition("a product needs at least one orthogonal factor")
    subs = [springer_o(f.partition, f.character) for f in factors]
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
        i, j = pair
        return _factor_flip_value(factors[i]) * _factor_flip_value(factors[j])

    chi_levi = tuple(pair_value(g) for g in c_levi)
    chi_orbit = tuple(pair_value(g) for g in c_orbit)

    return ProductSpringerDatum(
        ones, twos, threes, c_levi, c_orbit, c_induction,
        tuple(sub.quasi_levi for sub in subs), tuple(sub.datum for sub in subs),
        chi_levi, chi_orbit,
        extended=bool(c_orbit), induced=bool(c_induction))
