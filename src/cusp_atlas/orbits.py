"""Partition combinatorics of unipotent classes in complex classical groups.

A unipotent class in GL_N(C), Sp_N(C) or (S)O_N(C) is encoded by the
partition of N formed by its Jordan block sizes, subject to a parity rule on
multiplicities.  This module implements the classification layer used by
everything else in the package:

* which partitions are admissible for which group, and when one partition
  corresponds to two distinct classes rather than one;
* the component group of the centralizer, an elementary abelian 2-group with
  one labelled generator ``z_q`` per distinct part q of the relevant parity
  (even parts for Sp, odd parts for the orthogonal groups);
* the distinguished classes: all parts distinct, of that fixed parity;
* the cuspidal pairs: the unique (class, character) carrying a cuspidal
  local system, which exists only at triangular sizes N = d(d+1) in the
  symplectic case and square sizes N = d^2 in the orthogonal case.

Characters of component groups are stored by their values on the z_q, and
:func:`signs_on` reads them once into the signs the layers below take.  For
SO_N the component group is the index-two "even" subgroup of the O_N one;
its characters are represented by either of their two extensions to O_N,
and two value tables name the same SO-character exactly when they agree or
differ by the global sign flip.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DomainMismatch, InvalidPartition


def as_int(value) -> int:
    """The one integer read of the constructors: TypeError on a bool or a non-integer."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


class Family(str, Enum):
    SP = "Sp"
    SO_ODD = "SOodd"
    SO_EVEN = "SOeven"
    O_ODD = "Oodd"
    O_EVEN = "Oeven"
    GL = "GL"


_EVEN_SIZE = {Family.SP, Family.SO_EVEN, Family.O_EVEN}
_ODD_SIZE = {Family.SO_ODD, Family.O_ODD}


@dataclass(frozen=True)
class GroupKind:
    """A complex classical group, given by its family and matrix size."""

    family: Family
    size: int

    def __post_init__(self):
        object.__setattr__(self, "size", as_int(self.size))
        if self.size < 0:
            raise ValueError(f"matrix size must be nonnegative, got {self.size}")
        if self.family in _EVEN_SIZE and self.size % 2:
            raise ValueError(f"{self.family.value} requires an even size, got {self.size}")
        if self.family in _ODD_SIZE and self.size % 2 == 0:
            raise ValueError(f"{self.family.value} requires an odd size, got {self.size}")

    @property
    def is_symplectic(self) -> bool:
        return self.family is Family.SP

    @property
    def is_orthogonal(self) -> bool:
        """True for both the special and the full orthogonal groups."""
        return self.family in (Family.SO_ODD, Family.SO_EVEN, Family.O_ODD, Family.O_EVEN)

    @property
    def is_special_orthogonal(self) -> bool:
        return self.family in (Family.SO_ODD, Family.SO_EVEN)

    @property
    def is_full_orthogonal(self) -> bool:
        return self.family in (Family.O_ODD, Family.O_EVEN)

    @property
    def is_gl(self) -> bool:
        return self.family is Family.GL

    @property
    def generator_parity(self) -> Optional[int]:
        """Parity (0 even / 1 odd) of the parts carrying z-generators."""
        if self.is_symplectic:
            return 0
        if self.is_orthogonal:
            return 1
        return None

    def __str__(self) -> str:
        return f"{self.family.value}_{self.size}"


def classical_kind(parity: int, n: int) -> GroupKind:
    """The group of size n with z-generators on the parts of the given parity:
    Sp_n for 0, SO_n for 1 (the inverse of :attr:`GroupKind.generator_parity`)."""
    if parity == 0:
        return GroupKind(Family.SP, n)
    return GroupKind(Family.SO_ODD if n % 2 else Family.SO_EVEN, n)


@dataclass(frozen=True, order=True)
class Partition:
    """A partition stored weakly decreasing.

    The symbol algorithms index parts increasingly; :meth:`increasing` is
    the single conversion point.
    """

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(sorted(map(as_int, parts), reverse=True))
        if parts and parts[-1] <= 0:
            raise ValueError(f"parts must be positive integers, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def increasing(self) -> tuple[int, ...]:
        return tuple(reversed(self.parts))

    def multiplicities(self) -> dict[int, int]:
        """{part: multiplicity}, distinct parts increasing, in one pass over the parts."""
        table: dict[int, int] = {}
        for q in reversed(self.parts):
            table[q] = table.get(q, 0) + 1
        return table

    def distinct_parts_of_parity(self, parity: int) -> tuple[int, ...]:
        return tuple(q for q in sorted(set(self.parts)) if q % 2 == parity)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


class Relation(Enum):
    """Presentation tag of a centralizer component group."""

    FREE = "free"
    QUOTIENT_BY_FULL_PRODUCT = "quotient-by-full-product"


@dataclass(frozen=True)
class ComponentGroupDescriptor:
    """An elementary abelian 2-group with labelled generators.

    ``order`` is 2^g for a free group and 2^(g-1) for the quotient (when
    there is a generator to cut down); it is stored explicitly so the two
    cases read off uniformly.
    """

    generators: tuple
    relation: Relation
    order: int

    def labels(self) -> tuple[str, ...]:
        return tuple(f"z_{g}" for g in self.generators)


@dataclass(frozen=True)
class SignCharacter:
    """A character given on labelled Z/2 generators: each value is the int 1 or -1."""

    values: tuple[tuple[object, int], ...]

    def __init__(self, mapping: Mapping[object, int] | Iterable[tuple[object, int]] = ()):
        items = dict(mapping)
        for key, sign in items.items():
            if type(sign) is not int or sign not in (1, -1):
                raise ValueError(f"character value at {key!r} must be +1 or -1, got {sign!r}")
        object.__setattr__(self, "values", tuple(sorted(items.items())))

    def __call__(self, key) -> int:
        sign = self.as_dict().get(key)
        if sign is None:
            raise DomainMismatch(f"character has no generator {key!r}")
        return sign

    def keys(self) -> tuple:
        """The generators, increasing: the first column of ``values``."""
        return next(zip(*self.values), ())

    def as_dict(self) -> dict:
        return dict(self.values)

    def product(self) -> int:
        return math.prod(sign for _, sign in self.values)

    def flip_where(self, predicate) -> "SignCharacter":
        return SignCharacter({k: (-s if predicate(k) else s) for k, s in self.values})

    def __str__(self) -> str:
        return "(" + ",".join("+" if s == 1 else "-" for _, s in self.values) + ")"


def signs_on(eta: SignCharacter, keys: Iterable, what: str, owner) -> tuple[int, ...]:
    """eta's sign on each of ``keys``, in key order (a key may repeat).

    The one check of a character's domain: unless eta is given on exactly
    the generators ``keys``, it raises DomainMismatch, "character domain ...
    does not match <what> of <owner>".  A tuple of eta's own generators,
    increasing, is read straight off its value table.
    """
    if eta.keys() == keys:
        return tuple(map(operator.itemgetter(1), eta.values))
    keys = tuple(keys)
    table = eta.as_dict()
    if table.keys() != set(keys):
        raise DomainMismatch(f"character domain {eta.keys()} does not match {what} of {owner}")
    return tuple(table[k] for k in keys)


def check_aligned(parts: Sequence[int], signs: Sequence[int], increasing: bool = False) -> None:
    """The one check of signs aligned with parts: one per part, and the parts
    strictly increasing, unless the caller has them so by construction."""
    if len(parts) != len(signs):
        raise DomainMismatch(f"{len(signs)} signs for the {len(parts)} parts {tuple(parts)}")
    if not increasing and not all(map(operator.lt, parts, parts[1:])):
        raise InvalidPartition(f"parts {tuple(parts)} do not strictly increase")


_MINT = object()


@dataclass(frozen=True)
class ValidOrbit:
    """A partition that passed :func:`validate_partition` for its group.

    Only that function makes one, so a function taking a ``ValidOrbit`` reads
    the partition as admissible without checking it again: each value is
    validated once, where it is made.
    """

    kind: GroupKind
    partition: Partition
    _mint: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._mint is not _MINT:
            raise TypeError("a ValidOrbit is made only by validate_partition")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a validation: valid, or the list of problems found.

    A valid partition's verdict carries it as ``orbit``.
    """

    valid: bool
    problems: tuple[str, ...] = ()
    orbit: Optional[ValidOrbit] = None

    def __bool__(self) -> bool:
        return self.valid


def validate_partition(kind: GroupKind, p: Partition) -> Verdict:
    """Check p against the Jordan-type rules of the group.

    Sp: odd parts need even multiplicity; (S)O: even parts need even
    multiplicity; GL: no rule.  A total different from the matrix size is
    reported as invalid rather than raised, so callers can collect problems.
    """
    problems = []
    if p.total != kind.size:
        problems.append(f"parts sum to {p.total}, expected {kind.size}")
    parity = kind.generator_parity
    if parity is not None:  # the parts of the other parity come in pairs
        rule = "even" if parity else "odd"
        for q, m in p.multiplicities().items():
            if q % 2 != parity and m % 2:
                problems.append(f"{rule} part {q} has odd multiplicity {m}")
    if problems:
        return Verdict(False, tuple(problems))
    return Verdict(True, (), ValidOrbit(kind, p, _MINT))


def require_valid(kind: GroupKind, p: Partition) -> ValidOrbit:
    """The orbit of p, or InvalidPartition naming every problem."""
    verdict = validate_partition(kind, p)
    if not verdict:
        raise InvalidPartition(f"{p} is not a {kind} partition: " + "; ".join(verdict.problems))
    return verdict.orbit


def is_degenerate(p: Partition) -> bool:
    """All parts even with even multiplicities (the class-splitting case)."""
    return all(q % 2 == 0 and m % 2 == 0 for q, m in p.multiplicities().items())


def orbit_count(orbit: ValidOrbit) -> int:
    """Number of unipotent classes attached to the partition (2 only for degenerate SO_even)."""
    p = orbit.partition
    if orbit.kind.family is Family.SO_EVEN and len(p) and is_degenerate(p):
        return 2
    return 1


def component_group(orbit: ValidOrbit) -> ComponentGroupDescriptor:
    """Component group of the centralizer of a class of the orbit's type."""
    kind = orbit.kind
    parity = kind.generator_parity
    if parity is None:  # GL: connected reductive centralizer
        return ComponentGroupDescriptor((), Relation.FREE, 1)
    gens = orbit.partition.distinct_parts_of_parity(parity)
    if kind.is_special_orthogonal:
        order = 2 ** max(0, len(gens) - 1)
        return ComponentGroupDescriptor(gens, Relation.QUOTIENT_BY_FULL_PRODUCT, order)
    return ComponentGroupDescriptor(gens, Relation.FREE, 2 ** len(gens))


def is_distinguished(orbit: ValidOrbit) -> bool:
    """All parts distinct, of the group's generator parity.

    GL classes are never distinguished here: the reductive centralizer
    always contains a central torus.
    """
    kind, parts = orbit.kind, orbit.partition.parts
    if kind.is_gl:
        return False
    if len(set(parts)) != len(parts):
        return False
    parity = kind.generator_parity
    return all(q % 2 == parity for q in parts)


def staircase(parity: int, d: int) -> Partition:
    """The cuspidal staircase of size parameter d.

    (2,4,...,2d) of total d(d+1) for parity 0 (the symplectic side) and
    (1,3,...,2d-1) of total d^2 for parity 1 (the orthogonal side): the
    parity of its parts is the group's :attr:`GroupKind.generator_parity`.
    """
    return Partition(range(2 - parity, 2 * d + 1, 2))


def staircase_d(parity: int, n: int) -> Optional[int]:
    """The d with ``staircase(parity, d).total == n``, or None.

    The total d(d + 1 - parity) lies in [d^2, d^2 + d], so d = isqrt(n).
    """
    d = math.isqrt(max(n, 0))
    return d if d * (d + 1 - parity) == n else None


def staircase_character(parity: int, d: int, first: int) -> SignCharacter:
    """The cuspidal character on ``staircase(parity, d)``: its signs
    alternate along the increasing parts, with ``first`` on the smallest.

    The symplectic one is ``first = -1``, (-1)^i on z_{2i}; the two
    orthogonal lifts to the O-level group are ``first = +1`` and ``-1``,
    +-(-1)^(i+1) on z_{2i-1}.
    """
    return SignCharacter({q: first * (-1) ** i
                          for i, q in enumerate(staircase(parity, d).increasing())})


@dataclass(frozen=True)
class CuspidalPair:
    """The cuspidal (class, character) of a group, when it exists.

    For the orthogonal families ``character`` is the plus extension and
    ``minus_lift`` the other one; both restrict to the same SO-character,
    the one that is -1 on each product of consecutive generators.
    """

    partition: Partition
    character: SignCharacter
    minus_lift: Optional[SignCharacter] = None


def cuspidal_pair(kind: GroupKind) -> Optional[CuspidalPair]:
    """Cuspidal pair of the group, or None when the size is not admissible."""
    n = kind.size
    if kind.is_gl:
        if n == 1:
            return CuspidalPair(Partition((1,)), SignCharacter())
        return None
    parity = kind.generator_parity
    d = staircase_d(parity, n)
    if d is None:
        return None
    if parity == 0:
        return CuspidalPair(staircase(parity, d), staircase_character(parity, d, -1))
    return CuspidalPair(
        staircase(parity, d),
        staircase_character(parity, d, 1),
        staircase_character(parity, d, -1),
    )


def characters_of(descriptor: ComponentGroupDescriptor) -> list[tuple[int, ...]]:
    """All characters, as their signs aligned with ``descriptor.generators``.

    For the quotient presentation the two sign vectors related by the global
    flip name the same character; one representative per class is returned,
    the one whose sign on the smallest generator is +1.
    """
    vectors = itertools.product((1, -1), repeat=len(descriptor.generators))
    if descriptor.relation is Relation.QUOTIENT_BY_FULL_PRODUCT and descriptor.generators:
        return [signs for signs in vectors if signs[0] == 1]
    return list(vectors)
