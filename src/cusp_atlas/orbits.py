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

A character of a class's component group is its signs on the z_q, the
parts q increasing: every orbit-level layer takes it so and returns it so.
A :class:`SignCharacter` is the parameter-level table of values on labelled
generators, and :func:`signs_on` reads it into signs.  For SO_N the
component group is the index-two "even" subgroup of the O_N one; its
characters are represented by either of their two extensions to O_N, and
two sign tuples name the same SO-character exactly when they agree or
differ by the global sign flip.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

from .errors import DomainMismatch, InvalidParameter, InvalidPartition


def as_int(value) -> int:
    """The one integer read of the constructors: TypeError on a bool or a non-integer."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def require_type(value, cls: type, what: str):
    """The one type door of the public API: value, or TypeError
    "<what> is a/an <class>, got <type>"."""
    if isinstance(value, cls):
        return value
    article = "an" if cls.__name__[0] in "AEIOUaeiou" else "a"
    raise TypeError(f"{what} is {article} {cls.__name__}, got {type(value).__name__}")


class Family(str, Enum):
    SP = "Sp"
    SO_ODD = "SOodd"
    SO_EVEN = "SOeven"
    O_ODD = "Oodd"
    O_EVEN = "Oeven"
    GL = "GL"


_EVEN_SIZE = {Family.SP, Family.SO_EVEN, Family.O_EVEN}
_ODD_SIZE = {Family.SO_ODD, Family.O_ODD}
# GroupKind's predicates look the family up here: on Python 3.11, naming an
# enum member (Family.SP) goes through the enum class's __getattr__ hook and
# costs several set lookups, and the census asks a predicate per pair.  The
# orbit functions read the members they compare with through module names.
_SP, _SO_ODD, _SO_EVEN = Family.SP, Family.SO_ODD, Family.SO_EVEN
_SPECIAL_ORTHOGONAL = {Family.SO_ODD, Family.SO_EVEN}
_FULL_ORTHOGONAL = {Family.O_ODD, Family.O_EVEN}
# the parity of the parts carrying z-generators: even for Sp, odd for (S)O, none for GL
_GENERATOR_PARITY = {Family.SP: 0, **dict.fromkeys(_SPECIAL_ORTHOGONAL | _FULL_ORTHOGONAL, 1)}


@dataclass(frozen=True)
class GroupKind:
    """A complex classical group, given by its family (a Family or its value) and matrix size."""

    family: Family
    size: int

    def __post_init__(self):
        if self.family.__class__ is not Family:  # a member passes as it is
            try:
                object.__setattr__(self, "family", Family(self.family))
            except ValueError:
                raise ValueError(f"group family {self.family!r} is not one of "
                                 + ", ".join(f.value for f in Family)) from None
        if type(self.size) is not int:  # an exact int is read as it is
            object.__setattr__(self, "size", as_int(self.size))
        if self.size < 0:
            raise ValueError(f"matrix size must be nonnegative, got {self.size}")
        if self.family in _EVEN_SIZE and self.size % 2:
            raise ValueError(f"{self.family.value} requires an even size, got {self.size}")
        if self.family in _ODD_SIZE and self.size % 2 == 0:
            raise ValueError(f"{self.family.value} requires an odd size, got {self.size}")

    @property
    def is_symplectic(self) -> bool:
        return _GENERATOR_PARITY.get(self.family) == 0

    @property
    def is_special_orthogonal(self) -> bool:
        return self.family in _SPECIAL_ORTHOGONAL

    @property
    def is_full_orthogonal(self) -> bool:
        return self.family in _FULL_ORTHOGONAL

    @property
    def is_gl(self) -> bool:
        return self.family not in _GENERATOR_PARITY

    @property
    def generator_parity(self) -> Optional[int]:
        """Parity (0 even / 1 odd) of the parts carrying z-generators."""
        return _GENERATOR_PARITY.get(self.family)

    def __str__(self) -> str:
        return f"{self.family.value}_{self.size}"


def classical_kind(parity: int, n: int) -> GroupKind:
    """The group of size n with z-generators on the parts of the given parity:
    Sp_n for 0, SO_n for 1 (the inverse of :attr:`GroupKind.generator_parity`)."""
    if type(parity) is bool or parity not in (0, 1):
        raise InvalidParameter(f"a generator parity is 0 or 1, got {parity!r}")
    if parity == 0:
        return GroupKind(_SP, n)
    return GroupKind(_SO_ODD if n % 2 else _SO_EVEN, n)


@dataclass(frozen=True, order=True)
class Partition:
    """A partition stored weakly decreasing.

    The symbol algorithms index parts increasingly; :meth:`increasing` is
    the single conversion point.
    """

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        if not set(map(type, parts)) <= {int}:  # an exact int is read as it is
            parts = map(as_int, parts)
        parts = tuple(sorted(parts, reverse=True))
        if parts and parts[-1] <= 0:
            raise ValueError(f"parts must be positive integers, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

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


_FREE = Relation.FREE
_QUOTIENT = Relation.QUOTIENT_BY_FULL_PRODUCT


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
    """A character given as a dict on labelled Z/2 generators: each value is the int 1 or -1."""

    values: tuple[tuple[object, int], ...]

    def __init__(self, mapping: dict):
        if not isinstance(mapping, dict):
            raise TypeError(f"a SignCharacter is given as a dict, got {type(mapping).__name__}")
        values = mapping.values()
        if not (set(map(type, values)) <= {int} and set(values) <= _SIGNS):
            for key, sign in mapping.items():  # name the first bad value
                if type(sign) is not int or sign not in (1, -1):
                    raise ValueError(f"character value at {key!r} must be +1 or -1, got {sign!r}")
        try:
            object.__setattr__(self, "values", tuple(sorted(mapping.items())))
        except TypeError:
            raise TypeError(f"the generators of a SignCharacter must compare with each "
                            f"other, got {tuple(mapping)!r}") from None

    def keys(self) -> tuple:
        """The generators, increasing: the first column of ``values``."""
        return next(zip(*self.values), ())

    def __str__(self) -> str:
        return "(" + ",".join("+" if s == 1 else "-" for _, s in self.values) + ")"


_SIGNS = frozenset((1, -1))


def signs_on(eta: SignCharacter, keys: Iterable, what: str, owner) -> tuple[int, ...]:
    """eta's sign on each of ``keys``, in key order (a key may repeat).

    The one check of a character's domain: unless eta is given on exactly
    the generators ``keys``, it raises DomainMismatch, "character domain ...
    does not match <what> of <owner>".  A tuple of eta's own generators,
    increasing, is read straight off its value table.
    """
    if require_type(eta, SignCharacter, "a character").keys() == keys:
        return tuple(map(operator.itemgetter(1), eta.values))
    keys = tuple(keys)
    table = dict(eta.values)
    if table.keys() != set(keys):
        raise DomainMismatch(f"character domain {eta.keys()} does not match {what} of {owner}")
    return tuple(table[k] for k in keys)


def check_signs(signs: Sequence[int]) -> None:
    """The one sign-value rule: each sign is the int 1 or -1, as each value of
    a SignCharacter is."""
    for sign in signs:
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"a sign must be the int 1 or -1, got {sign!r}")


def check_aligned(parts: Sequence[int], signs: Sequence[int], increasing: bool = False) -> None:
    """The one check of signs aligned with parts: sign values first, one sign
    per part, and the parts strictly increasing, unless the caller has them
    so by construction."""
    check_signs(signs)
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
    validated once, where it is made.  It carries the table its validation
    counted, ``multiplicities``: the (part, multiplicity) pairs, distinct
    parts increasing, which every orbit-level layer reads instead of
    counting the parts again.  The table is a function of the partition, so
    it takes no part in ``==`` or ``hash``.
    """

    kind: GroupKind
    partition: Partition
    multiplicities: tuple[tuple[int, int], ...] = field(default=(), repr=False, compare=False)
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
    The multiplicities are counted here, once, and a valid verdict's orbit
    carries their table.
    """
    problems = []
    if p.total != kind.size:
        problems.append(f"parts sum to {p.total}, expected {kind.size}")
    table = p.multiplicities()
    parity = kind.generator_parity
    if parity is not None:  # the parts of the other parity come in pairs
        rule = "even" if parity else "odd"
        for q, m in table.items():
            if q % 2 != parity and m % 2:
                problems.append(f"{rule} part {q} has odd multiplicity {m}")
    if problems:
        return Verdict(False, tuple(problems))
    return Verdict(True, (), ValidOrbit(kind, p, tuple(table.items()), _MINT))


def require_valid(kind: GroupKind, p: Partition) -> ValidOrbit:
    """The orbit of p, or InvalidPartition naming every problem."""
    verdict = validate_partition(kind, p)
    if not verdict:
        raise InvalidPartition(f"{p} is not a {kind} partition: " + "; ".join(verdict.problems))
    return verdict.orbit


def is_degenerate(orbit: ValidOrbit) -> bool:
    """All parts even with even multiplicities (the class-splitting case)."""
    return all(q % 2 == 0 and m % 2 == 0 for q, m in orbit.multiplicities)


def orbit_count(orbit: ValidOrbit) -> int:
    """Number of unipotent classes attached to the partition (2 only for degenerate SO_even)."""
    if orbit.kind.family is _SO_EVEN and orbit.multiplicities and is_degenerate(orbit):
        return 2
    return 1


def component_group(orbit: ValidOrbit) -> ComponentGroupDescriptor:
    """Component group of the centralizer of a class of the orbit's type."""
    kind = orbit.kind
    parity = kind.generator_parity
    if parity is None:  # GL: connected reductive centralizer
        return ComponentGroupDescriptor((), _FREE, 1)
    gens = tuple(q for q, _ in orbit.multiplicities if q % 2 == parity)
    if kind.is_special_orthogonal:
        order = 2 ** max(0, len(gens) - 1)
        return ComponentGroupDescriptor(gens, _QUOTIENT, order)
    return ComponentGroupDescriptor(gens, _FREE, 2 ** len(gens))


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


def staircase_signs(d: int, first: int) -> tuple[int, ...]:
    """The cuspidal character on a staircase of d parts, as its signs on the
    increasing parts: they alternate, with ``first`` on the smallest.

    The symplectic one is ``first = -1``, (-1)^i on z_{2i}; the two
    orthogonal lifts to the O-level group are ``first = +1`` and ``-1``,
    +-(-1)^(i+1) on z_{2i-1}.
    """
    if type(d) is not int:  # an exact int is read as it is
        d = as_int(d)
    if d < 0 or type(first) is bool or first not in (1, -1):
        raise InvalidParameter(f"a staircase has d >= 0 parts and a first sign of +1 or -1, "
                               f"got d = {d!r} and first = {first!r}")
    return ((first, -first) * ((d + 1) // 2))[:d]


def staircase_pairs(parity: int, d: int, first: int) -> tuple[tuple[int, int], ...]:
    """The parts of ``staircase(parity, d)``, increasing, each with its sign
    of :func:`staircase_signs`."""
    return tuple(zip(range(2 - parity, 2 * d + 1, 2), staircase_signs(d, first)))


@dataclass(frozen=True)
class CuspidalPair:
    """The cuspidal (class, character) of a group, when it exists.

    ``characters`` are the cuspidal characters, each as its signs on the
    increasing parts: the one of GL_1 and of Sp, and for the orthogonal
    families the two lifts to the O-level group, +1 and then -1 on the
    smallest part.  Both lifts restrict to the same SO-character, the one
    that is -1 on each product of consecutive generators.
    """

    partition: Partition
    characters: tuple[tuple[int, ...], ...]


def cuspidal_pair(kind: GroupKind) -> Optional[CuspidalPair]:
    """Cuspidal pair of the group, or None when the size is not admissible."""
    n = require_type(kind, GroupKind, "a group").size
    if kind.is_gl:
        return CuspidalPair(Partition((1,)), ((),)) if n == 1 else None
    parity = kind.generator_parity
    d = staircase_d(parity, n)
    if d is None:
        return None
    firsts = (1, -1) if parity else (-1,)
    return CuspidalPair(staircase(parity, d), tuple(staircase_signs(d, first) for first in firsts))


def characters_of(descriptor: ComponentGroupDescriptor) -> list[tuple[int, ...]]:
    """All characters, as their signs aligned with ``descriptor.generators``.

    For the quotient presentation the two sign vectors related by the global
    flip name the same character; one representative per class is returned,
    the one whose sign on the smallest generator is +1.
    """
    g = len(descriptor.generators)
    if descriptor.relation is _QUOTIENT and g:
        return [(1,) + rest for rest in itertools.product((1, -1), repeat=g - 1)]
    return list(itertools.product((1, -1), repeat=g))
