"""Exhaustive enumeration of classes, characters and parameters.

The census side is brute force on purpose: these generators feed the
property checks and the census tables, so they must be independent of the
closed formulas they exercise.  The predicted side of the count identity,
p(n), bip(m) and #Irr W(D_m), is closed recurrences.

Each partition is validated once, where it is enumerated: the enumerators
yield ``orbits.ValidOrbit`` values, which only ``validate_partition``
makes, and every function taking one reads it as admissible without
checking it again.  So the type, not a convention, carries the check.
Only the partitions that are classes of the group are enumerated.

The census does per partition what depends on the partition alone: it
counts its classes, lists its characters as signs on the generators and
builds its interval structure, with every check of ``interval_structure``.
The multiplicities of each partition are counted once, by its validation,
and the orbit carries that table to ``orbit_count``, ``component_group`` and
``interval_structure``.  Every (partition, character) pair still gets its
own u-symbol, built and validated, and its d is read off that symbol's
defect.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import InternalCheckError, InvalidParameter
from .lparams import (
    DiscreteParameter,
    IrrLabel,
    ParameterCharacter,
    SelfDualType,
    block_group_type,
)
from .orbits import (
    Family,
    GroupKind,
    Partition,
    SignCharacter,
    ValidOrbit,
    characters_of,
    classical_kind,
    component_group,
    orbit_count,
    require_type,
    validate_partition,
)
from .springer import d_from_defect
from .symbols import interval_structure, swapped_symbol


def _valid_orbits(kind: GroupKind, partitions: Iterable[tuple[int, ...]]) -> Iterator[ValidOrbit]:
    """The orbits of the partitions a generator builds as classes of the group,
    each validated once: a partition its verdict refuses is a generator's bug."""
    for parts in partitions:
        verdict = validate_partition(kind, Partition(parts))
        orbit = verdict.orbit
        if orbit is None:
            raise InternalCheckError(f"the census built {Partition(parts)}, which is not a "
                                     f"{kind} partition: " + "; ".join(verdict.problems))
        yield orbit


def class_partitions(n: int, paired: int | None, top: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts at most top, the multiplicity of each part
    of the paired parity stepping by 2: largest part first, each multiplicity
    counting down (decreasing lexicographic order)."""
    if not n:
        yield ()
    for q in range(min(n, top), 0, -1):
        step = 2 if q % 2 == paired else 1
        for m in range(n // q // step * step, 0, -step):
            head = (q,) * m
            for tail in class_partitions(n - q * m, paired, q - 1):
                yield head + tail


def group_partitions(kind: GroupKind) -> Iterator[ValidOrbit]:
    """Orbits of the partitions classifying unipotent classes of the group,
    built as such: the parts of the paired parity (odd for Sp, even for SO
    and O, none for GL) come in pairs."""
    paired = None if kind.generator_parity is None else 1 - kind.generator_parity
    yield from _valid_orbits(kind, class_partitions(kind.size, paired, kind.size))


def distinct_part_partitions(n: int, parity: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into distinct parts of the given parity, increasing."""
    def rec(remaining: int, minimum: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        part = minimum
        while part <= remaining:
            for rest in rec(remaining - part, part + 2):
                yield (part,) + rest
            part += 2
    start = 2 if parity == 0 else 1
    yield from rec(n, start)


def distinguished_orbits(kind: GroupKind) -> Iterator[ValidOrbit]:
    """Orbits of the distinguished partitions of the group."""
    parity = kind.generator_parity
    if parity is not None:
        yield from _valid_orbits(kind, distinct_part_partitions(kind.size, parity))


def distinguished_pairs(kind: GroupKind) -> Iterator[tuple[Partition, tuple[int, ...]]]:
    """Distinguished partitions with every sign vector on their increasing
    parts (at the O-level)."""
    for orbit in distinguished_orbits(kind):
        for signs in itertools.product((1, -1), repeat=len(orbit.partition)):
            yield orbit.partition, signs


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n), by admitting the parts of each size k in turn; 0 for negative n."""
    if n < 0:
        return 0
    counts = [1] + [0] * n
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            counts[m] += counts[m - k]
    return counts[n]


def bipartition_count(n: int) -> int:
    """Pairs of partitions with total size n (class count of the rank-n
    hyperoctahedral Weyl group)."""
    return sum(partition_count(a) * partition_count(n - a) for a in range(n + 1))


def classical_kinds(limit: int) -> Iterator[GroupKind]:
    """Sp_n (for even n) and then SO_n, for n = 1, ..., limit."""
    for n in range(1, limit + 1):
        if n % 2 == 0:
            yield classical_kind(0, n)
        yield classical_kind(1, n)


def unipotent_census(kind: GroupKind) -> dict:
    """Count enhanced unipotent classes, bucketed by cuspidal datum size d."""
    require_type(kind, GroupKind, "a group")
    if kind.family not in (Family.SP, Family.SO_ODD, Family.SO_EVEN):
        raise InvalidParameter(f"census supports Sp and SO groups, not {kind}")
    by_d: dict[int, int] = {}
    for orbit in group_partitions(kind):
        copies = orbit_count(orbit)
        structure = interval_structure(orbit)
        for signs in characters_of(component_group(orbit)):
            d = d_from_defect(kind, swapped_symbol(structure, signs).defect)
            by_d[d] = by_d.get(d, 0) + copies
    return {"pairs": sum(by_d.values()), "by_d": dict(sorted(by_d.items()))}


def _irr_weyl_d(m: int) -> int:
    """#Irr W(D_m): one character per unordered pair of partitions of total
    size m, two per pair of equal ones, and one for the trivial W(D_0)."""
    if m == 0:
        return 1
    equal = partition_count(m // 2) if m % 2 == 0 else 0
    return (bipartition_count(m) + 3 * equal) // 2


def count_identity(kind: GroupKind) -> tuple[dict[int, int], dict[int, int]]:
    """Both sides of the class-count identity of Sp_N or SO_N, per d-bucket.

    Left: the exhaustive census of enhanced classes.  Right: each d whose
    staircase, of total t = d(d + 1 - parity), fits with N - t = 2m, has as
    many classes as its relative Weyl group has characters: bip(m) for
    W(B_m) = W(C_m), and #Irr W(D_m) for the orthogonal d = 0.
    """
    by_d = unipotent_census(kind)["by_d"]
    parity = kind.generator_parity
    predicted: dict[int, int] = {}
    d = 0
    while (t := d * (d + 1 - parity)) <= kind.size:
        m, odd = divmod(kind.size - t, 2)
        if not odd:
            predicted[d] = _irr_weyl_d(m) if parity and not d else bipartition_count(m)
        d += 1
    return by_d, predicted


DEFAULT_SIGNATURE = (IrrLabel("u", 1, SelfDualType.ORTHOGONAL),)


def enumerate_parameters(
    dual: GroupKind,
    signature: Sequence[IrrLabel] = DEFAULT_SIGNATURE,
) -> Iterator[tuple[DiscreteParameter, ParameterCharacter]]:
    """All discrete enhanced parameters on the given labels, duplicate-free.

    Block sizes per label are distinct with the parity its type forces;
    a character of an orthogonal component group is represented once per
    determinant-flip class, by the smaller of its two value tables.  The flip
    negates the signs on the blocks of odd n_pi * a; the sign tuples are
    compared before any character is built, and one is built per yield.
    """
    labels = tuple(signature)
    if len({require_type(lab, IrrLabel, "a label").name for lab in labels}) != len(labels):
        raise InvalidParameter("signature labels must have distinct names")
    for lab in labels:
        if lab.sd_type is SelfDualType.GL_PAIR:
            raise InvalidParameter("discrete parameters carry self-dual labels only")

    def assignments(idx: int, remaining: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if idx == len(labels):
            if remaining == 0:
                yield ()
            return
        label = labels[idx]
        parity = block_group_type(dual, label)
        for budget in range(0, remaining + 1):
            if budget % label.dim:
                continue
            for sizes in distinct_part_partitions(budget // label.dim, parity):
                for rest in assignments(idx + 1, remaining - budget):
                    yield (sizes,) + rest

    for sizing in assignments(0, dual.size):
        blocks = [(label, a) for label, sizes in zip(labels, sizing) for a in sizes]
        param = DiscreteParameter(dual, blocks)
        keys = param.block_keys()  # increasing, so a table compares as its signs
        odd = [(label.dim * a) % 2 for label, a in param.blocks]
        for signs in itertools.product((1, -1), repeat=len(keys)):
            if dual.is_symplectic or signs <= tuple(-s if o else s for s, o in zip(signs, odd)):
                yield param, SignCharacter(dict(zip(keys, signs)))
