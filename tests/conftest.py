"""Fixtures shared by the support tests of the library and of the CLI, a
byte-backed standard input for CLI jobs, spies on partition validation and
on character reads, the symbol and closed-form defect of a pair from a bare
partition, the set-algebra route to a pair's symbol, the alternative
symplectic defect formula the symbol tests compare against, and a shorthand
for parameter characters.

A pair's character is given to these helpers as the library's layers take
it: its signs aligned with the increasing generators."""

import io
import sys
from typing import Iterable, Sequence

import pytest

from cusp_atlas import cuspsupport, orbits
from cusp_atlas.errors import DomainMismatch
from cusp_atlas.lparams import DiscreteParameter, ParameterCharacter
from cusp_atlas.orbits import GroupKind, Partition, SignCharacter, require_valid
from cusp_atlas.symbols import (
    IntervalStructure,
    USymbol,
    defect_formula,
    interval_structure,
    swapped_symbol,
)


def pair_symbol(kind: GroupKind, p: Partition, signs: Sequence[int]) -> USymbol:
    """The u-symbol of the pair (class of p, signs on its generators), p
    validated for the group."""
    return swapped_symbol(interval_structure(require_valid(kind, p)), signs)


def pair_defect(kind: GroupKind, p: Partition, signs: Sequence[int]) -> int:
    """The closed-form defect of the pair (class of p, signs on its parts), p
    validated for the group."""
    return defect_formula(require_valid(kind, p), signs)


def set_algebra_swapped_symbol(structure: IntervalStructure, signs: Sequence[int]) -> USymbol:
    """The set-algebra form of `swapped_symbol`: the base rows' common part and
    margin, then the content of each interval from the row its sign selects,
    all on Python sets of the rows read back as tuples."""
    base_a, base_b = set(structure.symbol.a), set(structure.symbol.b)
    row_a = (base_a & base_b) | (set(structure.h) & base_a)
    row_b = (base_a & base_b) | (set(structure.h) & base_b)
    assert len(signs) == len(structure.intervals)
    for run, sign in zip(structure.intervals, signs):
        src_a, src_b = (base_b, base_a) if sign == -1 else (base_a, base_b)
        row_a |= set(run) & src_a
        row_b |= set(run) & src_b
    return USymbol(structure.symbol.parity, row_a, row_b)


def alternative_defect_formula_sp(signs: Sequence[int]) -> int:
    """The other printed closed form for the symplectic defect, on the signs
    of the increasing parts.

    Kept purely for regression comparison: on the cuspidal fixtures it
    exceeds `symbols.defect_formula` by exactly k + 1.
    """
    k = len(signs)
    acc = sum((-1) ** (i + k) * sign for i, sign in enumerate(signs, start=1))
    return acc + 2 * k + 2 - 2 * ((k + 1) // 2)


def character_on(p: DiscreteParameter, signs: Iterable[int]) -> ParameterCharacter:
    """The character with the given signs, aligned with the sorted block list."""
    signs = tuple(signs)
    if len(signs) != len(p.blocks):
        raise DomainMismatch(f"{len(signs)} signs for {len(p.blocks)} blocks")
    return SignCharacter(dict(zip(p.block_keys(), signs)))


@pytest.fixture
def feed_stdin(monkeypatch):
    """``feed(data)`` puts ``data`` on standard input as the bytes a pipe
    carries: a str goes as its UTF-8 encoding, bytes go as they are.

    The text layer decodes as Python's own standard input does in UTF-8
    mode, with ``surrogateescape``, so it lets invalid UTF-8 through.
    """
    def feed(data) -> None:
        if isinstance(data, str):
            data = data.encode("utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
    return feed


def _spy(monkeypatch, direct, record) -> list:
    """Replace the function ``direct`` in every module of the package that
    holds it by one that appends ``record(*args, **kwargs)`` to the returned
    list before it calls ``direct``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return direct(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "cusp_atlas" or name.startswith("cusp_atlas."):
            for attr, value in list(vars(module).items()):
                if value is direct:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def validated(monkeypatch) -> list:
    """The partitions `orbits.validate_partition` is called on, in order, from
    every module of the package that holds it."""
    return _spy(monkeypatch, orbits.validate_partition, lambda kind, p: p.parts)


@pytest.fixture
def signs_read(monkeypatch) -> list:
    """The keys `orbits.signs_on` reads a character on, in order, from every
    module of the package that holds it."""
    return _spy(monkeypatch, orbits.signs_on, lambda eta, keys, what, owner: keys)


@pytest.fixture
def support_calls(monkeypatch) -> list:
    """The parameters `cuspsupport.support` is called on, in order."""
    calls = []
    direct = cuspsupport.support

    def counted(p, eta):
        calls.append(p)
        return direct(p, eta)

    monkeypatch.setattr(cuspsupport, "support", counted)
    return calls


@pytest.fixture
def lossy_psi_route(monkeypatch) -> None:
    """Negative control: every psi-route segment loses its last exponent."""
    segment = cuspsupport._segment
    monkeypatch.setattr(cuspsupport, "_segment",
                        lambda top, length, label: segment(top, max(length - 1, 0), label))


@pytest.fixture
def shifted_psi_route(monkeypatch) -> None:
    """Negative control: every psi image moves up one staircase step."""
    psi_map = cuspsupport._psi_map
    monkeypatch.setattr(cuspsupport, "_psi_map", lambda parity, parts, signs: tuple(
        i + 2 for i in psi_map(parity, parts, signs)))
