"""The invariant suite behind `cusp-atlas selfcheck` and the acceptance tests.

Each check exhausts a finite range and returns (name, passed, detail); the
ranges are configurable so the command-line run stays quick while the test
suite pushes the documented bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Callable, Mapping

from . import census
from .cuspsupport import check_support, outcome_supports
from .errors import InternalCheckError
from .lparams import block_group_type
from .orbits import GroupKind, Partition, SignCharacter, cuspidal_pair, require_valid
from .springer import elimination_outcomes, normal_form_content, removable_sites, springer_datum
from .symbols import defect_formula, interval_structure, swapped_symbol


@dataclass(frozen=True)
class Limits:
    """Range of each check; the defaults are the documented acceptance bounds."""

    defect: int = 20
    orders: int = 16
    support: int = 14
    census: int = 12
    cuspidal: int = 25


QUICK = Limits(defect=14, orders=12, support=10, census=8, cuspidal=20)


def selfcheck_limits(overrides: Mapping[str, int], bound: int) -> Limits:
    """The quick limits of `selfcheck`, with per-check overrides, each capped by bound."""
    return Limits(**{f.name: min(overrides.get(f.name, getattr(QUICK, f.name)), bound)
                     for f in fields(Limits)})


def _pair(kind: GroupKind, p: Partition, signs: tuple[int, ...]) -> str:
    """The pair being checked, its signs on the increasing parts printed as a character."""
    return f"{kind} {p} {SignCharacter(dict(zip(p.increasing(), signs)))}"


def check_defect_coherence(limit: int) -> tuple[bool, str]:
    """Formula defect == symbol defect, and invariance under every single step."""
    checked = 0
    for kind in census.classical_kinds(limit):
        for orbit in census.distinguished_orbits(kind):
            p, structure = orbit.partition, interval_structure(orbit)
            parts = p.increasing()
            for signs in itertools.product((1, -1), repeat=len(parts)):
                before = defect_formula(orbit, signs)
                if swapped_symbol(structure, signs).defect != before:
                    return False, f"defect mismatch at {_pair(kind, p, signs)}"
                for j in removable_sites(signs):
                    rest = parts[:j] + parts[j + 2:]
                    q = Partition(rest)
                    after = (defect_formula(require_valid(GroupKind(kind.family, q.total), q),
                                            signs[:j] + signs[j + 2:])
                             if rest else (1 if kind.is_symplectic else 0))
                    if after != before:
                        return False, f"defect not conserved at {_pair(kind, p, signs)} step {j}"
                checked += 1
    return True, f"{checked} distinguished pairs"


def check_order_independence(limit: int) -> tuple[bool, str]:
    """Every deletion order reaches one normal-form content and one support."""
    checked = 0
    label = census.DEFAULT_SIGNATURE[0]
    for kind in census.classical_kinds(limit):
        parity = block_group_type(kind, label)
        for p, signs in census.distinguished_pairs(kind):
            parts = p.increasing()
            outcomes = elimination_outcomes(parts, signs)
            contents = {normal_form_content(kind, nf, nf_signs) for nf, nf_signs, _ in outcomes}
            if len(contents) != 1:
                return False, f"{len(contents)} normal-form contents for {_pair(kind, p, signs)}"
            supports = outcome_supports(label, parity, parts, outcomes)
            if len(supports) != 1:
                return False, f"{len(supports)} supports for {_pair(kind, p, signs)}"
            checked += 1
    return True, f"{checked} pairs, single content and support each"


def _short_name(kind: GroupKind) -> str:
    return f"{'Sp' if kind.is_symplectic else 'SO'}_{kind.size}"


def _count_identities(limit: int, symplectic: bool, passed: str) -> tuple[bool, str]:
    """The class-count identity of every Sp_N (or every SO_N) with N <= limit."""
    for kind in census.classical_kinds(limit):
        if kind.is_symplectic is symplectic:
            by_d, predicted = census.count_identity(kind)
            if by_d != predicted:
                return False, (f"{_short_name(kind)}: census {sum(by_d.values())} {by_d} vs "
                               f"predicted {sum(predicted.values())} {predicted}")
    return True, passed


def check_count_identity(limit: int) -> tuple[bool, str]:
    return _count_identities(limit, True, f"Sp_N census matches for even N <= {limit}")


def check_so_count_identity(limit: int) -> tuple[bool, str]:
    return _count_identities(limit, False, f"SO_N census matches for N <= {limit}")


def check_cuspidal_fixed_points(limit: int) -> tuple[bool, str]:
    """The cuspidal pair of each admissible size N <= limit is its own datum."""
    count = 0
    for kind in census.classical_kinds(limit):
        pair = cuspidal_pair(kind)
        if pair is None:
            continue
        moved = f"{_short_name(kind)} cuspidal pair moved"
        # a symplectic pair has one character, so a changed one has moved
        lost = moved if kind.is_symplectic else f"SO_{kind.size} cuspidal lift not restored"
        for signs in pair.characters:
            datum = springer_datum(kind, pair.partition, signs)
            if (datum.torus_rank, datum.cusp_partition) != (0, pair.partition):
                return False, moved
            if datum.cusp_signs != signs:
                return False, lost
        count += 1
    return True, f"{count} cuspidal pairs fixed"


def check_support_invariants(limit: int) -> tuple[bool, str]:
    checked = 0
    for dual in census.classical_kinds(limit):
        for param, eta in census.enumerate_parameters(dual):
            try:
                report = check_support(param, eta)
            except InternalCheckError as exc:
                return False, f"{param} {eta}: {exc}"
            if not report.ok():
                return False, f"{param} {eta}: {report.failures()}"
            checked += 1
    return True, f"{checked} enhanced parameters"


def run_all(limits: Limits) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("count-identity", lambda: check_count_identity(limits.census)),
        ("so-count-identity", lambda: check_so_count_identity(limits.census)),
        ("defect-coherence", lambda: check_defect_coherence(limits.defect)),
        ("order-independence", lambda: check_order_independence(limits.orders)),
        ("cuspidal-fixed-points", lambda: check_cuspidal_fixed_points(limits.cuspidal)),
        ("support-invariants", lambda: check_support_invariants(limits.support)),
    ]
    results = []
    for name, runner in checks:
        try:
            ok, detail = runner()
        except Exception as exc:  # a crash is a failed check, surfaced verbatim
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
