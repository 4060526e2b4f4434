"""Weyl-group and Hecke-algebra data attached to an inertial triple.

An inertial triple consists of general-linear factors (a self-dual or
gl-pair label pi_i with an exponent ell_i, a torsion order t_i and the
block total m'_{pi_i zeta_i} of its companion twist) together with the
classical cuspidal parameter; the classical block totals m'_pi are read off
the parameter.  The relative Weyl group decomposes factorwise:

    gl-pair factor                 -> type A_{ell-1}
    self-dual, sp-side, m' = 0     -> type C_ell
    self-dual, sp-side, m' != 0    -> type B_ell
    self-dual, o-side,  m' != 0    -> type B_ell
    self-dual, o-side,  m' = 0     -> type D_ell, flagged (*)

with ell = 0 giving a trivial factor; the flagged (*) factor is the type-D
factor, read off its root type.  Degenerate ranks (A_0, D_1, D_2) are
emitted with their explicit rank tags, never silently reclassified.  The
complement R-group is generated by the flips s_{i,ell_i} of the type-D
factors; for an even special-orthogonal group whose Levi has no classical
block of size >= 4 the odd-dimensional type-D factors only enter through
pairwise products, and the generator list is stored verbatim.

Hecke parameters per self-dual factor: x+ is the reducibility point of
pi against the classical blocks, x- that of its companion twist (whose
block total determines its staircase, hence its largest block).  On a type
B factor the short root carries lambda + lambda* theta = 2x+ or 2x- by the
sign theta; every other simple root carries 2.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import NormalizationError
from .lparams import (
    DiscreteParameter,
    IrrLabel,
    SelfDualType,
    block_group_type,
    half_str,
    reducibility_point,
)
from .orbits import Family, GroupKind, as_int, require_type, staircase_d


@dataclass(frozen=True)
class GLFactor:
    label: IrrLabel
    ell: int
    torsion: int = 1
    partner_mprime: int = 0

    def __post_init__(self):
        require_type(self.label, IrrLabel, "a factor label")
        for name, least, problem in (("ell", 0, "a factor exponent must be nonnegative"),
                                     ("torsion", 1, "torsion is a positive integer"),
                                     ("partner_mprime", 0, "a block total is nonnegative")):
            value = getattr(self, name)
            if type(value) is not int:  # an exact int is read as it is
                value = as_int(value)
                object.__setattr__(self, name, value)
            if value < least:
                raise ValueError(problem)


@dataclass(frozen=True)
class InertialTriple:
    dual_group: GroupKind
    gl_factors: tuple[GLFactor, ...]
    cusp_param: DiscreteParameter

    def __post_init__(self):
        object.__setattr__(self, "gl_factors", tuple(self.gl_factors))
        require_type(self.dual_group, GroupKind, "an ambient group")
        for f in self.gl_factors:
            require_type(f, GLFactor, "a factor")
        require_type(self.cusp_param, DiscreteParameter, "a classical part")
        if self.cusp_param.dual_group.family is not self.dual_group.family:
            raise NormalizationError("classical part must have the ambient family")
        names = [f.label.name for f in self.gl_factors]
        if len(set(names)) != len(names):
            raise NormalizationError("factor labels must be pairwise distinct")
        cusp_labels = {label.name: label for label, _ in self.cusp_param.blocks}
        for f in self.gl_factors:
            if cusp_labels.get(f.label.name, f.label) != f.label:
                raise NormalizationError(
                    f"label name {f.label.name!r} used with two different data")
            if f.label.sd_type is SelfDualType.GL_PAIR:
                continue
            if self.mprime(f.label) < f.partner_mprime:
                raise NormalizationError(
                    f"factor {f.label}: the self-dual representative must carry the "
                    f"larger block total (m'={self.mprime(f.label)} < {f.partner_mprime})")
        derived = self.cusp_param.dimension + sum(2 * f.label.dim * f.ell
                                                  for f in self.gl_factors)
        if derived != self.dual_group.size:
            raise NormalizationError(
                f"factors and classical part span {derived}, ambient size is "
                f"{self.dual_group.size}")

    def mprime(self, label: IrrLabel) -> int:
        return sum(a for lab, a in self.cusp_param.blocks if lab.name == label.name)

    @property
    def n_sharp(self) -> int:
        return self.cusp_param.dimension


class RootType(str, Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    TRIVIAL = "trivial"


@dataclass(frozen=True)
class WeylFactor:
    label: IrrLabel
    root_type: RootType
    rank: int


@dataclass(frozen=True)
class RGroupDescriptor:
    """Generator list of the complement group, stored verbatim."""

    case: str
    generators: tuple[str, ...]

    @property
    def order(self) -> int:
        return 2 ** len(self.generators)


@dataclass(frozen=True)
class WeylDescriptor:
    factors: tuple[WeylFactor, ...]
    r_group: RGroupDescriptor


def _factor_type(triple: InertialTriple, factor: GLFactor) -> WeylFactor:
    if factor.ell == 0:
        return WeylFactor(factor.label, RootType.TRIVIAL, 0)
    if factor.label.sd_type is SelfDualType.GL_PAIR:
        return WeylFactor(factor.label, RootType.A, factor.ell - 1)
    if triple.mprime(factor.label):
        return WeylFactor(factor.label, RootType.B, factor.ell)
    if block_group_type(triple.dual_group, factor.label) == 0:
        return WeylFactor(factor.label, RootType.C, factor.ell)
    return WeylFactor(factor.label, RootType.D, factor.ell)


def weyl_descriptor(triple: InertialTriple) -> WeylDescriptor:
    """Weyl factor types plus the R-group generator list."""
    require_type(triple, InertialTriple, "a triple")
    factors = tuple(_factor_type(triple, f) for f in triple.gl_factors)
    starred = [i for i, f in enumerate(factors) if f.root_type is RootType.D]

    def flip(i: int) -> str:
        return f"s{i + 1},{triple.gl_factors[i].ell}"

    family = triple.dual_group.family
    if family is not Family.SO_EVEN or triple.n_sharp >= 4:
        # The flip of a type-D factor normalizes everything on its own
        # (the classical orthogonal block absorbs the determinant).
        case = "split" if family is not Family.SO_EVEN else "so-even-classical"
        gens = tuple(flip(i) for i in starred)
        return WeylDescriptor(factors, RGroupDescriptor(case, gens))
    # Even special-orthogonal group, no classical block: single flips only
    # exist for even-dimensional labels; odd-dimensional ones pair up.
    even_dim = [i for i in starred if triple.gl_factors[i].label.dim % 2 == 0]
    odd_dim = [i for i in starred if triple.gl_factors[i].label.dim % 2 == 1]
    gens = [flip(i) for i in even_dim]
    gens += [f"{flip(i)}*{flip(j)}" for i, j in zip(odd_dim, odd_dim[1:])]
    return WeylDescriptor(factors, RGroupDescriptor("so-even-gl-levi", tuple(gens)))


def _staircase_top(parity: int, total: int) -> int:
    """Largest block of the staircase with the given block total."""
    d = staircase_d(parity, total)
    if d is None:
        shape = "1+3+...+(2d-1)" if parity else "2+4+...+2d"
        raise NormalizationError(f"{total} is not a staircase total {shape}")
    return 2 * d - parity


@dataclass(frozen=True)
class HeckeFactorParams:
    """Hecke data of one factor and its Weyl factor, None where it has none.
    x+, x-, lam = x+ + x-, lam_star = x+ - x- and mu_short are held doubled."""

    weyl: WeylFactor
    x_plus: Optional[int]
    x_minus: Optional[int]
    lam: Optional[int]
    lam_star: Optional[int]
    mu_short: Optional[int]
    mu_other: Optional[int]


def hecke_parameters(triple: InertialTriple,
                     theta: Optional[Mapping[str, int]] = None) -> tuple[HeckeFactorParams, ...]:
    """Graded parameter function per factor; theta maps label name -> +-1."""
    require_type(triple, InertialTriple, "a triple")
    if theta is None:
        theta = {}
    elif not isinstance(theta, Mapping):
        raise TypeError("theta is a Mapping of label name -> +1 or -1, "
                        f"got {type(theta).__name__}")
    for name, sign in theta.items():
        if type(sign) is not int or sign not in (1, -1):
            raise NormalizationError(f"theta[{name!r}] must be +1 or -1")
    out = []
    for factor in triple.gl_factors:
        wf = _factor_type(triple, factor)
        mu_other = 2 if wf.rank and not (wf.root_type is RootType.B and wf.rank == 1) else None
        if factor.label.sd_type is SelfDualType.GL_PAIR:
            out.append(HeckeFactorParams(wf, None, None, None, None, None, mu_other))
            continue
        x_plus = reducibility_point(factor.label, triple.cusp_param.blocks, triple.dual_group)
        if factor.partner_mprime:
            parity = block_group_type(triple.dual_group, factor.label)
            x_minus = _staircase_top(parity, factor.partner_mprime) + 1
        else:
            # the companion twist has the same self-duality type as the label
            x_minus = reducibility_point(factor.label, (), triple.dual_group)
        if x_plus < x_minus:
            # A guard: __post_init__ already makes x+ >= x-; a search over the Sp,
            # SOodd and SOeven cusps of size <= 16 finds no triple that gets here.
            raise NormalizationError(
                f"factor {factor.label}: x+={half_str(x_plus)} < x-={half_str(x_minus)}; "
                "the triple is not normalized")
        lam, lam_star = x_plus + x_minus, x_plus - x_minus
        if wf.root_type is RootType.B:
            sign = theta.get(factor.label.name, 1)
            mu_short = lam + lam_star * sign
        else:
            mu_short = None
        out.append(HeckeFactorParams(wf, x_plus, x_minus, lam, lam_star, mu_short, mu_other))
    return tuple(out)
