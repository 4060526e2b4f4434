"""Dual-side combinatorics of the local correspondence for classical groups.

Unipotent-class classification, u-symbols and their defects, elimination,
cuspidal data for Sp/SO/O and products, discrete enhanced parameters with
their cuspidal supports, and the Weyl/Hecke parameter data of inertial
triples.  Everything is exact integer arithmetic, a half-integer e as 2e.
"""

from .orbits import (
    ComponentGroupDescriptor,
    CuspidalPair,
    Family,
    GroupKind,
    Partition,
    Relation,
    SignCharacter,
    ValidOrbit,
    classical_kind,
    component_group,
    cuspidal_pair,
    is_distinguished,
    orbit_count,
    require_valid,
    staircase_signs,
    validate_partition,
)
from .symbols import (
    IntervalStructure,
    USymbol,
    defect_formula,
    distinguished_symbol,
    interval_structure,
    swapped_symbol,
)
from .springer import (
    CuspidalDatum,
    OSpringerDatum,
    ProductFactor,
    ProductSpringerDatum,
    d_from_normal_form,
    eliminate,
    springer_datum,
    springer_o,
    springer_product,
)
from .lparams import (
    DiscreteParameter,
    ExponentMultiset,
    IrrLabel,
    ParameterCharacter,
    SelfDualType,
    block_group_type,
    infinitesimal_character,
    is_cuspidal,
    reducibility_point,
    sgroup_factors,
    validate_parameter,
)
from .cuspsupport import (
    CuspidalSupport,
    check_support,
    ec_multiset,
    support,
    support_via_psi,
)
from .bernstein import (
    GLFactor,
    InertialTriple,
    WeylDescriptor,
    hecke_parameters,
    weyl_descriptor,
)
from .census import (
    bipartition_count,
    classical_kinds,
    count_identity,
    enumerate_parameters,
    unipotent_census,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
