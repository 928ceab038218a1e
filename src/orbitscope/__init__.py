"""orbitscope: exact invariant-theory toolkit for finite matrix groups.

Layers, bottom up:

- ``rationals``   exact rational linear algebra
- ``polynomials`` sparse exact polynomials, group action, Reynolds average
                  (the tests' oracle)
- ``groups``      finite matrix groups, subgroups, fixed spaces
- ``invariants``  Molien series, minimal integrity bases, P-matrices
- ``strata``      isotropy classes, orbit-space strata, critical rays
- ``landau``      invariant potentials, minimization, phase diagrams
- ``reduction``   near-identity changes of coordinates: the time-one flow of
                  eta^-1 grad(H o J), applied as exp(L_H) in J-space
- ``dynamics``    equivariant descent flow and orbit-space projection
- ``cli``         deterministic command line front end
"""

__version__ = "0.1.0"

from .errors import OrbitscopeError
from .polynomials import Polynomial, parse_polynomial, act, reynolds
from .groups import (
    FiniteGroupRep,
    close_generators,
    all_subgroups,
    fixed_subspace,
    invariant_metric,
)
from .invariants import (
    MolienSeries,
    molien_series,
    IntegrityBasis,
    compute_mib,
    find_relations,
    express_in_basis,
    PMatrix,
    p_matrix,
    orbit_map,
)
from .strata import (
    SymmetryType,
    symmetry_types,
    stratum_of,
    isotropy_lattice,
    principal_stratum,
    principal_critical_orbits,
)
from .landau import (
    LandauModel,
    make_model,
    build_generic,
    classify_symmetry,
    minimize,
    sweep,
)
from .reduction import (
    GradedPotential,
    poincare_generator,
    removable_terms,
    reduce,
    verify_reduction,
)
from .dynamics import (
    gradient_field,
    integrate,
    check_stratum_invariance,
    project_trajectory,
    orbit_space_consistency,
)

__all__ = [
    "OrbitscopeError",
    "Polynomial",
    "parse_polynomial",
    "act",
    "reynolds",
    "FiniteGroupRep",
    "close_generators",
    "all_subgroups",
    "fixed_subspace",
    "invariant_metric",
    "MolienSeries",
    "molien_series",
    "IntegrityBasis",
    "compute_mib",
    "find_relations",
    "express_in_basis",
    "PMatrix",
    "p_matrix",
    "orbit_map",
    "SymmetryType",
    "symmetry_types",
    "stratum_of",
    "isotropy_lattice",
    "principal_stratum",
    "principal_critical_orbits",
    "LandauModel",
    "make_model",
    "build_generic",
    "classify_symmetry",
    "minimize",
    "sweep",
    "GradedPotential",
    "poincare_generator",
    "removable_terms",
    "reduce",
    "verify_reduction",
    "gradient_field",
    "integrate",
    "check_stratum_invariance",
    "project_trajectory",
    "orbit_space_consistency",
]
