"""Symmetry analysis for multivariate Lagrange interpolation.

Decides which node-set symmetries are admissible for a symmetric polynomial
basis (via the exact linear system V X = r), whether two symmetric node sets
carry equivalent coordinate-permutation actions, and whether a concrete
(basis, nodes) pair is unisolvent — all in exact rational arithmetic.
"""

from .charmat import (
    KMatrix,
    VMatrix,
    class_size,
    k_matrix,
    v_matrix,
)
from .errors import (
    DimensionMismatchError,
    DuplicatePointError,
    NotSymmetricError,
    SizeMismatchError,
    SymlagError,
)
from .interp import (
    BasisFunction,
    BasisSet,
    ConstraintSystem,
    NecessaryConditionsReport,
    UnisolvenceReport,
    basis_from_json,
    check_necessary_conditions,
    load_basis,
    monomial_from_string,
    r_vector,
    solve_constraints,
    validate_symmetric_basis,
    vandermonde,
    vandermonde_matrix,
)
from .nodeset import (
    EquivalenceResult,
    NodeSet,
    Orbit,
    Point,
    SnapEvent,
    canonical_arrangement,
    classify_point,
    equivalent,
    load_node_set,
    node_set_from_json,
    orbit_vector,
    parse_rational,
    simplest_rational_between,
    validate_symmetric,
)
from .symcore import (
    OrbitType,
    Permutation,
    apply_to_point,
    enumerate_types,
    orbit_size,
    stabilizer_generators,
    stabilizer_order,
    type_rank,
)

__version__ = "0.1.0"
