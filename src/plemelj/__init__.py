"""Numerical laboratory for Plemelj/Hardy projections on complexified boundaries.

Clifford-algebra boundary calculus at desk scale: the singular Cauchy
transform, Hardy-space splitting, Kerzman-Stein operator and Szego
projection over circles, spheres, and complex-deformed curves, with the
operator identities and boundary-limit behavior checked numerically.
"""

from .algebra import (
    CliffordAlgebra,
    NullVectorError,
    OddDimensionComplexError,
    algebra,
    cauchy_kernel,
    is_null,
    vector_inverse,
    vector_square,
)
from .hardy import (
    HardyDecomposition,
    boundary_limit_test,
    decompose,
    szego_matrix,
    szego_project,
    verify_identities,
)
from .linsolve import IllConditionedError
from .maximal import bound_diagnostics, maximal_function
from .mesh import (
    BoundaryMesh,
    EmptyBallError,
    NoValidConeError,
    Region,
    ValidationFailedError,
    cone_parameters,
    make_circle,
    make_deformed_curve,
    make_sphere,
    region_membership_many,
    save_mesh,
    validate_domain_manifold,
)
from .mobius import (
    KelvinMap,
    covariance_check,
    isometry_check,
    kelvin_map,
    kernel_intertwining_check,
    transplant,
)
from .operators import (
    BlockOperator,
    BoundaryFunction,
    assemble_kerzman_stein,
    assemble_singular_cauchy,
    cauchy_transform,
    cauchy_transform_points,
    l2_norm,
    omega,
    plemelj_projection,
)

__version__ = "0.1.0"
