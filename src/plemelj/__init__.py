"""Numerical laboratory for Plemelj/Hardy projections on complexified boundaries.

Clifford-algebra boundary calculus at desk scale: the singular Cauchy
transform, Hardy-space splitting, Kerzman-Stein operator and Szego
projection over circles, spheres, and complex-deformed curves, with the
operator identities and boundary-limit behavior checked numerically.
"""

from .algebra import (
    CliffordAlgebra,
    Multivector,
    NullVectorError,
    OddDimensionComplexError,
    algebra,
    cauchy_kernel,
    dirac_residual,
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
from .maximal import bound_diagnostics, maximal_function, nontangential_maximal
from .mesh import (
    ApproachPath,
    BoundaryMesh,
    Cone,
    EmptyBallError,
    NoValidConeError,
    Region,
    ValidationFailedError,
    approach_path,
    cone_parameters,
    load_mesh,
    make_circle,
    make_deformed_curve,
    make_flat_patch,
    make_sphere,
    region_membership,
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
    NearBoundaryError,
    assemble_adjoint_cauchy,
    assemble_kerzman_stein,
    assemble_singular_cauchy,
    cauchy_transform,
    cauchy_transform_points,
    generic_kernel_operator,
    l2_norm,
    omega,
    pairing,
    plemelj_projection,
)

__version__ = "0.1.0"
