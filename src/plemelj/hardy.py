"""Hardy-space decomposition, Szego projection, and boundary-limit checks.

The splitting f = f+ + f- comes from the boundary projections S+/S-; the
Szego projections P+/P- are recovered from them through the operator
identity P (I - (S* - S)) = S, that is P+ (I + A) = S+ and P- (I - A) = S-:
a solve against I +- A followed by one projection application.  The solver
of I + A is built once per mesh and shared by every solve, and that of
I - A once P- is asked for.  On curves it is the LU factors of the distinct
spinor blocks, which operators stores column-major, as LAPACK reads them, so
the copy each LU overwrites is a contiguous one; on surfaces it is GMRES on
A's stored block, which takes one product per solve on the sphere, where A
vanishes.  The identity route is
the only production path; an orthogonal-projector construction from a
monogenic basis exists solely as an independent oracle in the tests.

Every dense product here goes through linsolve.matmul, so a verify or
szego job runs its products, LU, GMRES and solves on scipy's OpenBLAS alone:
numpy's @ would run on numpy's own OpenBLAS, whose thread pool spins on
after each call and fights scipy's pool for the cores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import algebra
from .linsolve import COND_LIMIT, Factorization, GMRESSolver, factor, gmres, matmul
from .mesh import BoundaryMesh, cone_parameters, per_mesh
from .operators import (
    PROJECTION_COEFFS,
    BlockOperator,
    BoundaryFunction,
    _from_spinor,
    _to_spinor,
    assemble_kerzman_stein,
    assemble_singular_cauchy,
    cauchy_transform_points,
    l2_norm,
    plemelj_projection,
    smooth_family,
    weighted_norm,
)

__all__ = [
    "HardyDecomposition",
    "IdentityReport",
    "LimitReport",
    "boundary_limit_test",
    "decompose",
    "kerzman_stein_factor",
    "residual_decreases",
    "szego_matrix",
    "szego_project",
    "verify_identities",
]

RESIDUAL_FLOOR = 1e-10  # below this, residuals are rounding noise
IDENTITY_CAP = 1e-3  # the default cap an identity residual must meet


def residual_decreases(r: float, r2: float) -> bool:
    """The pass rule of a refined residual r2 against r: smaller, or both at the rounding floor."""
    return r2 < r or max(r, r2) <= RESIDUAL_FLOOR


@dataclass
class HardyDecomposition:
    f: BoundaryFunction
    f_plus: BoundaryFunction
    f_minus: BoundaryFunction
    residual: float
    # gap between the stored exterior part f - f+ = S- f and the negated
    # convention -S- f; reported, never asserted
    exterior_sign_gap: float


def decompose(f: BoundaryFunction) -> HardyDecomposition:
    """Split f into boundary traces of interior and exterior monogenic parts."""
    mesh = f.mesh
    Sp = plemelj_projection(mesh, "+")
    Sm = plemelj_projection(mesh, "-")
    f_plus = Sp.apply(f)
    f_minus = f - f_plus
    alt = -1.0 * Sm.apply(f)
    return HardyDecomposition(
        f=f,
        f_plus=f_plus,
        f_minus=f_minus,
        residual=l2_norm(f - f_plus - f_minus),
        exterior_sign_gap=l2_norm(f_minus - alt),
    )


def kerzman_stein_factor(mesh: BoundaryMesh, cond_limit: float = COND_LIMIT) -> Factorization | GMRESSolver:
    """The solver of I - (C* - C) = I + A, built once per mesh and kept next to A.

    On curves the LU factors of the spinor blocks (linsolve.factor), on
    surfaces GMRES on A's stored block (linsolve.gmres), with the same
    interface.  The returned record carries the largest 1-norm condition
    estimate over the blocks; IllConditionedError is raised whenever it
    exceeds this call's cond_limit, and whenever a GMRES solve misses its
    tolerance.
    """
    return _kerzman_stein_lu(mesh, "+").check(cond_limit)


@per_mesh
def _kerzman_stein_lu(mesh: BoundaryMesh, sign: str) -> Factorization | GMRESSolver:
    # I +- A, the sign of C in S+-.  Surfaces solve it by GMRES on A's own
    # blocks, whose diagonal blocks are 0; on the sphere A is 0 to rounding
    # and every solve takes one product.  Curves LU-factor private copies of
    # A's blocks, which LAPACK overwrites with their factors; the blocks are
    # column-major (operators._operators), so each copy is a contiguous one.
    # On a deformed curve at N = 512 GMRES takes 4-10 products per solve,
    # and its condition estimate and solves cost more than the LU
    c1 = PROJECTION_COEFFS[sign][1]
    if mesh.n == 3:
        return gmres(assemble_kerzman_stein(mesh).matrix, c1)
    systems = [np.multiply(block, c1, order="F") for block in assemble_kerzman_stein(mesh).matrix]
    idx = np.arange(systems[0].shape[0])
    for system in systems:
        system[idx, idx] += 1.0
    return factor(systems)


def _szego_columns(mesh: BoundaryMesh, sign: str, cols: np.ndarray, cond_limit: float = COND_LIMIT) -> np.ndarray:
    """P+- applied to spinor columns: solve against I +- A, then project with S+-."""
    S = plemelj_projection(mesh, sign).matrix
    return matmul(S, _kerzman_stein_lu(mesh, sign).check(cond_limit).solve(cols))


def szego_project(f: BoundaryFunction, sign: str = "+", cond_limit: float = COND_LIMIT) -> BoundaryFunction:
    """Szego projection via the Kerzman-Stein equation: solve against I +- A, then project with S+-."""
    mesh = f.mesh
    return BoundaryFunction(mesh, _from_spinor(_szego_columns(mesh, sign, _to_spinor(f.values, mesh), cond_limit), mesh))


def szego_matrix(mesh: BoundaryMesh, sign: str = "+") -> BlockOperator:
    """P+- = S+- (I +- A)^{-1} as spinor blocks (for tests and oracles)."""
    return BlockOperator(mesh, _szego_columns(mesh, sign, BlockOperator.identity(mesh).matrix))


@dataclass
class IdentityReport:
    identity: str
    residual: float
    residual_refined: float | None = None
    ratio: float | None = None  # residual_refined / residual; None (JSON null) when residual is 0
    passed: bool = True

    def as_dict(self):
        return {
            "identity": self.identity,
            "residual_N": self.residual,
            "residual_2N": self.residual_refined,
            "ratio": self.ratio,
            "pass": self.passed,
        }


def _identity_residuals(mesh: BoundaryMesh, cond_limit: float) -> dict:
    """Smooth-family norms of the identity residuals, from spinor-block products.

    A residual R is measured as ||W R Y||_2 on the smooth family Y = W^{-1} Q.
    Q is a scalar family tensored with the blades and W commutes with the
    spinor frame, so the norm is the largest over the distinct blocks of
    ||W R_rho Y_s||_2, with Y_s the scalar family tensored with one block's
    rows.  S+- = I/2 +- C, so the nine rows carry three residuals and one
    exact zero:
      - S+^2 - S+, S-^2 - S-, S+S-, S-S+ and C^2 - I/4 all equal +-(C^2 - I/4),
        measured as ||C^2 Y - Y/4||;
      - with X = (I + A)^{-1} Y one has P+ Y = S+ X, so the P+ - S+P+ row
        is -(C^2 - I/4) X, measured as ||C^2 X - X/4||.  The P- - S-P- row
        repeats it: it holds for any S- X, so it is not the residual of
        P- = S- (I - A)^{-1} and no wrong P- fails it.  Mending it changes
        verify.json; it is left for the rows a wrong P fails, which are not
        P^2 - P and PS - S (S+ passes both to rounding on the deformed
        curve) but self-adjointness, P = P* (ROADMAP item 1);
      - the Kerzman-Stein row applies S+ to D = (I + A)^{-1} (I + A) Y - Y,
        measured as ||D/2 + C D||;
      - S+ + S- - I is 0 by construction.
    """
    C = assemble_singular_cauchy(mesh).matrix
    A = assemble_kerzman_stein(mesh).matrix
    Y = smooth_family(mesh, algebra(mesh.n).spinor.size)
    Y = np.broadcast_to(Y, C.shape[:1] + Y.shape)
    m = Y.shape[-1]
    Z = kerzman_stein_factor(mesh, cond_limit).solve(np.concatenate([Y, matmul(A, Y)], axis=-1))
    X = Z[..., :m]
    D = X + Z[..., m:] - Y
    CY, CX, CD = np.split(matmul(C, np.concatenate([Y, X, D], axis=-1)), 3, axis=-1)
    C2Y, C2X = np.split(matmul(C, np.concatenate([CY, CX], axis=-1)), 2, axis=-1)
    s_rows = weighted_norm(C2Y - 0.25 * Y, mesh)
    p_rows = weighted_norm(C2X - 0.25 * X, mesh)
    return {
        "S+^2 - S+": s_rows,
        "S-^2 - S-": s_rows,
        "S+S-": s_rows,
        "S-S+": s_rows,
        "C^2 - I/4": s_rows,
        "S+ + S- - I": 0.0,
        "P+ - S+P+": p_rows,
        "P- - S-P-": p_rows,
        "P+ - S+ - P+(C*-C)": weighted_norm(0.5 * D + CD, mesh),
    }


def verify_identities(
    mesh: BoundaryMesh, refine: bool = True, cap: float = IDENTITY_CAP, cond_limit: float = COND_LIMIT
):
    """Residuals of the projection-algebra identities at N and (optionally) 2N.

    Residuals are operator norms over the smooth test family; the
    Kerzman-Stein solve raises IllConditionedError beyond cond_limit.  An identity
    passes when its residual meets the cap and either decreases under
    refinement or already sits at the rounding floor.
    """
    base = _identity_residuals(mesh, cond_limit)
    refined = None
    if refine and mesh.builder is not None:
        refined = _identity_residuals(mesh.refine(), cond_limit)
    reports = []
    for name, r in base.items():
        rep = IdentityReport(identity=name, residual=r)
        ok = r <= cap
        if refined is not None:
            r2 = refined[name]
            rep.residual_refined = r2
            rep.ratio = r2 / r if r > 0 else None
            ok = ok and residual_decreases(r, r2)
        rep.passed = bool(ok)
        reports.append(rep)
    return reports


@dataclass
class LimitReport:
    region: str
    s_values: np.ndarray
    errors: np.ndarray
    floor_estimate: float


def boundary_limit_test(
    f: BoundaryFunction,
    region: str = "interior",
    depth: int = 8,
    r: float = None,
    subtract: bool = True,
) -> LimitReport:
    """L^2 gap between near-boundary transforms and the boundary projection.

    For s_k = r 2^-k the transform is evaluated at w -+ s_k n(w) over all
    nodes w and compared against S+ f (interior) or -S- f (exterior).  With
    singularity subtraction the discrete limit s -> 0 reproduces the
    Nystrom projection exactly, so the error sequence decays like s_k down
    to the inter-quadrature floor; without it the h/s quadrature blow-up
    takes over once s_k drops below the node spacing.  region is
    "interior" or "exterior"; any other value raises ValueError.
    """
    if region not in ("interior", "exterior"):
        raise ValueError(f"region must be 'interior' or 'exterior', not {region!r}")
    if depth < 1:
        raise ValueError(f"depth must be at least 1, not {depth}")
    mesh = f.mesh
    if r is None:
        _, r = cone_parameters(mesh)
    interior = region == "interior"
    nrm = mesh.normals / np.sqrt(np.sum(np.abs(mesh.normals) ** 2, axis=1))[:, None]
    direction = -nrm if interior else nrm
    s = r * 0.5 ** np.arange(depth + 1)
    if interior:
        target = plemelj_projection(mesh, "+").apply(f)
    else:
        target = -1.0 * plemelj_projection(mesh, "-").apply(f)
    node_idx = np.arange(mesh.size) if subtract else None
    errors = []
    for sk in s:
        pts = mesh.nodes + sk * direction
        vals = cauchy_transform_points(mesh, f, pts, subtract_node=node_idx, interior=interior)
        g = BoundaryFunction(mesh, vals)
        errors.append(l2_norm(g - target))
    errors = np.asarray(errors)
    # estimated quadrature floor: where the h/s law would take over
    floor = float(mesh.h / (2 * np.pi)) * l2_norm(f)
    return LimitReport(region=region, s_values=s, errors=errors, floor_estimate=floor)
