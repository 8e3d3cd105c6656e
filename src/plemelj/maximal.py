"""Discrete maximal and non-tangential maximal functions with norm diagnostics.

The sup over ball radii is replaced by a geometric schedule (the discrete
average only changes when a node enters the ball); the sup over approach
cones is replaced by a fixed deterministic low-discrepancy sample of the
cones of cone_parameters, giving a reproducible lower bound.

bound_diagnostics runs each pass once for its whole family: one ball mask
per radius for the maximal functions of every f and C f (_family_maximal),
one walk over row blocks of cone samples (_family_nontangential), whose
kernel rows skip the null test the samples passed as Interior (_cone_rows),
and one walk over row blocks of nodes for the truncated sums
(_family_truncated_sup).  Every row keeps the bits of a one-function pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import algebra, null_coordinates, null_differences
from .mesh import (
    _CONE_SAMPLES,
    BoundaryMesh,
    EmptyBallError,
    _cone_samples,
    cone_parameters,
    per_mesh,
    row_blocks,
)
from .operators import (
    BoundaryFunction,
    _cauchy_rows,
    _kernel_blocks,
    _to_spinor,
    assemble_singular_cauchy,
    l2_norm,
    plemelj_projection,
)

__all__ = [
    "MaximalReport",
    "bound_diagnostics",
    "default_radii",
    "maximal_function",
]


def default_radii(mesh: BoundaryMesh) -> np.ndarray:
    """Geometric schedule 2h, 4h, ... up to the mesh diameter."""
    diam = 2.0 * mesh.half_diameter()
    k = max(1, int(np.ceil(np.log2(diam / (2 * mesh.h)))) + 1)
    return 2.0 * mesh.h * 2.0 ** np.arange(k)


@per_mesh
def _pair_distances(mesh: BoundaryMesh) -> np.ndarray:
    D = mesh.nodes[:, None, :] - mesh.nodes[None, :, :]
    return np.sqrt(np.sum(np.abs(D) ** 2, axis=-1))


def maximal_function(mesh: BoundaryMesh, f: BoundaryFunction, radii=None) -> np.ndarray:
    """Max over the schedule of |sigma|-weighted ball averages of ||f||."""
    return _family_maximal(mesh, [f], default_radii(mesh) if radii is None else radii)[0]


def _family_maximal(mesh: BoundaryMesh, family, radii) -> np.ndarray:
    """(F, N) maximal functions of every function of the family, as maximal_function defines them.

    Each radius builds its ball mask, checks that no ball is empty and takes
    the balls' measures once for the whole family; the weighted sums are
    then one matrix-vector product per function, so every row has the bits
    of a single-function call.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValueError("radius schedule is empty")
    if np.any(radii < 2 * mesh.h):
        raise ValueError("every radius must be at least 2h")
    alg = algebra(mesh.n)
    weighted = [alg.norm(f.values) * mesh.sigma_abs for f in family]
    dist = _pair_distances(mesh)
    out = np.zeros((len(family), mesh.size))
    for r in radii:
        mask = dist < r
        if np.any(mask.sum(axis=1) < 2):
            raise EmptyBallError(f"ball of radius {r:.3g} captures no node beyond its center")
        mask = mask.astype(float)
        meas = mask @ mesh.sigma_abs
        for row, w in zip(out, weighted):
            np.maximum(row, (mask @ w) / meas, out=row)
    return out


def _family_columns(mesh: BoundaryMesh, family) -> np.ndarray:
    """Spinor columns (blocks, N s, copies F) of sigma_j f_j for every function f of the family."""
    cols = np.stack([_to_spinor(f.values * mesh.sigma[:, None], mesh) for f in family], axis=-1)
    return cols.reshape(cols.shape[0], cols.shape[1], -1)


def _family_norms(mesh: BoundaryMesh, vals: np.ndarray, count: int) -> np.ndarray:
    """(count, M) norms of the transforms whose spinor columns are vals (blocks, M s, copies count).

    T is unitary, so the norm of a multivector is that of its spinor coordinates.
    """
    sp = algebra(mesh.n).spinor
    sq = np.abs(vals.reshape(sp.blocks, -1, sp.size, sp.copies, count)) ** 2
    return np.sqrt(sq.sum(axis=(0, 2, 3))).T


def _family_nontangential(mesh: BoundaryMesh, family):
    """Per-node max of the transform norm over the sampled cones, for every function of the family: (F, N).

    The samples are the _CONE_SAMPLES per node of cone_parameters, all
    Interior by its own check.  A sampled sup is a lower bound for the
    true one.  The kernel blocks of each row block of samples (row_blocks)
    multiply the spinor columns of the whole family at once (_cone_block),
    and the products are reduced to their norms block by block.
    """
    pts = _cone_samples(mesh, np.arange(mesh.size), *cone_parameters(mesh), _CONE_SAMPLES)
    if mesh.n == 2:
        family = [plemelj_projection(mesh, "+").apply(f) for f in family]
    cols = _family_columns(mesh, family)
    norms = np.empty((len(family), pts.shape[0]))
    for rows in row_blocks(pts.shape[0], mesh.size):
        norms[:, rows] = _family_norms(mesh, _cone_block(mesh, pts[rows], cols), len(family))
    return norms.reshape(len(family), mesh.size, _CONE_SAMPLES).max(axis=2)


def _cone_rows(mesh: BoundaryMesh, points: np.ndarray) -> np.ndarray:
    """The kernel blocks of _kernel_blocks(mesh, points) at (M, 2) Interior points, without its null test.

    An Interior point is one the kernel accepts at every node pair
    (region_membership_many), and cone_parameters has classified every
    cone sample Interior, so the test is not taken a second time: the
    reciprocal null pairs and the rows follow from the differences alone.
    """
    dz = null_differences(points, mesh.nodes)
    return _cauchy_rows(np.reciprocal(dz, out=dz), null_coordinates(mesh.normals).T, 1.0)


def _cone_block(mesh: BoundaryMesh, points: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Spinor columns (blocks, M s, copies F) of the transforms at Interior (M, n) points.

    cols are the _family_columns of S+ f on curves and of f on the sphere.
    On curves each null plane takes the interior barycentric form
    num(S+ f) / num(1) of the Cauchy integral, num(g) = sum_j K(p, z_j)
    sigma_j g_j with the planar kernel blocks K of _cone_rows: near a
    node the quadrature error is a common factor of both sums and cancels
    (Helsing & Ojala, J. Comput. Phys. 227, 2008).  On the sphere, whose S+
    is first order, the transform is the plain sum num(f).
    """
    if mesh.n == 2:
        K = _cone_rows(mesh, points)
        vals = K @ cols
        vals /= (K @ mesh.sigma)[..., None]
        return vals
    return _kernel_blocks(mesh, points) @ cols


def _family_truncated_sup(mesh: BoundaryMesh, family, radii) -> np.ndarray:
    """(F, N) sup over the schedule of ||integral over dM minus B(w, eps) of G n f||, per function.

    Each row block of nodes takes its kernel blocks once, each node's own
    pair skipped (_kernel_blocks), and every radius masks them for the
    whole family.
    """
    sp = algebra(mesh.n).spinor
    N = mesh.size
    cols = _family_columns(mesh, family)
    dist = _pair_distances(mesh)
    idx = np.arange(N)
    out = np.zeros((len(family), N))
    for rows in row_blocks(N, N):
        K = _kernel_blocks(mesh, mesh.nodes[rows], idx[rows]).reshape(sp.blocks, -1, sp.size, N, sp.size)
        for eps in radii:
            vals = (K * (dist[rows] > eps)[:, None, :, None]).reshape(sp.blocks, -1, N * sp.size) @ cols
            out[:, rows] = np.maximum(out[:, rows], _family_norms(mesh, vals, len(family)))
    return out


@dataclass
class MaximalReport:
    maximal: np.ndarray
    nontangential: np.ndarray
    cotlar_ratio: np.ndarray
    norm_f: float
    norm_maximal: float
    norm_nontangential: float

    @property
    def c_maximal(self) -> float:
        return self.norm_maximal / self.norm_f

    @property
    def c_nontangential(self) -> float:
        return self.norm_nontangential / self.norm_f


def _weighted_l2(mesh: BoundaryMesh, values: np.ndarray) -> float:
    return float(np.sqrt(np.sum(values**2 * mesh.sigma_abs)))


def band_limited_family(mesh: BoundaryMesh, count: int, seed: int = 0):
    """Random smooth test functions; Fourier modes |m| <= 8 on curves, degree <= 1 otherwise.

    One normal draw (count, 2, k, d) gives each function its real, then its imaginary coefficients.
    """
    modes = None if mesh.theta is None else np.exp(1j * np.outer(mesh.theta, np.arange(-8, 9)))
    k = 1 + mesh.n if modes is None else modes.shape[1]
    draw = np.random.default_rng(seed).normal(size=(count, 2, k, algebra(mesh.n).dim))
    coef = draw[:, 0] + 1j * draw[:, 1]
    vals = coef[:, :1] + mesh.nodes.real @ coef[:, 1:] if modes is None else modes @ coef / np.sqrt(k)
    return [BoundaryFunction(mesh, v) for v in vals]


def bound_diagnostics(mesh: BoundaryMesh, family_size: int = 20, seed: int = 0):
    """Empirical maximal-inequality constants over a random smooth family.

    For each test function reports C_M = ||M f|| / ||f||, C_N = ||N f|| /
    ||f|| and the per-node Cotlar ratio sup_eps ||truncated C f|| /
    (M(Cf) + M(f)).  The constants are estimates, not proofs; stability
    under refinement is what the acceptance checks.  Each pass runs once
    for the whole family (module docstring).
    """
    radii = default_radii(mesh)
    C = assemble_singular_cauchy(mesh)
    family = band_limited_family(mesh, family_size, seed)
    nontangential = _family_nontangential(mesh, family)
    truncated = _family_truncated_sup(mesh, family, radii)
    sups = _family_maximal(mesh, family + [C.apply(f) for f in family], radii)
    reports = []
    for f, Nf, trunc, Mf, MCf in zip(family, nontangential, truncated, sups, sups[len(family) :]):
        cotlar = trunc / (MCf + Mf)
        reports.append(
            MaximalReport(
                maximal=Mf,
                nontangential=Nf,
                cotlar_ratio=cotlar,
                norm_f=l2_norm(f),
                norm_maximal=_weighted_l2(mesh, Mf),
                norm_nontangential=_weighted_l2(mesh, Nf),
            )
        )
    return reports
