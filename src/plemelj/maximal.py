"""Discrete maximal and non-tangential maximal functions with norm diagnostics.

The sup over ball radii is replaced by a geometric schedule (the discrete
average only changes when a node enters the ball); the sup over approach
cones is replaced by a fixed deterministic low-discrepancy sample of the
cones of cone_parameters, giving a reproducible lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import algebra
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
    if radii is None:
        radii = default_radii(mesh)
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValueError("radius schedule is empty")
    if np.any(radii < 2 * mesh.h):
        raise ValueError("every radius must be at least 2h")
    alg = algebra(mesh.n)
    norms = alg.norm(f.values)
    dist = _pair_distances(mesh)
    out = np.zeros(mesh.size)
    for r in radii:
        mask = dist < r
        counts = mask.sum(axis=1)
        if np.any(counts < 2):
            raise EmptyBallError(f"ball of radius {r:.3g} captures no node beyond its center")
        meas = mask @ mesh.sigma_abs
        avg = (mask @ (norms * mesh.sigma_abs)) / meas
        out = np.maximum(out, avg)
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


def _cone_block(mesh: BoundaryMesh, points: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Spinor columns (blocks, M s, copies F) of the transforms at Interior (M, n) points.

    cols are the _family_columns of S+ f on curves and of f on the sphere.
    On curves each null plane takes the interior barycentric form
    num(S+ f) / num(1) of the Cauchy integral, num(g) = sum_j K(p, z_j)
    sigma_j g_j with the planar kernel blocks K of _kernel_blocks: near a
    node the quadrature error is a common factor of both sums and cancels
    (Helsing & Ojala, J. Comput. Phys. 227, 2008).  On the sphere, whose S+
    is first order, the transform is the plain sum num(f).
    """
    K = _kernel_blocks(mesh, points)
    vals = K @ cols
    if mesh.n == 2:
        vals /= (K @ mesh.sigma)[..., None]
    return vals


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
    """Random smooth test functions; Fourier modes |m| <= 8 on curves, degree <= 1 otherwise."""
    rng = np.random.default_rng(seed)
    alg = algebra(mesh.n)
    out = []
    for _ in range(count):
        if mesh.theta is not None:
            ms = np.arange(-8, 9)
            coef = rng.normal(size=(ms.size, alg.dim)) + 1j * rng.normal(size=(ms.size, alg.dim))
            vals = np.exp(1j * np.outer(mesh.theta, ms)) @ coef / np.sqrt(ms.size)
        else:
            x = mesh.nodes.real
            coef = rng.normal(size=(1 + mesh.n, alg.dim)) + 1j * rng.normal(size=(1 + mesh.n, alg.dim))
            vals = coef[0][None, :] + x @ coef[1:]
        out.append(BoundaryFunction(mesh, vals))
    return out


def bound_diagnostics(mesh: BoundaryMesh, family_size: int = 20, seed: int = 0):
    """Empirical maximal-inequality constants over a random smooth family.

    For each test function reports C_M = ||M f|| / ||f||, C_N = ||N f|| /
    ||f|| and the per-node Cotlar ratio sup_eps ||truncated C f|| /
    (M(Cf) + M(f)).  The constants are estimates, not proofs; stability
    under refinement is what the acceptance checks.
    """
    radii = default_radii(mesh)
    C = assemble_singular_cauchy(mesh)
    family = band_limited_family(mesh, family_size, seed)
    nontangential = _family_nontangential(mesh, family)
    truncated = _family_truncated_sup(mesh, family, radii)
    reports = []
    for f, Nf, trunc in zip(family, nontangential, truncated):
        Mf = maximal_function(mesh, f, radii)
        Cf = C.apply(f)
        MCf = maximal_function(mesh, Cf, radii)
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
