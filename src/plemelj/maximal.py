"""Discrete maximal and non-tangential maximal functions with norm diagnostics.

The sup over ball radii is replaced by a geometric schedule (the discrete
average only changes when a node enters the ball); the sup over approach
cones is replaced by a deterministic low-discrepancy sample, giving a
reproducible lower bound that is monotone in the sample count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import algebra
from .mesh import (
    _CONE_SAMPLES,
    _CONE_SEED,
    BoundaryMesh,
    EmptyBallError,
    _cone_sample_set,
    _cone_samples,
    barrier_clearance,
    barrier_clearance_floor,
    cone_parameters,
    per_mesh,
)
from .operators import (
    BoundaryFunction,
    _pair_blocks,
    _to_spinor,
    _transform_columns,
    _transform_points,
    assemble_singular_cauchy,
    l2_norm,
)

__all__ = [
    "MaximalReport",
    "bound_diagnostics",
    "default_radii",
    "maximal_function",
    "nontangential_maximal",
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


def _usable_cone_samples(mesh: BoundaryMesh, alpha: float, r: float, count: int):
    """Cone samples and the (N, count) mask of those inside the barrier-resolution zone of dM."""
    samples = _cone_sample_set(mesh, alpha, r, count, _CONE_SEED)
    if samples is None:  # a given cone with unresolved samples: clear them all, uncached
        pts = _cone_samples(mesh, np.arange(mesh.size), alpha, r, count, _CONE_SEED)
        samples = pts, barrier_clearance(pts, mesh)
    pts, clearance = samples
    return pts, (clearance < barrier_clearance_floor(mesh)).reshape(mesh.size, count)


def nontangential_maximal(
    mesh: BoundaryMesh,
    f: BoundaryFunction,
    alpha: float = None,
    r: float = None,
    samples_per_cone: int = _CONE_SAMPLES,
):
    """Per-node max of the transform norm over sampled approach cones.

    Returns (values, skipped) where skipped counts cone samples discarded
    as NearBoundary.  A sampled sup is a lower bound for the true one and
    never decreases as samples_per_cone grows.
    """
    if alpha is None or r is None:
        alpha, r = cone_parameters(mesh)
    pts, near = _usable_cone_samples(mesh, alpha, r, samples_per_cone)
    norms = algebra(mesh.n).norm(_transform_points(mesh, f.values, pts))
    return _cone_sup(norms, near), int(near.sum())


def _cone_sup(norms: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Per-node max of the transform norms (one per cone sample) over the usable samples of its cone."""
    out = np.where(near, -np.inf, norms.reshape(near.shape)).max(axis=1)
    out[~np.isfinite(out)] = 0.0  # every sample of a cone skipped
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


def _family_nontangential(mesh: BoundaryMesh, family, alpha, r):
    """nontangential_maximal of every function of the family, one kernel pass.

    The kernel blocks of each row chunk of cone samples multiply the spinor
    columns of the whole family at once.
    """
    pts, near = _usable_cone_samples(mesh, alpha, r, _CONE_SAMPLES)
    vals = _transform_columns(mesh, pts, _family_columns(mesh, family))
    norms = _family_norms(mesh, vals, len(family))
    return [_cone_sup(nk, near) for nk in norms], int(near.sum())


def _family_truncated_sup(mesh: BoundaryMesh, family, radii) -> np.ndarray:
    """(F, N) sup over the schedule of ||integral over dM minus B(w, eps) of G n f||, per function.

    Each radius mask weights the pair kernel blocks once for the whole family.
    """
    cols = _family_columns(mesh, family)
    dist = _pair_distances(mesh)
    out = np.zeros((len(family), mesh.size))
    for eps in radii:
        mask = (dist > eps).astype(float)
        np.fill_diagonal(mask, 0.0)
        vals = _pair_blocks(mesh, mask) @ cols
        out = np.maximum(out, _family_norms(mesh, vals, len(family)))
    return out


@dataclass
class MaximalReport:
    maximal: np.ndarray
    nontangential: np.ndarray
    cotlar_ratio: np.ndarray
    norm_f: float
    norm_maximal: float
    norm_nontangential: float
    skipped_cone_samples: int

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
    alpha, r = cone_parameters(mesh)
    C = assemble_singular_cauchy(mesh)
    family = band_limited_family(mesh, family_size, seed)
    nontangential, skipped = _family_nontangential(mesh, family, alpha, r)
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
                skipped_cone_samples=skipped,
            )
        )
    return reports
