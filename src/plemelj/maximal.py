"""Discrete maximal and non-tangential maximal functions with norm diagnostics.

The sup over ball radii is replaced by a geometric schedule (the discrete
average only changes when a node enters the ball); the sup over approach
cones is replaced by a fixed deterministic low-discrepancy sample of the
cones of cone_parameters, giving a reproducible lower bound.

bound_diagnostics runs each pass once for its whole family: one product
each for S+ f (the cone pass, on curves) and C f of every f
(operators._apply_family), one ball mask per radius for the maximal
functions of every f and C f (_family_maximal), and the row blocks of the
kernel sums of operators (_transform_blocks at the cone samples,
_truncated_blocks at the nodes) reduced to norms and maxima.  Each
maximal function keeps the bits of a one-function pass over its input;
the family products and the kernel sums (on curves their columns carry
the node factors and, at the cone samples, num(1)) differ from
one-function passes at rounding.
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
)
from .operators import (
    BoundaryFunction,
    _apply_family,
    _spinor_norms,
    _transform_blocks,
    _truncated_blocks,
    _weighted_columns,
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


def _family_nontangential(mesh: BoundaryMesh, family):
    """Per-node max of the transform norm over the sampled cones, for every function of the family: (F, N).

    The samples are the _CONE_SAMPLES per node of cone_parameters, all
    Interior by its own check, so the transforms take the interior form of
    _transform_blocks and their norms that of _spinor_norms.  A sampled sup
    is a lower bound for the true one.
    """
    pts = _cone_samples(mesh, np.arange(mesh.size), *cone_parameters(mesh), _CONE_SAMPLES)
    if mesh.n == 2:
        family = _apply_family(plemelj_projection(mesh, "+"), family)
    cols = _weighted_columns(mesh, [f.values for f in family])
    norms = np.empty((len(family), pts.shape[0]))
    for rows, vals in _transform_blocks(mesh, pts, cols, interior=True):
        norms[:, rows] = _spinor_norms(mesh, vals, interior=True)
    return norms.reshape(len(family), mesh.size, _CONE_SAMPLES).max(axis=2)


def _family_truncated_sup(mesh: BoundaryMesh, family, radii) -> np.ndarray:
    """(F, N) sup over the schedule of ||integral over dM minus B(w, eps) of G n f||, per function."""
    cols = _weighted_columns(mesh, [f.values for f in family])
    out = np.zeros((len(family), mesh.size))
    for rows, vals in _truncated_blocks(mesh, cols, _pair_distances(mesh), radii):
        out[:, rows] = np.maximum(out[:, rows], _spinor_norms(mesh, vals))
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
    if family_size < 1:
        raise ValueError(f"family_size must be at least 1, not {family_size}")
    radii = default_radii(mesh)
    C = assemble_singular_cauchy(mesh)
    family = band_limited_family(mesh, family_size, seed)
    nontangential = _family_nontangential(mesh, family)
    truncated = _family_truncated_sup(mesh, family, radii)
    sups = _family_maximal(mesh, family + _apply_family(C, family), radii)
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
