"""Discretized boundary manifolds in C^n.

A BoundaryMesh carries quadrature nodes, complex normals and the complex
line/surface measure sigma together with its absolute value |sigma|.  For
real-embedded geometries (circle, sphere, flat patch) sigma is real and
positive and the normals are the usual outward unit normals; the deformed
curve family pushes the circle into genuinely complex territory while
keeping every node and tangent off the null cones.

Region membership is decided by an index.  For n = 2, square(u) = -zeta eta
with zeta = u1 + i u2 and eta = u1 - i u2, so a point is Interior when its
zeta and its eta wind around the zeta- and eta-images of dM, Exterior when
neither does, and Mixed when one does; there the transform of 1 is the
idempotent (1 +- i e12)/2.  For real points at n = 3 the Gauss solid-angle
sum (the transform of 1) rounds to 1 or 0.  Points nearer the null cones
than the mesh resolves take the side of the nearest node's normal.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    OddDimensionComplexError,
    cauchy_kernel,
    null_coordinates,
    null_differences,
    vector_square,
)

__all__ = [
    "ApproachPath",
    "BoundaryMesh",
    "Cone",
    "EmptyBallError",
    "NoValidConeError",
    "Region",
    "ValidationFailedError",
    "ValidationReport",
    "approach_path",
    "cone_parameters",
    "load_mesh",
    "make_circle",
    "make_deformed_curve",
    "make_flat_patch",
    "make_sphere",
    "region_membership",
    "region_membership_many",
    "save_mesh",
    "validate_domain_manifold",
]


class ValidationFailedError(ValueError):
    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class NoValidConeError(RuntimeError):
    pass


class EmptyBallError(ValueError):
    pass


def per_mesh(fn):
    """Keep fn(mesh, *args) in mesh.cache under (fn, *args), so each per-mesh result is built once.

    The arguments are positional and hashable.  An exception is never kept:
    a call that raises raises again on the next call.
    """

    @functools.wraps(fn)
    def cached(mesh, *args):
        key = (fn, *args)
        if key not in mesh.cache:
            mesh.cache[key] = fn(mesh, *args)
        return mesh.cache[key]

    return cached


class Region(enum.Enum):
    INTERIOR = "interior"
    EXTERIOR = "exterior"
    NEAR_BOUNDARY = "near_boundary"
    MIXED = "mixed"  # zeta winds around dM and eta does not, or the reverse (n = 2)


@dataclass
class BoundaryMesh:
    """Quadrature model of a boundary dM in C^n."""

    n: int
    nodes: np.ndarray        # (N, n) complex
    normals: np.ndarray      # (N, n) complex
    sigma: np.ndarray        # (N,) complex quadrature weights
    sigma_abs: np.ndarray    # (N,) positive weights |sigma|
    interior_seed: np.ndarray
    exterior_seed: np.ndarray
    h: float
    curve_order: bool = True          # nodes are consecutive on a closed curve
    theta: np.ndarray | None = None   # curve parameter per node, if any
    edges: np.ndarray | None = None   # (E, 2) adjacency for tangent probes
    builder: object = None            # N -> BoundaryMesh, for refinement
    cache: dict = field(default_factory=dict, repr=False)  # per_mesh results

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def edge_list(self) -> np.ndarray:
        if self.edges is not None:
            return self.edges
        if self.curve_order:
            N = self.size
            i = np.arange(N)
            return np.stack([i, (i + 1) % N], axis=1)
        return _nearest_neighbor_edges(self.nodes, self.h)

    def refine(self) -> "BoundaryMesh":
        """The same boundary with twice the nodes."""
        if self.builder is None:
            raise ValueError("mesh has no builder; cannot refine")
        return self.builder(2 * self.size)

    def total_measure(self) -> float:
        return float(np.sum(self.sigma_abs))

    @per_mesh
    def barrier_nodes(self) -> np.ndarray:
        """Boundary sampled 8 times finer, for null-cone proximity queries."""
        return self.nodes if self.builder is None else self.builder(8 * self.size).nodes

    def half_diameter(self) -> float:
        return 0.5 * float(
            np.max(np.sqrt(np.sum(np.abs(self.nodes[:1, :] - self.nodes) ** 2, axis=1)))
        )


def _nearest_neighbor_edges(nodes: np.ndarray, h: float) -> np.ndarray:
    from scipy.spatial import cKDTree

    pts = np.concatenate([nodes.real, nodes.imag], axis=1)
    tree = cKDTree(pts)
    pairs = tree.query_pairs(1.5 * h, output_type="ndarray")
    return pairs.astype(np.int64)


# -- builders -----------------------------------------------------------------


def make_circle(N: int, radius: float = 1.0) -> BoundaryMesh:
    """Uniform trapezoid mesh of the circle of given radius in R^2 c C^2."""
    if N < 8:
        raise ValueError("need at least 8 nodes on the circle")
    if N % 2:
        raise ValueError("closed-curve meshes require even N")
    theta = 2 * np.pi * np.arange(N) / N
    nodes = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1).astype(complex)
    normals = nodes / radius
    sigma = np.full(N, 2 * np.pi * radius / N, dtype=complex)
    mesh = BoundaryMesh(
        n=2,
        nodes=nodes,
        normals=normals,
        sigma=sigma,
        sigma_abs=np.abs(sigma),
        interior_seed=np.zeros(2, dtype=complex),
        exterior_seed=np.array([3.0 * radius, 0.0], dtype=complex),
        h=float(2 * radius * np.sin(np.pi / N)),
        theta=theta,
        builder=lambda m: make_circle(m, radius),
    )
    return mesh


def make_deformed_curve(N: int, eps: float, k: int) -> BoundaryMesh:
    """Unit circle pushed along i * eps * cos(k theta) times the real normal.

    Nodes are (1 + i eps cos(k theta)) (cos theta, sin theta); the complex
    measure comes from the bilinear line element of the parametrization and
    the complex normal is the bilinear-orthogonal rotation of the tangent.
    Raises ValidationFailedError when the deformation meets the null cones.
    """
    if N < 8:
        raise ValueError("need at least 8 nodes on the curve")
    if N % 2:
        raise ValueError("closed-curve meshes require even N")
    theta = 2 * np.pi * np.arange(N) / N
    q = 1.0 + 1j * eps * np.cos(k * theta)
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    nodes = q[:, None] * u
    # exact parametrization derivative
    dq = -1j * eps * k * np.sin(k * theta)
    du = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
    tang = dq[:, None] * u + q[:, None] * du
    mu = np.sqrt(np.sum(tang * tang, axis=1))  # principal branch; ~1 for small eps
    sigma = mu * (2 * np.pi / N)
    normals = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / mu[:, None]
    gaps = np.abs(np.diff(nodes, axis=0, append=nodes[:1]))
    mesh = BoundaryMesh(
        n=2,
        nodes=nodes,
        normals=normals,
        sigma=sigma,
        sigma_abs=np.abs(sigma),
        interior_seed=np.zeros(2, dtype=complex),
        exterior_seed=np.array([3.0, 0.0], dtype=complex),
        h=float(np.max(np.sqrt(np.sum(gaps**2, axis=1)))),
        theta=theta,
        builder=lambda m: make_deformed_curve(m, eps, k),
    )
    _validated(mesh)
    return mesh


def make_flat_patch(N: int) -> BoundaryMesh:
    """Periodic straight-line mesh of length 2 pi (flat-patch boundedness tests)."""
    length = 2 * np.pi
    if N < 8 or N % 2:
        raise ValueError("need even N >= 8")
    x = length * np.arange(N) / N
    nodes = np.stack([x, np.zeros(N)], axis=1).astype(complex)
    normals = np.tile(np.array([0.0, 1.0], dtype=complex), (N, 1))
    sigma = np.full(N, length / N, dtype=complex)
    return BoundaryMesh(
        n=2,
        nodes=nodes,
        normals=normals,
        sigma=sigma,
        sigma_abs=np.abs(sigma),
        interior_seed=np.array([length / 2, -1.0], dtype=complex),
        exterior_seed=np.array([length / 2, 1.0], dtype=complex),
        h=float(length / N),
        theta=2 * np.pi * np.arange(N) / N,
        builder=make_flat_patch,
    )


def _icosahedron():
    t = (1.0 + 5**0.5) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=float,
    )
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    return verts, faces


def _subdivide(verts, faces):
    verts = verts.tolist()
    midpoints = {}

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in midpoints:
            v = np.asarray(verts[i]) + np.asarray(verts[j])
            verts.append((v / np.linalg.norm(v)).tolist())
            midpoints[key] = len(verts) - 1
        return midpoints[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    return np.asarray(verts), np.asarray(out, dtype=np.int64)


def make_sphere(N_target: int, radius: float = 1.0) -> BoundaryMesh:
    """Icosahedral sphere mesh with spherical-Voronoi node weights (n = 3)."""
    if N_target < 12:
        raise ValueError("need at least 12 nodes on the sphere")
    from scipy.spatial import SphericalVoronoi

    verts, faces = _icosahedron()
    while verts.shape[0] < N_target:
        verts, faces = _subdivide(verts, faces)
    xyz = verts * radius
    sv = SphericalVoronoi(xyz, radius=radius, center=np.zeros(3))
    sv.sort_vertices_of_regions()
    areas = sv.calculate_areas()

    edges = set()
    for a, b, c in faces:
        edges |= {(min(a, b), max(a, b)), (min(b, c), max(b, c)), (min(a, c), max(a, c))}
    edges = np.array(sorted(edges), dtype=np.int64)
    h = float(np.max(np.linalg.norm(xyz[edges[:, 0]] - xyz[edges[:, 1]], axis=1)))

    return BoundaryMesh(
        n=3,
        nodes=xyz.astype(complex),
        normals=(verts).astype(complex),
        sigma=areas.astype(complex),
        sigma_abs=areas.astype(float),
        interior_seed=np.zeros(3, dtype=complex),
        exterior_seed=np.array([3.0 * radius, 0.0, 0.0], dtype=complex),
        h=h,
        curve_order=False,
        edges=edges,
        builder=lambda m: make_sphere(m, radius),
    )


# -- validation ----------------------------------------------------------------


@dataclass
class ValidationReport:
    passed: bool
    reason: str
    witness: tuple | None
    pair_margin: float
    tangent_margin: float

    def __str__(self):
        if self.passed:
            return (
                f"domain-manifold checks passed "
                f"(pair margin {self.pair_margin:.3g}, tangent margin {self.tangent_margin:.3g})"
            )
        return f"{self.reason}; witness {self.witness}"


def validate_domain_manifold(mesh: BoundaryMesh, margin: float = 0.1) -> ValidationReport:
    """Check the two null-cone transversality conditions on the mesh.

    (i) every node pair i != j has |square(z_i - z_j)| > margin * |z_i - z_j|^2
    (ii) every discrete tangent t satisfies |square(t)| > margin * |t|^2,
    with |.| the Euclidean norm of C^n identified with R^{2n}.  Real
    submanifolds achieve margin 1 exactly.

    The pairs are checked in row blocks of about 1 << 18 pairs, so the memory
    stays bounded on the 8N fine meshes of barrier_nodes; the witness is the
    first minimal pair in row-major order, as for one (N, N) array.
    """
    z = mesh.nodes
    N = z.shape[0]
    chunk = max(1, (1 << 18) // N)
    firsts = []  # (ratio, i, j) of the first minimum of each row block
    for s0 in range(0, N, chunk):
        rows = np.arange(s0, min(s0 + chunk, N))
        D = z[rows, None, :] - z[None, :, :]
        sq = np.abs(vector_square(D))
        r2 = np.sum(np.abs(D) ** 2, axis=-1)
        sq[rows - s0, rows] = np.inf
        r2[rows - s0, rows] = 1.0
        ratios = sq / r2
        i, j = np.unravel_index(np.argmin(ratios), ratios.shape)
        firsts.append((float(ratios[i, j]), s0 + int(i), int(j)))
    pair_margin, i, j = firsts[int(np.argmin([f[0] for f in firsts]))]
    if pair_margin <= margin:
        return ValidationReport(
            False,
            f"node pair violates the null-cone separation (ratio {pair_margin:.3g} <= {margin})",
            (i, j),
            pair_margin,
            float("nan"),
        )

    edges = mesh.edge_list()
    t = z[edges[:, 1]] - z[edges[:, 0]]
    tsq = np.abs(vector_square(t))
    tr2 = np.sum(np.abs(t) ** 2, axis=-1)
    tratios = tsq / tr2
    jmin = int(np.argmin(tratios))
    tangent_margin = float(tratios[jmin])
    if tangent_margin <= margin:
        return ValidationReport(
            False,
            f"discrete tangent meets the null cone (ratio {tangent_margin:.3g} <= {margin})",
            (int(edges[jmin, 0]), int(edges[jmin, 1])),
            pair_margin,
            tangent_margin,
        )
    return ValidationReport(True, "ok", None, pair_margin, tangent_margin)


@per_mesh
def _validated(mesh: BoundaryMesh) -> ValidationReport:
    """The passing validate_domain_manifold report, once per mesh; ValidationFailedError otherwise."""
    report = validate_domain_manifold(mesh)
    if not report.passed:
        raise ValidationFailedError(report)
    return report


# -- region membership ----------------------------------------------------------


def _winding_numbers(d: np.ndarray) -> np.ndarray:
    """Winding numbers about 0 of the closed polygons given by the rows of d (P, N)."""
    turn = np.sum(np.angle(np.roll(d, -1, axis=1) / d), axis=1)
    return np.rint(turn / (2 * np.pi)).astype(int)


def region_membership_many(points: np.ndarray, mesh: BoundaryMesh):
    """Vectorized region classification; returns an object array of Region.

    NearBoundary means the point sits on the null cone of some node to
    within the scale-invariant tolerance 1e-12.  A point whose barrier_clearance
    reaches barrier_clearance_floor is classified by index (module
    docstring): for n = 2 by the winding numbers of its zeta and eta, for
    real points at n = 3 by the rounded Gauss solid-angle sum.  Any other
    point takes the side given by the sign of the R^{2n} inner product with
    the nearest node's normal.

    No region exists for complex points at odd n (OddDimensionComplexError)
    or on a mesh that does not enclose its interior seed, such as the open
    flat patch (ValueError).
    """
    points = np.asarray(points, dtype=complex).reshape(-1, mesh.n)
    return _classify(points, mesh, barrier_clearance(points, mesh))


def _classify(points: np.ndarray, mesh: BoundaryMesh, clearance: np.ndarray):
    """region_membership_many of (P, n) points whose barrier_clearance is known."""
    if mesh.n % 2 and np.any(points.imag):
        raise OddDimensionComplexError("complex points have no region for odd n")
    resolved = clearance >= barrier_clearance_floor(mesh)
    low = ~resolved  # points the index cannot resolve: nearest-normal side
    seed = mesh.interior_seed[None, :]
    if mesh.n == 2:
        # one pair of null difference arrays: square(u) = -zeta eta,
        # |u|^2 = (|zeta|^2 + |eta|^2) / 2, and twice the R^4 inner product
        # <u, n> is Re(zeta(u) conj(zeta(n)) + eta(u) conj(eta(n)))
        d = null_differences(np.concatenate([points, seed]), mesh.nodes)  # seed last
        index_rows = np.append(np.flatnonzero(resolved), points.shape[0])
        zeta, eta = (_winding_numbers(dk[index_rows]) != 0 for dk in d)
        d = d[:, :-1]
        sq = np.abs(d[0] * d[1])
        dist2 = 0.5 * (np.abs(d[0]) ** 2 + np.abs(d[1]) ** 2)
        u, normals = np.moveaxis(d[:, low], 0, -1), null_coordinates(mesh.normals)
        regs = np.select([zeta & eta, zeta | eta], [Region.INTERIOR, Region.MIXED], Region.EXTERIOR)
    else:
        u = points[:, None, :] - mesh.nodes[None, :, :]
        sq = np.abs(vector_square(u))
        dist2 = np.sum(np.abs(u) ** 2, axis=-1)
        u, normals = u[low], mesh.normals
        # the scalar part of G(p - z) n is -G.n: the Gauss solid-angle sum
        probe = np.concatenate([points[resolved], seed])
        G = cauchy_kernel(probe[:, None, :] - mesh.nodes[None, :, :])
        gauss = -np.real(np.einsum("pjk,jk,j->p", G, mesh.normals, mesh.sigma)) / (4 * np.pi)
        regs = np.where(gauss > 0.5, Region.INTERIOR, Region.EXTERIOR)
    if regs[-1] is not Region.INTERIOR:
        raise ValueError("the boundary does not enclose its interior seed")
    near = sq.min(axis=1) <= 1e-12 * (1.0 + dist2.min(axis=1))
    out = np.empty(points.shape[0], dtype=object)
    out[resolved] = regs[:-1]
    jmin = np.argmin(dist2[low], axis=1)
    side = np.real(np.sum(u[np.arange(jmin.size), jmin] * np.conj(normals[jmin]), axis=1))
    out[low] = np.where(side > 0, Region.EXTERIOR, Region.INTERIOR)
    out[near] = Region.NEAR_BOUNDARY
    return out


def region_membership(u, mesh: BoundaryMesh) -> Region:
    """Classify one point as Interior, Exterior, Mixed or NearBoundary."""
    return region_membership_many(np.asarray(u, dtype=complex)[None, :], mesh)[0]


def barrier_clearance(points: np.ndarray, mesh: BoundaryMesh) -> np.ndarray:
    """Estimated parameter-strip distance of each point to the null cones of dM.

    For a fine boundary sampling z_j with local parametrization speed s_j,
    min_j |square(p - z_j)| / (|p - z_j| s_j) estimates how far the
    integrand pole theta -> square(p - z(theta)) sits from the real axis.
    Off-boundary quadrature error scales like exp(-N * clearance), so
    points below barrier_clearance_floor(mesh) cannot be evaluated
    reliably.  Exact for real-direction offsets, conservative within a
    factor two for transversal complex approaches.

    The points are cleared in blocks of (1 << 18) // (fine nodes) rows, and
    a point's last bits depend on its block: a one-row matmul takes another
    BLAS path than a multi-row one.  A point at the floor can therefore be
    resolved in one block and unresolved in another.  cone_parameters stops
    at the first unresolved block, and it walks these same blocks, so its
    accept and reject decisions are those of the full call.
    """
    points = np.asarray(points, dtype=complex).reshape(-1, mesh.n)
    out = np.empty(points.shape[0])
    for rows, clearance in _clearance_blocks(points, mesh):
        out[rows] = clearance
    return out


def _clearance_blocks(points: np.ndarray, mesh: BoundaryMesh):
    """Yield (rows, barrier_clearance of points[rows]) per cache-sized block of (P, n) points."""
    fine = mesh.barrier_nodes()
    gaps = np.sqrt(np.sum(np.abs(np.roll(fine, -1, axis=0) - fine) ** 2, axis=1))
    if mesh.curve_order:
        speed = gaps * (fine.shape[0] / (2 * np.pi))
    else:
        speed = np.ones(fine.shape[0])
    f_bil = np.sum(fine * fine, axis=1)
    f_her = np.sum(np.abs(fine) ** 2, axis=1)
    chunk = max(1, (1 << 18) // fine.shape[0])  # rows that keep each block cache-sized
    for s0 in range(0, points.shape[0], chunk):
        rows = slice(s0, min(s0 + chunk, points.shape[0]))
        p = points[rows]
        p_bil = np.sum(p * p, axis=1)
        p_her = np.sum(np.abs(p) ** 2, axis=1)
        # square(p - z) = -(p.p) + 2 p.z - (z.z) and |p - z|^2, in place
        sq = p @ fine.T
        sq *= 2.0
        sq -= p_bil[:, None]
        sq -= f_bil[None, :]
        dist = np.real(p @ np.conj(fine.T)) * -2.0
        dist += p_her[:, None]
        dist += f_her[None, :]
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
        dist *= speed[None, :]
        dist += 1e-300
        yield rows, np.min(np.abs(sq) / dist, axis=1)


def barrier_clearance_floor(mesh: BoundaryMesh) -> float:
    """Strip distance below which near-barrier quadrature noise dominates.

    exp(-16) ~ 1e-7 relative error at the floor.
    """
    if mesh.curve_order:
        return 16.0 / mesh.size
    return 16.0 * mesh.h / (2 * np.pi)


# -- cones and approach paths ---------------------------------------------------


@dataclass
class Cone:
    """Truncated non-tangential approach cone in C^n = R^{2n}.

    Membership: 0 < |z - apex| < r and the R^{2n} angle between z - apex
    and the axis is below alpha.
    """

    apex: np.ndarray
    axis: np.ndarray
    alpha: float
    r: float

    def contains(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        d = z - self.apex
        dist = np.sqrt(np.sum(np.abs(d) ** 2, axis=-1))
        axis = self.axis / np.sqrt(np.sum(np.abs(self.axis) ** 2))
        proj = np.real(np.sum(d * np.conj(axis), axis=-1))
        return (dist > 0) & (dist < self.r) & (proj > dist * np.cos(self.alpha))


def _interior_axis(mesh: BoundaryMesh, i) -> np.ndarray:
    nrm = mesh.normals[i]
    return -nrm / np.sqrt(np.sum(np.abs(nrm) ** 2, axis=-1, keepdims=True))


def _cone_samples(mesh: BoundaryMesh, i, alpha: float, r: float, count: int, seed: int):
    """Deterministic low-discrepancy samples of the truncated cone at node i.

    Radii follow the rho = r * u^(1/(2n)) law (uniform for the R^{2n}
    volume element, and bounded away from the apex for moderate counts);
    directions spread over the alpha-cone around the inward axis.  With an
    array of nodes i the samples come node by node, count rows each; every
    node shares one draw of the Halton sequence.
    """
    from scipy.stats import qmc

    n2 = 2 * mesh.n
    sampler = qmc.Halton(d=n2 + 1, scramble=False, seed=seed)
    sampler.fast_forward(1)  # skip the degenerate all-zero first point
    raw = sampler.random(count)
    axis = _interior_axis(mesh, i)[..., None, :]
    rho = r * raw[:, 0] ** (1.0 / n2)
    phi = alpha * raw[:, 1] ** 0.5
    # direction orthogonal to the axis in R^{2n}, from the remaining coords
    g = raw[:, 2:] - 0.5
    perp_r = g[:, : mesh.n]
    perp_i = g[:, mesh.n : n2 - 1]
    if mesh.n % 2:
        # odd n: the complex kernel is unavailable, keep approach real
        perp_i = np.zeros_like(perp_i)
    perp = perp_r + 1j * np.concatenate(
        [perp_i, np.zeros((count, mesh.n - perp_i.shape[1]))], axis=1
    )
    inner = np.real(np.sum(perp * np.conj(axis), axis=-1))
    perp = perp - inner[..., None] * axis
    norms = np.sqrt(np.sum(np.abs(perp) ** 2, axis=-1))
    norms[norms == 0] = 1.0
    perp = perp / norms[..., None]
    dirs = np.cos(phi)[:, None] * axis + np.sin(phi)[:, None] * perp
    return (mesh.nodes[i][..., None, :] + rho[:, None] * dirs).reshape(-1, mesh.n)


@per_mesh
def _cone_sample_set(mesh: BoundaryMesh, alpha: float, r: float, count: int, seed: int):
    """Every node's cone samples and their barrier_clearance, or None if some sample is unresolved.

    The clearance is walked block by block (barrier_clearance's blocks), and
    the walk stops at the first block with a sample below
    barrier_clearance_floor.  So cone_parameters clears each schedule entry
    at most once, and bound_diagnostics finds the accepted entry's set kept.
    """
    pts = _cone_samples(mesh, np.arange(mesh.size), alpha, r, count, seed)
    tau = barrier_clearance_floor(mesh)
    clearance = np.empty(pts.shape[0])
    for rows, block in _clearance_blocks(pts, mesh):
        if block.min() < tau:
            return None
        clearance[rows] = block
    return pts, clearance


_DEFAULT_ALPHAS = (np.pi / 4, np.pi / 6, np.pi / 8, np.pi / 12)
_DEFAULT_RADIUS_FACTORS = (1.0, 0.5, 0.25, 0.1)
_CONE_SAMPLES, _CONE_SEED = 64, 7  # samples per cone and Halton seed of the schedule


@per_mesh
def cone_parameters(mesh: BoundaryMesh):
    """Largest (alpha, r) from the schedule whose cones sample as Interior.

    For every node the truncated cone around the inward normal is sampled
    deterministically; a schedule entry is accepted only if every sample at
    every node classifies Interior.  Conservative by construction.  An entry
    is rejected at the first clearance block with a sample below the floor.
    """
    half_diam = mesh.half_diameter()
    for alpha in _DEFAULT_ALPHAS:
        for fac in _DEFAULT_RADIUS_FACTORS:
            r = fac * half_diam
            # every sample must be resolved: the floor away from the null cones
            samples = _cone_sample_set(mesh, alpha, r, _CONE_SAMPLES, _CONE_SEED)
            if samples is None:
                continue
            pts, clearance = samples
            if np.all(_classify(pts, mesh, clearance) == Region.INTERIOR):
                return float(alpha), float(r)
    raise NoValidConeError("no schedule entry produced all-interior cone samples")


@dataclass
class ApproachPath:
    """Dyadic straight-line approach to a boundary node."""

    target: np.ndarray
    direction: np.ndarray
    s_values: np.ndarray
    points: np.ndarray
    region: Region


def approach_path(
    mesh: BoundaryMesh,
    node: int,
    region: str = "interior",
    depth: int = 8,
    r: float = None,
) -> ApproachPath:
    """Path w -+ s_k * unit normal with s_k = r 2^-k, k = 0..depth.

    Raises ValueError when a path point classifies otherwise (Mixed too).
    """
    want = Region.INTERIOR if region == "interior" else Region.EXTERIOR
    if r is None:
        _, r = cone_parameters(mesh)
    axis = _interior_axis(mesh, node)
    if want is Region.EXTERIOR:
        axis = -axis
    s = r * 0.5 ** np.arange(depth + 1)
    pts = mesh.nodes[node] + s[:, None] * axis
    regs = region_membership_many(pts, mesh)
    bad = np.nonzero(regs != want)[0]
    if bad.size:
        raise ValueError(
            f"path sample {int(bad[0])} at s={s[bad[0]]:.3g} classifies "
            f"{regs[bad[0]].value}, wanted {want.value}"
        )
    return ApproachPath(mesh.nodes[node], axis, s, pts, want)


# -- serialization ----------------------------------------------------------------


def _pack_vec(v: np.ndarray):
    return [[float(c.real), float(c.imag)] for c in v]


def save_mesh(mesh: BoundaryMesh, path: str):
    doc = {
        "n": mesh.n,
        "nodes": [_pack_vec(z) for z in mesh.nodes],
        "normals": [_pack_vec(z) for z in mesh.normals],
        "sigma": [[float(s.real), float(s.imag)] for s in mesh.sigma],
        "sigma_abs": [float(s) for s in mesh.sigma_abs],
        "interior_seed": _pack_vec(mesh.interior_seed),
        "exterior_seed": _pack_vec(mesh.exterior_seed),
        "h": mesh.h,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _unpack_vecs(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def load_mesh(path: str) -> BoundaryMesh:
    with open(path) as fh:
        doc = json.load(fh)
    n = int(doc["n"])
    nodes = _unpack_vecs(doc["nodes"])
    sig = np.asarray(doc["sigma"], dtype=float)
    return BoundaryMesh(
        n=n,
        nodes=nodes,
        normals=_unpack_vecs(doc["normals"]),
        sigma=sig[:, 0] + 1j * sig[:, 1],
        sigma_abs=np.asarray(doc["sigma_abs"], dtype=float),
        interior_seed=_unpack_vecs(doc["interior_seed"]),
        exterior_seed=_unpack_vecs(doc["exterior_seed"]),
        h=float(doc["h"]),
        curve_order=(n == 2),
        theta=2 * np.pi * np.arange(nodes.shape[0]) / nodes.shape[0] if n == 2 else None,
    )
