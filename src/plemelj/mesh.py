"""Discretized boundary manifolds in C^n.

A BoundaryMesh carries quadrature nodes, complex normals and the complex
line/surface measure sigma together with its absolute value |sigma|.  Every
mesh is a reference mesh (the circle, the icosahedral sphere) pushed forward
by a map F: its measure and normals follow from the cofactor of DF by
Nanson's formula, in one step (_pushforward).  For real-embedded geometries
(circle, sphere) sigma is real and positive and the normals are
the usual outward unit normals; the deformed curve family pushes the circle
into genuinely complex territory while keeping every node and tangent off
the null cones.

Region membership is decided by an index.  For n = 2, square(u) = -zeta eta
with zeta = u1 + i u2 and eta = u1 - i u2, so a point is Interior when its
zeta and its eta wind around the zeta- and eta-images of dM, Exterior when
neither does, and Mixed when one does; there the transform of 1 is the
idempotent (1 +- i e12)/2.  For n = 3 the Gauss solid-angle sum (the
transform of 1) rounds to 1 or 0.  The kernel's domain is algebra's
(is_null_planar, _real_differences): a point is NearBoundary exactly where
the kernel refuses a node pair, and at n = 3 has no region exactly where
the kernel has no value.  For n = 2 a
point inside both seed disks (about the seed's image in each null plane,
missing the image of dM) takes the seed's region with no sum over the
nodes: a winding number is constant on a disk that misses the polygon,
and the disks' margins keep |square(p - z_j)| over twice the null test.
"""

from __future__ import annotations

import enum
import functools
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    NULL_TOL,
    _real_differences,
    is_null_planar,
    null_coordinates,
    null_differences,
    null_magnitudes,
    vector_square,
)

__all__ = [
    "BoundaryMesh",
    "EmptyBallError",
    "NoValidConeError",
    "Region",
    "ValidationFailedError",
    "ValidationReport",
    "cone_parameters",
    "make_circle",
    "make_deformed_curve",
    "make_sphere",
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


# Node pairs per row block of every (rows, width) pass.  A complex (rows,
# width) array of this many pairs is 256 KiB, and the blocks keep the
# memory of a pass independent of its row count.  The size was measured on
# the benchmark's jobs (README): none is slower at 2^14 than at 2^13 or
# 2^15, and the maximal job faults in an eighth of the pages it did at 2^15.
PAIR_BLOCK = 1 << 14


def row_blocks(count: int, width: int):
    """Yield slices covering range(count) in order, each of at most max(1, PAIR_BLOCK // width) rows."""
    step = max(1, PAIR_BLOCK // width)
    for s0 in range(0, count, step):
        yield slice(s0, min(s0 + step, count))


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
    theta: np.ndarray | None = None   # curve parameter per node: the nodes are in curve order
    edges: np.ndarray | None = None   # (E, 2) adjacency for tangent probes
    builder: object = None            # N -> BoundaryMesh, for refinement
    cache: dict = field(default_factory=dict, repr=False)  # per_mesh results

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def edge_list(self) -> np.ndarray:
        if self.edges is not None:
            return self.edges
        if self.theta is None:
            raise ValueError("mesh has no edges and no curve parameter")
        N = self.size
        i = np.arange(N)
        return np.stack([i, (i + 1) % N], axis=1)

    def refine(self) -> "BoundaryMesh":
        """The same boundary with twice the nodes."""
        if self.builder is None:
            raise ValueError("mesh has no builder; cannot refine")
        return self.builder(2 * self.size)

    def total_measure(self) -> float:
        return float(np.sum(self.sigma_abs))

    def half_diameter(self) -> float:
        return 0.5 * float(
            np.max(np.sqrt(np.sum(np.abs(self.nodes[:1, :] - self.nodes) ** 2, axis=1)))
        )


# -- builders -----------------------------------------------------------------
#
# Every mesh is a reference mesh pushed forward by a map F: the circle at
# theta_j = 2 pi j / N for curves, the unit icosahedral sphere for surfaces.
# A builder gives the image nodes F(x_j), the area vectors a_j = cof(DF_j) nu_j
# and the reference weights |sigma_ref|; _pushforward derives the rest.


def _pushforward(nodes, area, weights, edges, interior_seed, exterior_seed, builder, theta=None) -> BoundaryMesh:
    """The mesh on the image nodes, with sigma and normals by Nanson's formula.

    sigma = sqrt(a.a) |sigma_ref| and the normal is a / sqrt(a.a), with the
    principal square root of the bilinear square a.a; h is the longest edge.
    A mesh with a curve parameter theta is in curve order, and edges None
    means the closed curve through its nodes in turn.  Raises ValueError
    when sigma, the normals or h is not finite: a huge radius or deformation
    overflows, and a zero area vector has no normal.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.sqrt(np.sum(area * area, axis=1))
        sigma = mu * weights
        mesh = BoundaryMesh(
            nodes.shape[1], nodes, area / mu[:, None], sigma, np.abs(sigma), interior_seed, exterior_seed,
            h=0.0, theta=theta, edges=edges, builder=builder,
        )
        e = mesh.edge_list()
        mesh.h = float(np.max(np.sqrt(np.sum(np.abs(nodes[e[:, 1]] - nodes[e[:, 0]]) ** 2, axis=1))))
    if not (np.all(np.isfinite(sigma)) and np.all(np.isfinite(mesh.normals)) and np.isfinite(mesh.h)):
        raise ValueError("the mesh's measure, normals or edge length is not finite: the geometry is too large or degenerate")
    return mesh


def _check_radius(radius) -> None:
    if not isinstance(radius, numbers.Real) or not 0 < radius < np.inf:
        raise ValueError(f"radius must be a finite number above 0, not {radius!r}")


def _curve(N: int, eps: float, k: int, radius: float = 1.0) -> BoundaryMesh:
    """The curve F(theta) = radius (1 + i eps cos k theta)(cos theta, sin theta), unvalidated; eps = 0 is the circle.

    Its area vectors are the exact tangents dF/dtheta turned by -90 degrees.
    """
    _check_radius(radius)
    if N < 8:
        raise ValueError("need at least 8 nodes on the curve")
    if N % 2:
        raise ValueError("closed-curve meshes require even N")
    theta = 2 * np.pi * np.arange(N) / N
    with np.errstate(over="ignore", invalid="ignore"):  # _pushforward refuses what overflows
        q = 1.0 + 1j * eps * np.cos(k * theta)
        dq = -1j * eps * k * np.sin(k * theta)
        u = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        du = radius * np.stack([-np.sin(theta), np.cos(theta)], axis=1)
        tang = dq[:, None] * u + q[:, None] * du
        nodes = q[:, None] * u
    return _pushforward(
        nodes, np.stack([tang[:, 1], -tang[:, 0]], axis=1), 2 * np.pi / N, None,
        np.zeros(2, dtype=complex), np.array([3.0 * radius, 0.0], dtype=complex),
        lambda m: _curve(m, eps, k, radius), theta,
    )


def make_circle(N: int, radius: float = 1.0) -> BoundaryMesh:
    """Uniform trapezoid mesh of the circle of given radius in R^2 c C^2."""
    return _curve(N, 0.0, 0, radius)


def make_deformed_curve(N: int, eps: float, k: int) -> BoundaryMesh:
    """Unit circle pushed along i * eps * cos(k theta) times the real normal (_curve), validated.

    Raises ValueError for an eps that is not finite or a k that is not an
    integer >= 1, and ValidationFailedError when the deformation meets the
    null cones.  Its builder's refined meshes are validated by the assemblers.
    """
    if not isinstance(eps, numbers.Real) or not np.isfinite(eps):
        raise ValueError(f"eps must be a finite number, not {eps!r}")
    if not isinstance(k, numbers.Real) or not (k >= 1 and float(k).is_integer()):
        raise ValueError(f"mode must be an integer of at least 1, not {k!r}")
    mesh = _curve(N, eps, k)
    _validated(mesh)
    return mesh


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


def _face_edges(faces):
    """The edges ab, bc, ca of every face (a, b, c) in turn, as sorted vertex pairs (3 F, 2)."""
    return np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)


def _subdivide(verts, faces):
    """Split every face into four at its edges' midpoints, projected to the unit sphere.

    The old vertices keep their numbers, and the midpoints follow in the
    order in which _face_edges first meets their edges, so the meshes nest.
    """
    pairs = _face_edges(faces)
    # a pair (a, b)'s key a V + b sorts as the pair does
    _, first, inverse = np.unique(pairs @ [len(verts), 1], return_index=True, return_inverse=True)
    mid = pairs[np.sort(first)]  # the edges in order of first encounter
    s = verts[mid[:, 0]] + verts[mid[:, 1]]
    s /= np.sqrt(s[:, None, :] @ s[:, :, None])[:, 0]  # as np.linalg.norm of one vector, bit for bit
    ab, bc, ca = (len(verts) + np.argsort(np.argsort(first))[inverse]).reshape(-1, 3).T
    a, b, c = faces.T
    out = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return np.concatenate([verts, s]), out


def make_sphere(N_target: int, radius: float = 1.0) -> BoundaryMesh:
    """Icosahedral sphere mesh with spherical-Voronoi node weights (n = 3).

    The unit sphere's icosahedral mesh, subdivided until it has N_target
    nodes or more, pushed forward by F = radius id: the nodes are radius nu,
    the area vectors radius^2 nu and the weights the unit sphere's Voronoi
    areas.
    """
    _check_radius(radius)
    if N_target < 12:
        raise ValueError("need at least 12 nodes on the sphere")
    from scipy.spatial import SphericalVoronoi

    verts, faces = _icosahedron()
    while verts.shape[0] < N_target:
        verts, faces = _subdivide(verts, faces)
    nodes, pairs = (radius * verts).astype(complex), _face_edges(faces)
    with np.errstate(over="ignore"):  # _pushforward refuses what overflows
        area = radius * nodes
    return _pushforward(
        nodes, area, SphericalVoronoi(verts).calculate_areas(),
        pairs[np.unique(pairs @ [len(verts), 1], return_index=True)[1]],
        np.zeros(3, dtype=complex), np.array([3.0 * radius, 0.0, 0.0], dtype=complex),
        lambda m: make_sphere(m, radius),
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

    For n = 2 both sides of the pair check come from the null coordinates:
    |square(u)| = |zeta eta| and |u|^2 = (|zeta|^2 + |eta|^2) / 2
    (algebra.null_magnitudes); for n = 3 from component-first differences.

    The pairs are checked in row blocks of PAIR_BLOCK pairs (row_blocks), so
    the memory stays cache-sized on large meshes; every ratio is formed
    elementwise, and the witness is the first minimal pair in row-major
    order, as for one (N, N) array.  A ratio that is not a number (0 / 0
    for coincident nodes or a zero tangent) fails its check and is the
    witness.
    """
    z = mesh.nodes
    N = z.shape[0]
    firsts = []  # (ratio, i, j) of the first minimum of each row block
    for rows in row_blocks(N, N):
        if mesh.n == 2:
            sq, r2 = null_magnitudes(null_differences(z[rows], z))
        else:
            zt = np.ascontiguousarray(z.T)  # so that D is component first in memory too
            D = zt[:, rows, None] - zt[:, None, :]
            sq = np.abs(np.sum(D * D, axis=0))
            r2 = np.sum(np.abs(D) ** 2, axis=0)
        diag = np.arange(rows.start, rows.stop)
        sq[diag - rows.start, diag] = np.inf
        r2[diag - rows.start, diag] = 1.0
        with np.errstate(invalid="ignore"):
            ratios = sq / r2
        i, j = np.unravel_index(np.argmin(ratios), ratios.shape)
        firsts.append((float(ratios[i, j]), rows.start + int(i), int(j)))
    pair_margin, i, j = firsts[int(np.argmin([f[0] for f in firsts]))]
    if not pair_margin > margin:  # argmin returns a NaN ratio first
        return ValidationReport(
            False,
            f"node pair violates the null-cone separation ({_ratio_text(pair_margin, margin)})",
            (i, j),
            pair_margin,
            float("nan"),
        )

    edges = mesh.edge_list()
    t = z[edges[:, 1]] - z[edges[:, 0]]
    tsq = np.abs(vector_square(t))
    tr2 = np.sum(np.abs(t) ** 2, axis=-1)
    with np.errstate(invalid="ignore"):
        tratios = tsq / tr2
    jmin = int(np.argmin(tratios))
    tangent_margin = float(tratios[jmin])
    if not tangent_margin > margin:
        return ValidationReport(
            False,
            f"discrete tangent meets the null cone ({_ratio_text(tangent_margin, margin)})",
            (int(edges[jmin, 0]), int(edges[jmin, 1])),
            pair_margin,
            tangent_margin,
        )
    return ValidationReport(True, "ok", None, pair_margin, tangent_margin)


def _ratio_text(ratio: float, margin: float) -> str:
    """A failed check's ratio in words; a NaN ratio is 0 / 0 or worse."""
    if ratio <= margin:
        return f"ratio {ratio:.3g} <= {margin}"
    return f"ratio {ratio:.3g}: coincident or non-finite nodes"


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
    ratio = np.empty_like(d)  # np.roll(d, -1, axis=1) / d, without the rolled copy
    np.divide(d[:, 1:], d[:, :-1], out=ratio[:, :-1])
    np.divide(d[:, :1], d[:, -1:], out=ratio[:, -1:])
    turn = np.sum(np.angle(ratio), axis=1)
    return np.rint(turn / (2 * np.pi)).astype(int)


def region_membership_many(points: np.ndarray, mesh: BoundaryMesh):
    """Vectorized region classification; returns an object array of Region.

    NearBoundary means that some node pair fails the Cauchy kernel's own
    null test |square(p - z_j)| <= NULL_TOL (1 + |p - z_j|^2), so a point is
    NearBoundary exactly where the kernel refuses it.  Every other point is
    classified by index (module docstring), or by the seed disks that
    certify it (_seed_disks).  The points go in row_blocks of PAIR_BLOCK
    pairs, and every row is classified on its own.

    No region exists at odd n for a row block holding a point whose
    differences with the nodes the kernel does not take as real
    (OddDimensionComplexError, as cauchy_transform_points raises on the
    same points), or on a mesh that does not enclose its interior seed,
    such as an open chain of edges (ValueError).
    """
    points = np.asarray(points, dtype=complex).reshape(-1, mesh.n)
    out = np.empty(points.shape[0], dtype=object)
    for rows, regions in _region_blocks(points, mesh):
        out[rows] = regions
    return out


def _region_blocks(points: np.ndarray, mesh: BoundaryMesh):
    """Yield (rows, regions of points[rows]) per row block of (P, n) points, in order."""
    if _regions(mesh.interior_seed[None, :], mesh)[0] is not Region.INTERIOR:
        raise ValueError("the boundary does not enclose its interior seed")
    for rows in row_blocks(points.shape[0], mesh.size):
        yield rows, _regions(points[rows], mesh)


@per_mesh
def _seed_disks(mesh: BoundaryMesh):
    """(c, rad, far) of the seed disk in each null plane rho of a curve, and the seed's exact region.

    c_rho = zeta_rho(seed), rad_rho is just below the distance from c_rho to the closed polygon of
    _winding_numbers (a zero-length edge counts as its endpoint), far_rho = max_j |zeta_rho(z_j) - c_rho|."""
    c = null_coordinates(mesh.interior_seed)
    a = null_coordinates(mesh.nodes).T - c[:, None]
    e = np.roll(a, -1, axis=1) - a
    e2 = np.abs(e) ** 2
    t = np.clip(np.divide(-np.real(np.conj(a) * e), e2, out=np.zeros_like(e2), where=e2 > 0), 0.0, 1.0)
    rad = (1 - 1e-9) * np.min(np.abs(a + t * e), axis=1)
    return c, rad, np.max(np.abs(a), axis=1), _planar_regions(mesh.interior_seed[None, :], mesh)[0]


def _regions(points: np.ndarray, mesh: BoundaryMesh) -> np.ndarray:
    """The seed's region inside both seed disks, else _planar_regions (n = 2); the null test and Gauss sum (n = 3)."""
    out = np.full(points.shape[0], Region.NEAR_BOUNDARY, dtype=object)
    if mesh.n == 2:
        c, rad, far, seed = _seed_disks(mesh)
        q = np.abs(null_coordinates(points) - c)
        g = rad - q
        # |zeta_0(p - z_j) zeta_1(p - z_j)| >= g_0 g_1 and |p - z_j|^2 <= the bracket
        inside = (g[:, 0] > 0) & (g[:, 1] > 0) & (g[:, 0] * g[:, 1] > 2 * NULL_TOL * (1 + np.sum((q + far) ** 2, axis=1) / 2))
        out[inside] = seed
        if not inside.all():
            out[~inside] = _planar_regions(points[~inside], mesh)
        return out
    x, r2, refused = _real_differences(points, mesh.nodes)
    far = ~np.any(refused, axis=1)
    # the scalar part of G(p - z) n is -G.n, G(x) = x / |x|^3: the Gauss solid-angle sum
    r2 = r2[far]
    G = x[:, far] / (r2 * np.sqrt(r2))
    gauss = -np.einsum("kpj,jk->p", G, np.real(mesh.normals * mesh.sigma[:, None])) / (4 * np.pi)
    out[far] = np.where(gauss > 0.5, Region.INTERIOR, Region.EXTERIOR)
    return out


def _planar_regions(points: np.ndarray, mesh: BoundaryMesh) -> np.ndarray:
    """The exact n = 2 path: NearBoundary by the kernel's null test, the winding numbers elsewhere."""
    out = np.full(points.shape[0], Region.NEAR_BOUNDARY, dtype=object)
    d = null_differences(points, mesh.nodes)
    far = ~np.any(is_null_planar(d), axis=1)
    zeta, eta = (_winding_numbers(dk if far.all() else dk[far]) != 0 for dk in d)
    out[far] = np.select([zeta & eta, zeta | eta], [Region.INTERIOR, Region.MIXED], Region.EXTERIOR)
    return out


# -- approach cones -------------------------------------------------------------


def _cone_samples(mesh: BoundaryMesh, i, alpha: float, r: float, count: int):
    """Deterministic low-discrepancy samples of the truncated cone at node i.

    Radii follow the rho = r * u^(1/(2n)) law (uniform for the R^{2n}
    volume element, and bounded away from the apex for moderate counts);
    directions spread over the alpha-cone around the inward axis.  With an
    array of nodes i the samples come node by node, count rows each.  Every
    (alpha, r) only rescales the mesh's one _cone_frame.
    """
    axis, perp, radial, angular = _cone_frame(mesh, count)
    rho, phi = r * radial, alpha * angular
    dirs = np.cos(phi)[:, None] * axis[i] + np.sin(phi)[:, None] * perp[i]
    return (mesh.nodes[i][..., None, :] + rho[:, None] * dirs).reshape(-1, mesh.n)


def _halton(count: int, dim: int) -> np.ndarray:
    """Points 1..count of the unscrambled Halton sequence in [0, 1)^dim, as (count, dim).

    Coordinate k is the radical inverse of the point's index in the k-th
    prime: its base-b digits mirrored about the radix point.  Point 0, all
    zeros, is skipped.
    """
    primes = [p for p in range(2, 64) if all(p % q for q in range(2, p))][:dim]
    out = np.zeros((count, dim))
    for k, b in enumerate(primes):
        i, f = np.arange(1, count + 1), 1.0 / b
        while i.any():
            out[:, k] += f * (i % b)
            i //= b
            f /= b
    return out


@per_mesh
def _cone_frame(mesh: BoundaryMesh, count: int):
    """What the cone samples of every (alpha, r) share, read-only, from one Halton draw (_halton).

    The inward unit axes (N, 1, n), unit directions orthogonal to them
    (N, count, n), and per sample u^(1/(2n)) and v^(1/2) of the draw's
    first two coordinates, which r and alpha scale.
    """
    n2 = 2 * mesh.n
    raw = _halton(count, n2 + 1)
    nrm = mesh.normals
    axis = (-nrm / np.sqrt(np.sum(np.abs(nrm) ** 2, axis=-1, keepdims=True)))[:, None, :]
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
    frame = axis, perp, raw[:, 0] ** (1.0 / n2), raw[:, 1] ** 0.5
    for a in frame:
        a.setflags(write=False)
    return frame


_DEFAULT_ALPHAS = (np.pi / 4, np.pi / 6, np.pi / 8, np.pi / 12)
_DEFAULT_RADIUS_FACTORS = (1.0, 0.5, 0.25, 0.1)
_CONE_SAMPLES = 64  # samples per cone


@per_mesh
def cone_parameters(mesh: BoundaryMesh):
    """Largest (alpha, r) from the schedule whose cones sample as Interior.

    For every node the truncated cone around the inward normal is sampled
    deterministically (_cone_samples); a schedule entry is accepted only if
    every sample at every node classifies Interior by index
    (region_membership_many).  Conservative by construction.  The samples
    are classified in row blocks, and an entry is rejected at the first
    block that holds a sample of another region.
    """
    half_diam = mesh.half_diameter()
    for alpha in _DEFAULT_ALPHAS:
        for fac in _DEFAULT_RADIUS_FACTORS:
            r = fac * half_diam
            pts = _cone_samples(mesh, np.arange(mesh.size), alpha, r, _CONE_SAMPLES)
            if all(np.all(regions == Region.INTERIOR) for _, regions in _region_blocks(pts, mesh)):
                return float(alpha), float(r)
    raise NoValidConeError("no schedule entry produced all-interior cone samples")


# -- serialization ----------------------------------------------------------------


def _pack(a: np.ndarray) -> list:
    """Nested lists of [real, imaginary] pairs, one per entry of a."""
    return np.stack([a.real, a.imag], -1).tolist()


def save_mesh(mesh: BoundaryMesh, path: str):
    doc = {
        "n": mesh.n,
        "nodes": _pack(mesh.nodes),
        "normals": _pack(mesh.normals),
        "sigma": _pack(mesh.sigma),
        "sigma_abs": mesh.sigma_abs.tolist(),
        "interior_seed": _pack(mesh.interior_seed),
        "exterior_seed": _pack(mesh.exterior_seed),
        "h": mesh.h,
    }
    if mesh.edges is not None:
        doc["edges"] = mesh.edges.tolist()
    with open(path, "w") as fh:
        json.dump(doc, fh)
