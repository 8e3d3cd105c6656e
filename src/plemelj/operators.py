"""Boundary-integral operators over a BoundaryMesh.

Everything is assembled in Nystrom fashion: an operator is an (N d) x (N d)
complex matrix of d x d blocks (d = 2**n), each block the left-multiplication
matrix of a kernel value times a quadrature weight.  The kernels (G n, the
cancelled Kerzman-Stein kernel) are even, so every such matrix is stored
and applied as its irreducible spinor blocks (BlockOperator): two N x N
matrices for n = 2, one (2N) x (2N) matrix for n = 3.

For n = 2 the blocks are assembled directly.  With the null coordinates
zeta = z1 + i z2 and eta = z1 - i z2, square(z) = -zeta eta, and block rho
of G(w - z) n(z) is the planar Cauchy kernel -zeta_rho(n) / (2 pi
zeta_rho(w - z)) of the zeta_rho plane (zeta_0 = zeta, zeta_1 = eta).  So
C, A and the off-boundary transforms come from arrays of null differences
and are applied as matrix products (_kernel_blocks).  The Clifford kernel
G = cauchy_kernel serves n = 3, generic_kernel_operator and the subtracted
near-boundary transform.

Kernel and sign conventions are fixed once by constant calibration: with
K(w, z) = G(w - z) and the chosen orientation of normals and measure, the
off-boundary transform of the constant function 1 equals 1 at interior
points and 0 at exterior points, and the principal-value operator C maps
constants to 1/2 exactly (its diagonal blocks are defined by that row-sum
rule).

On closed curves with even N the singular quadrature uses odd offsets only
with doubled weights; this reproduces the band-exact discrete conjugation
on the circle, so operator identities hold to quadrature accuracy on
band-limited data rather than stalling at first order.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    Multivector,
    NullVectorError,
    algebra,
    cauchy_kernel,
    is_null,
    null_coordinates,
    null_differences,
)
from .mesh import BoundaryMesh, Region, _validated, per_mesh, region_membership

__all__ = [
    "BlockOperator",
    "BoundaryFunction",
    "NearBoundaryError",
    "PROJECTION_COEFFS",
    "assemble_adjoint_cauchy",
    "assemble_kerzman_stein",
    "assemble_singular_cauchy",
    "cauchy_transform",
    "cauchy_transform_points",
    "generic_kernel_operator",
    "l2_norm",
    "omega",
    "pairing",
    "plemelj_projection",
    "smooth_family",
    "smooth_matrix_norm",
    "smooth_test_basis",
    "weighted_norm",
]


class NearBoundaryError(ValueError):
    """Transform evaluation requested on or numerically on the boundary."""


def omega(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# -- boundary functions --------------------------------------------------------


class BoundaryFunction:
    """One multivector value per mesh node; the discrete L^2(dM) element."""

    def __init__(self, mesh: BoundaryMesh, values: np.ndarray):
        d = algebra(mesh.n).dim
        values = np.asarray(values, dtype=complex)
        if values.shape != (mesh.size, d):
            raise ValueError(f"expected values of shape {(mesh.size, d)}, got {values.shape}")
        self.mesh = mesh
        self.values = values

    @classmethod
    def constant(cls, mesh: BoundaryMesh, value=1.0) -> "BoundaryFunction":
        alg = algebra(mesh.n)
        if isinstance(value, Multivector):
            coeffs = value.coeffs
        else:
            coeffs = np.zeros(alg.dim, dtype=complex)
            coeffs[0] = value
        return cls(mesh, np.tile(coeffs, (mesh.size, 1)))

    @classmethod
    def from_callable(cls, mesh: BoundaryMesh, fn) -> "BoundaryFunction":
        """Sample fn(node) -> Multivector | coefficient vector at every node."""
        alg = algebra(mesh.n)
        rows = []
        for z in mesh.nodes:
            v = fn(z)
            rows.append(v.coeffs if isinstance(v, Multivector) else np.asarray(v, dtype=complex))
        return cls(mesh, np.array(rows))

    @classmethod
    def kernel_trace(cls, mesh: BoundaryMesh, pole: np.ndarray) -> "BoundaryFunction":
        """Boundary trace of G(. - pole)."""
        alg = algebra(mesh.n)
        pole = np.asarray(pole, dtype=complex)
        return cls(mesh, alg.embed_vector(cauchy_kernel(mesh.nodes - pole)))

    def copy(self) -> "BoundaryFunction":
        return BoundaryFunction(self.mesh, self.values.copy())

    def __add__(self, other: "BoundaryFunction") -> "BoundaryFunction":
        self._check(other)
        return BoundaryFunction(self.mesh, self.values + other.values)

    def __sub__(self, other: "BoundaryFunction") -> "BoundaryFunction":
        self._check(other)
        return BoundaryFunction(self.mesh, self.values - other.values)

    def __mul__(self, scalar) -> "BoundaryFunction":
        return BoundaryFunction(self.mesh, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return BoundaryFunction(self.mesh, -self.values)

    def _check(self, other):
        if other.mesh is not self.mesh and other.mesh.size != self.mesh.size:
            raise ValueError("mesh mismatch between boundary functions")

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


def l2_norm(f: BoundaryFunction) -> float:
    """Weighted L^2 norm: identity part of sum star(f) f |sigma|."""
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2 * f.mesh.sigma_abs[:, None])))


def pairing(f: BoundaryFunction, g: BoundaryFunction) -> Multivector:
    """Clifford-bilinear pairing sum_j bar(f_j) g_j sigma_j."""
    f._check(g)
    alg = algebra(f.mesh.n)
    prod = alg.product(alg.bar(f.values), g.values)
    return Multivector(alg, np.sum(prod * f.mesh.sigma[:, None], axis=0))


def hermitian_inner(f: BoundaryFunction, g: BoundaryFunction) -> complex:
    """Positive inner product sum_j <f_j, g_j>_C |sigma|_j (test oracle use)."""
    f._check(g)
    return complex(np.sum(np.conj(f.values) * g.values * f.mesh.sigma_abs[:, None]))


# -- block operators -------------------------------------------------------------


def _to_spinor(values: np.ndarray, mesh: BoundaryMesh) -> np.ndarray:
    """Node coefficients (N, d) -> spinor columns (blocks, N s, copies), row node * s + row."""
    sp = algebra(mesh.n).spinor
    y = (values @ sp.T.conj()).reshape(mesh.size, sp.blocks, sp.copies, sp.size)
    return y.transpose(1, 0, 3, 2).reshape(sp.blocks, mesh.size * sp.size, sp.copies)


def _from_spinor(columns: np.ndarray, mesh: BoundaryMesh) -> np.ndarray:
    """Inverse of _to_spinor, for the rows of any number M of points: (blocks, M s, copies) -> (M, d)."""
    sp = algebra(mesh.n).spinor
    y = columns.reshape(sp.blocks, -1, sp.size, sp.copies).transpose(1, 0, 3, 2)
    return y.reshape(y.shape[0], -1) @ sp.T.T


class BlockOperator:
    """Operator on stacked node coefficients whose d x d blocks are left
    multiplications by even elements, stored as its spinor blocks.

    Such an (N d) x (N d) Clifford block matrix is block-diagonal in the frame
    I_N (x) T of algebra.SpinorReduction, with every distinct block repeated
    `copies` times.  `matrix` holds the distinct blocks only, shape
    (blocks, N s, N s) with row index node * s + row: two N x N matrices for
    n = 2, one (2N) x (2N) matrix for n = 3.  `dense()` expands it.
    """

    def __init__(self, mesh: BoundaryMesh, matrix: np.ndarray, label: str = "custom"):
        self.mesh = mesh
        self.matrix = matrix
        self.label = label

    @classmethod
    def identity(cls, mesh: BoundaryMesh) -> "BlockOperator":
        sp = algebra(mesh.n).spinor
        eye = np.eye(mesh.size * sp.size, dtype=complex)
        return cls(mesh, np.repeat(eye[None], sp.blocks, axis=0), "I")

    @property
    def block_dim(self) -> int:
        """d, the size of a node block of the dense matrix."""
        return algebra(self.mesh.n).dim

    def apply(self, f: BoundaryFunction) -> BoundaryFunction:
        if f.mesh.size != self.mesh.size:
            raise ValueError("operator and function live on different meshes")
        out = self.matrix @ _to_spinor(f.values, self.mesh)
        return BoundaryFunction(f.mesh, _from_spinor(out, self.mesh))

    def compose(self, other: "BlockOperator") -> "BlockOperator":
        return BlockOperator(self.mesh, self.matrix @ other.matrix, f"{self.label}*{other.label}")

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        return BlockOperator(self.mesh, self.matrix + other.matrix, f"{self.label}+{other.label}")

    def __sub__(self, other):
        return BlockOperator(self.mesh, self.matrix - other.matrix, f"{self.label}-{other.label}")

    def __mul__(self, scalar):
        return BlockOperator(self.mesh, self.matrix * scalar, self.label)

    __rmul__ = __mul__

    def _weighted(self) -> np.ndarray:
        w = _node_weights(self.mesh, algebra(self.mesh.n).spinor.size)
        return self.matrix * (w[:, None] / w[None, :])

    def operator_norm(self) -> float:
        """Largest singular value w.r.t. the weighted L^2 inner product."""
        return float(np.max(np.linalg.norm(self._weighted(), 2, axis=(-2, -1))))

    def singular_values(self) -> np.ndarray:
        """Weighted singular values, each block's repeated by its multiplicity, descending."""
        sv = np.linalg.svd(self._weighted(), compute_uv=False)
        return -np.sort(-np.repeat(sv.reshape(-1), algebra(self.mesh.n).spinor.copies))

    def max_block_norm(self, off_diagonal_only: bool = False) -> float:
        """Largest Frobenius norm of a d x d node block (T is unitary, so copies add up)."""
        sp = algebra(self.mesh.n).spinor
        N = self.mesh.size
        blocks = self.matrix.reshape(sp.blocks, N, sp.size, N, sp.size)
        norms = np.sqrt(sp.copies * np.sum(np.abs(blocks) ** 2, axis=(0, 2, 4)))
        if off_diagonal_only:
            np.fill_diagonal(norms, 0.0)
        return float(norms.max())

    def dense(self) -> np.ndarray:
        """The (N d) x (N d) Clifford block matrix (for tests and oracles)."""
        sp = algebra(self.mesh.n).spinor
        N, s, m, r = self.mesh.size, sp.size, sp.copies, sp.blocks
        blocks = self.matrix.reshape(r, N, s, N, s).transpose(1, 3, 0, 2, 4)
        frame = np.zeros((N, N, r, m, s, r, m, s), dtype=complex)
        for rho in range(r):
            for k in range(m):
                frame[:, :, rho, k, :, rho, k, :] = blocks[:, :, rho]
        d = sp.T.shape[0]
        out = sp.T @ frame.reshape(N, N, d, d) @ sp.T.conj().T
        return out.transpose(0, 2, 1, 3).reshape(N * d, N * d)


# -- smooth test family ----------------------------------------------------------


def _node_weights(mesh: BoundaryMesh, size: int = None) -> np.ndarray:
    """Diagonal of W = sqrt|sigma|, size entries per node (default d, one per coefficient)."""
    return np.repeat(np.sqrt(mesh.sigma_abs), algebra(mesh.n).dim if size is None else size)


@per_mesh
def _scalar_smooth_basis(mesh: BoundaryMesh) -> np.ndarray:
    """Weighted-orthonormal basis Q_s (N, M) of the scalar smooth traces.

    Curves get Fourier modes |m| <= 12; other meshes get polynomial
    traces of degree <= 2.  Columns that depend on earlier ones (x1^2 + x2^2
    + x3^2 = 1 on the sphere) are dropped, so the span is fixed and no
    direction is chosen by rounding.
    """
    N = mesh.size
    if mesh.theta is not None:
        ms = np.arange(-12, 13)
        scal = np.exp(1j * np.outer(mesh.theta, ms))  # (N, M)
    else:
        x = mesh.nodes.real
        cols = [np.ones(N)]
        for a in range(mesh.n):
            cols.append(x[:, a])
            for b in range(a, mesh.n):
                cols.append(x[:, a] * x[:, b])
        scal = np.array(cols).T
    q, r = np.linalg.qr(_node_weights(mesh, 1)[:, None] * scal)
    diag = np.abs(np.diag(r))
    return q[:, diag > 1e-10 * diag.max()]


def smooth_test_basis(mesh: BoundaryMesh, size: int = None) -> np.ndarray:
    """Weighted-orthonormal basis Q_s (x) I_size of a fixed smooth subspace, as columns.

    The scalar traces of _scalar_smooth_basis tensored with all size
    coefficients of a node: size = d (the default) gives node coefficients,
    size = s one spinor block.  Nystrom discretizations of singular
    operators converge strongly, not in norm, so identity residuals are
    measured on this family.
    """
    size = algebra(mesh.n).dim if size is None else size
    return np.kron(_scalar_smooth_basis(mesh), np.eye(size))


def smooth_family(mesh: BoundaryMesh, size: int = None) -> np.ndarray:
    """The smooth basis as coefficients, Y = W^{-1} Q, so ||W R Y||_2 is R's norm on it."""
    return smooth_test_basis(mesh, size) / _node_weights(mesh, size)[:, None]


def weighted_norm(columns: np.ndarray, mesh: BoundaryMesh) -> float:
    """Spectral norm ||W X||_2 of coefficient columns X; the largest over a stack of blocks."""
    w = _node_weights(mesh, columns.shape[-2] // mesh.size)
    return float(np.max(np.linalg.norm(w[:, None] * columns, 2, axis=(-2, -1))))


def smooth_matrix_norm(op_matrix: np.ndarray, mesh: BoundaryMesh) -> float:
    """Operator norm of a dense (N d) x (N d) matrix restricted to the smooth family (oracle)."""
    return weighted_norm(op_matrix @ smooth_family(mesh), mesh)


# -- assembly ---------------------------------------------------------------------


@per_mesh
def _pair_kernel(mesh: BoundaryMesh) -> np.ndarray:
    """G(w_i - z_j) components for all pairs, junk on the diagonal (n = 3 assembly, oracles)."""
    diffs = mesh.nodes[:, None, :] - mesh.nodes[None, :, :]
    idx = np.arange(mesh.size)
    diffs[idx, idx, 0] = 1.0  # placeholder off the null cone; diagonal set later
    return cauchy_kernel(diffs)


def _quad_weights(mesh: BoundaryMesh) -> np.ndarray:
    """(N, N) quadrature weight matrix for singular kernels.

    Closed curves with even N use odd offsets with doubled weights (the
    alternate-point trapezoid rule, exact on the circle's band); other
    meshes use the punctured rule.
    """
    N = mesh.size
    if mesh.curve_order and N % 2 == 0:
        i = np.arange(N)
        parity = ((i[:, None] - i[None, :]) % 2).astype(float)
        return parity * (2.0 * mesh.sigma)[None, :]
    W = np.tile(mesh.sigma, (N, 1))
    np.fill_diagonal(W, 0.0)
    return W


def _vector_kernel_blocks(mesh: BoundaryMesh, K: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Spinor blocks (blocks, M, s, N, s) of (1/omega) L(K_mj) L(n_j) W_mj, K grade-1 (M, N, n)."""
    sp = algebra(mesh.n).spinor
    Kn = np.einsum("jm,lmrpq->jlrpq", mesh.normals, sp.vector_pairs)  # blocks of e_l n_j
    return np.einsum("ijl,jlrpq->ripjq", K * W[..., None], Kn) / omega(mesh.n)


def _stack(blocks: np.ndarray) -> np.ndarray:
    r, M, s, N = blocks.shape[:4]
    return blocks.reshape(r, M * s, N * s)


def _off_null(dz: np.ndarray) -> np.ndarray:
    """Null differences (2, M, N), checked as cauchy_kernel checks square(u) = -zeta eta."""
    r2 = 0.5 * (np.abs(dz[0]) ** 2 + np.abs(dz[1]) ** 2)  # |u|^2
    if np.any(np.abs(dz[0] * dz[1]) <= 1e-12 * (1.0 + r2)):
        raise NullVectorError("Cauchy kernel evaluated on the null cone")
    return dz


@per_mesh
def _null_pairs(mesh: BoundaryMesh) -> np.ndarray:
    """zeta_rho(z_i - z_j) of all node pairs (n = 2) as (2, N, N), 1 on the diagonal."""
    dz = null_differences(mesh.nodes, mesh.nodes)
    idx = np.arange(mesh.size)
    dz[:, idx, idx] = 1.0  # placeholder off the null cones; diagonals are set later
    return _off_null(dz)


def _planar_blocks(mesh: BoundaryMesh, dz: np.ndarray) -> np.ndarray:
    """Blocks -zeta_rho(n_j) / (omega zeta_rho(p_m - z_j)) (n = 2) from null differences (2, M, N)."""
    return null_coordinates(mesh.normals).T[:, None, :] / (-omega(2) * dz)


def _kernel_blocks(mesh: BoundaryMesh, points: np.ndarray) -> np.ndarray:
    """Spinor blocks (blocks, M s, N s) of (1/omega) G(p_m - z_j) n_j at (M, n) points.

    For n = 2 block rho is the planar Cauchy kernel of the zeta_rho plane,
    -zeta_rho(n_j) / (2 pi zeta_rho(p_m - z_j)), with zeta_0 = zeta and
    zeta_1 = eta (algebra.null_coordinates).  For n = 3 the blocks come from
    cauchy_kernel.  Raises NullVectorError wherever cauchy_kernel(p_m - z_j)
    does.
    """
    if mesh.n == 2:
        return _planar_blocks(mesh, _off_null(null_differences(points, mesh.nodes)))
    G = cauchy_kernel(points[:, None, :] - mesh.nodes[None, :, :])
    return _stack(_vector_kernel_blocks(mesh, G, np.ones(G.shape[:2])))


def _pair_blocks(mesh: BoundaryMesh, W: np.ndarray) -> np.ndarray:
    """_kernel_blocks at the nodes themselves times weights W (N, N) that vanish on the diagonal."""
    if mesh.n == 2:
        return _planar_blocks(mesh, _null_pairs(mesh)) * W
    return _stack(_vector_kernel_blocks(mesh, _pair_kernel(mesh), W))


@per_mesh
def assemble_singular_cauchy(mesh: BoundaryMesh) -> BlockOperator:
    """Principal-value Cauchy operator C with the constant-calibrated diagonal.

    Off-diagonal blocks are (1/omega) L(G(w_i - z_j)) L(n_j) w_ij; the
    diagonal absorbs the quadrature's principal-value defect through
    diag_i = I/2 - sum_{j != i} block_ij, which makes C(const) = const/2
    exact for every constant multivector.  All of it is done on the
    spinor blocks of the even kernel G n, which for n = 2 are planar Cauchy
    kernels (_kernel_blocks).  Raises ValidationFailedError on a mesh that
    fails validate_domain_manifold.
    """
    _validated(mesh)
    sp, N = algebra(mesh.n).spinor, mesh.size
    matrix = _pair_blocks(mesh, _quad_weights(mesh))
    blocks = matrix.reshape(sp.blocks, N, sp.size, N, sp.size)  # a view
    idx = np.arange(N)
    blocks[:, idx, :, idx, :] = 0.0
    rowsum = blocks.sum(axis=3).transpose(1, 0, 2, 3)  # (N, blocks, s, s)
    blocks[:, idx, :, idx, :] = 0.5 * np.eye(sp.size) - rowsum
    return BlockOperator(mesh, matrix, "C")


def _cancelled_kernel_coeffs(alg, G, n_row, n_col) -> np.ndarray:
    """Coefficients of G(w-z) n(z) + n(w) G(w-z), written without cancellation.

    For vectors, u v + v u = -2 <u, v>, so the singular parts drop out
    analytically:  G (n(z) - n(w)) - 2 <G, n(w)>.
    """
    delta = n_col - n_row
    scal = -np.sum(G * (n_col + n_row), axis=-1)
    out = np.zeros(G.shape[:-1] + (alg.dim,), dtype=complex)
    out[..., 0] = scal
    n = alg.n
    slot = {}
    for i, blade in enumerate(alg.blades):
        if len(blade) == 2:
            slot[blade] = i
    for a in range(n):
        for b in range(a + 1, n):
            out[..., slot[(a + 1, b + 1)]] = G[..., a] * delta[..., b] - G[..., b] * delta[..., a]
    return out


def _padded(N: int, pairs: np.ndarray):
    """Pairs sorted by source -> (N, width) targets padded with the source, and counts."""
    count = np.bincount(pairs[:, 0], minlength=N)
    out = np.repeat(np.arange(N)[:, None], max(1, int(count.max())), axis=1)
    start = np.cumsum(count) - count
    out[pairs[:, 0], np.arange(len(pairs)) - start[pairs[:, 0]]] = pairs[:, 1]
    return out, count


def _neighbour_rings(mesh: BoundaryMesh):
    """First and second neighbour rings of every node as padded index arrays.

    Returns (ring1, count1, ring2, count2).  On curves the rings are the
    offsets +-1 and +-2.  Otherwise ring 1 lists the mesh neighbours in edge
    order and ring 2 the neighbours of neighbours that are neither the node
    nor in ring 1, ascending.
    """
    N = mesh.size
    idx = np.arange(N)
    if mesh.curve_order:
        ring1 = np.stack([(idx + 1) % N, (idx - 1) % N], axis=1)
        ring2 = np.stack([(idx + 2) % N, (idx - 2) % N], axis=1)
        return ring1, np.full(N, 2), ring2, np.full(N, 2)
    edges = np.asarray(mesh.edge_list(), dtype=np.int64)
    directed = np.stack([edges, edges[:, ::-1]], axis=1).reshape(-1, 2)
    ring1, count1 = _padded(N, directed[np.argsort(directed[:, 0], kind="stable")])
    # ring 1 of every ring-1 member; padded slots reach only the node and its ring 1
    code = np.unique(idx[:, None, None] * N + ring1[ring1])
    code = code[(code // N != code % N) & ~np.isin(code, idx[:, None] * N + ring1)]
    ring2, count2 = _padded(N, np.stack([code // N, code % N], axis=1))
    return ring1, count1, ring2, count2


def _ring_mean(K: np.ndarray, ring: np.ndarray, count: np.ndarray) -> np.ndarray:
    used = np.arange(ring.shape[1])[None, :] < count[:, None]
    vals = K[np.arange(K.shape[0])[:, None], ring]
    return np.where(used[..., None], vals, 0.0).sum(axis=1) / count[:, None]


def _richardson_diagonal(mesh: BoundaryMesh, K: np.ndarray) -> np.ndarray:
    """Diagonal of a smooth kernel K (N, N, d), extrapolated from the nearest two rings."""
    ring1, count1, ring2, count2 = _neighbour_rings(mesh)
    return (4.0 * _ring_mean(K, ring1, count1) - _ring_mean(K, ring2, count2)) / 3.0


@per_mesh
def assemble_kerzman_stein(mesh: BoundaryMesh) -> BlockOperator:
    """Kerzman-Stein operator A = C - C* (continuous, singularity-cancelled kernel).

    C* is the transpose of C with respect to the bilinear pairing
    <f, g> = integral bar(f) g dsigma, which is the reading under which the
    singularities cancel (and A vanishes identically on the circle).  The
    diagonal is the Richardson extrapolation of the cancelled kernel from
    the two nearest neighbor rings, block by block.  The kernel is scalar
    plus bivector, so it is stored as its spinor blocks; for n = 2 they are
    built from the null pair differences of C.  Raises ValidationFailedError
    on a mesh that fails validate_domain_manifold.
    """
    _validated(mesh)
    idx = np.arange(mesh.size)
    if mesh.n == 2:
        # block rho of G n_j + n_i G: -(zeta_rho(n_j) - zeta_rho(n_i)) / zeta_rho(u)
        # - 2 u.n_i / (zeta eta), u = w_i - z_j, with 2 u.v = zeta(u) eta(v) + eta(u) zeta(v)
        dz = _null_pairs(mesh)
        zn = null_coordinates(mesh.normals).T
        dot2 = dz[0] * zn[1][:, None] + dz[1] * zn[0][:, None]
        K = (zn[:, :, None] - zn[:, None, :]) / dz - dot2 / (dz[0] * dz[1])
        K[:, idx, idx] = _richardson_diagonal(mesh, K.transpose(1, 2, 0)).T
        return BlockOperator(mesh, K * (mesh.sigma / omega(2)), "A")
    alg = algebra(mesh.n)
    G = _pair_kernel(mesh)
    n_row = np.broadcast_to(mesh.normals[:, None, :], G.shape)
    n_col = np.broadcast_to(mesh.normals[None, :, :], G.shape)
    K = _cancelled_kernel_coeffs(alg, G, n_row, n_col)
    K[idx, idx] = _richardson_diagonal(mesh, K)
    # smooth kernel: plain trapezoid everywhere
    blocks = alg.spinor.reduce(K * mesh.sigma[None, :, None]).transpose(2, 0, 3, 1, 4)
    return BlockOperator(mesh, _stack(blocks / omega(mesh.n)), "A")


def assemble_adjoint_cauchy(mesh: BoundaryMesh) -> BlockOperator:
    """C* = C - A: the bilinear-pairing transpose of C."""
    op = assemble_singular_cauchy(mesh) - assemble_kerzman_stein(mesh)
    op.label = "C*"
    return op


# S+- = c0 I + c1 C, as coefficients of the powers of C
PROJECTION_COEFFS = {"+": (0.5, 1.0), "-": (0.5, -1.0)}


def plemelj_projection(mesh: BoundaryMesh, sign: str = "+") -> BlockOperator:
    """Boundary projection S+ = I/2 + C or S- = I/2 - C."""
    if sign not in PROJECTION_COEFFS:
        raise ValueError("sign must be '+' or '-'")
    return _projection(mesh, sign)


@per_mesh
def _projection(mesh: BoundaryMesh, sign: str) -> BlockOperator:
    C = assemble_singular_cauchy(mesh)
    c0, c1 = PROJECTION_COEFFS[sign]
    return BlockOperator(mesh, c0 * BlockOperator.identity(mesh).matrix + c1 * C.matrix, f"S{sign}")


def generic_kernel_operator(mesh: BoundaryMesh, kernel) -> BlockOperator:
    """Nystrom operator for a user kernel K(w - z), odd-symmetry zero diagonal.

    kernel maps difference vectors (..., n) to grade-1 components (..., n),
    so K n is even and the operator is stored as spinor blocks.  Assembly
    matches the Cauchy operator except that diagonal blocks are zero (the
    principal value of an odd kernel over a symmetric neighborhood).
    """
    N = mesh.size
    diffs = mesh.nodes[:, None, :] - mesh.nodes[None, :, :]
    idx = np.arange(N)
    diffs[idx, idx, 0] = 1.0
    K = np.array(kernel(diffs), dtype=complex)
    if K.shape != diffs.shape:
        raise ValueError(f"kernel must return grade-1 components {diffs.shape}, got {K.shape}")
    K[idx, idx] = 0.0
    if not np.all(np.isfinite(K)):
        raise ValueError("kernel returned non-finite values on mesh differences")
    blocks = _vector_kernel_blocks(mesh, K, _quad_weights(mesh))
    blocks[:, idx, :, idx, :] = 0.0
    return BlockOperator(mesh, _stack(blocks), "T_K")


# -- off-boundary transforms -------------------------------------------------------


def _transform_columns(mesh: BoundaryMesh, points: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """_kernel_blocks(mesh, points) @ columns in row chunks: (blocks, N s, k) -> (blocks, M s, k)."""
    s = algebra(mesh.n).spinor.size
    out = np.empty((columns.shape[0], points.shape[0] * s, columns.shape[2]), dtype=complex)
    chunk = max(1, int(4e6 / mesh.size))
    for s0 in range(0, points.shape[0], chunk):
        rows = slice(s0, min(s0 + chunk, points.shape[0]))
        out[:, rows.start * s : rows.stop * s] = _kernel_blocks(mesh, points[rows]) @ columns
    return out


def _transform_points(mesh: BoundaryMesh, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(1/omega) sum_j G(u - z_j) n_j f_j sigma_j at each point, as spinor-block products."""
    points = np.asarray(points, dtype=complex).reshape(-1, mesh.n)
    columns = _to_spinor(values * mesh.sigma[:, None], mesh)
    return _from_spinor(_transform_columns(mesh, points, columns), mesh)


def cauchy_transform(mesh: BoundaryMesh, f: BoundaryFunction, w) -> Multivector:
    """Off-boundary Cauchy transform of f at the point w.

    Refuses points classified NearBoundary.  Mixed points are evaluated:
    the transform is defined everywhere off the null cones of dM.  The naive
    quadrature is spectrally accurate away from dM and degrades like h/dist
    close to it; use cauchy_transform_points(..., subtract_node=...) for
    controlled near-boundary evaluation.
    """
    w = np.asarray(w, dtype=complex)
    if region_membership(w, mesh) is Region.NEAR_BOUNDARY:
        raise NearBoundaryError("evaluation point is numerically on the boundary")
    alg = algebra(mesh.n)
    return Multivector(alg, _transform_points(mesh, f.values, w[None, :])[0])


def cauchy_transform_points(
    mesh: BoundaryMesh,
    f: BoundaryFunction,
    points: np.ndarray,
    subtract_node=None,
    interior: bool = True,
) -> np.ndarray:
    """Batch transform; optional singularity subtraction for near evaluation.

    With subtract_node[m] = i, the value at points[m] is computed from the
    integrand G(u - z) n(z) (f(z) - f(z_i)) plus chi * f(z_i), where chi is
    1 for interior targets and 0 for exterior ones.  The added term is
    exactly zero in the continuum, the subtraction removes the h/dist
    quadrature blow-up near z_i, and the quadrature weights are those of
    node i's row in the singular operator, so the s -> 0 limit reproduces
    the Nystrom boundary projection exactly.
    """
    points = np.asarray(points, dtype=complex).reshape(-1, mesh.n)
    if subtract_node is None:
        return _transform_points(mesh, f.values, points)
    alg = algebra(mesh.n)
    subtract_node = np.asarray(subtract_node, dtype=int)
    chi = 1.0 if interior else 0.0
    W = _quad_weights(mesh)[subtract_node]  # (M, N) row weights
    nf = np.einsum("jab,jb->ja", alg.left_vector_matrix(mesh.normals), f.values)
    n1 = mesh.normals  # n_j acting on the constant 1 is the vector itself
    pre_f = np.einsum("lab,jb->laj", alg.generator_left, nf)
    pre_1 = np.einsum("lab,jb->laj", alg.generator_left, alg.embed_vector(n1))
    out = np.empty((points.shape[0], alg.dim), dtype=complex)
    chunk = max(1, int(4e6 / mesh.size))
    for s0 in range(0, points.shape[0], chunk):
        rows = slice(s0, min(s0 + chunk, points.shape[0]))
        diffs = points[rows, None, :] - mesh.nodes[None, :, :]
        # pairs on the null cone carry zero quadrature weight (they sit at
        # the subtracted node); park them off the cone before evaluating
        Wr = np.array(W[rows])
        bad = is_null(diffs)
        if np.any(bad):
            diffs = diffs.copy()
            diffs[bad] = np.eye(mesh.n)[0]
            Wr[bad] = 0.0
        G = cauchy_kernel(diffs)
        base = np.einsum("mjl,laj,mj->ma", G, pre_f, Wr)
        unit = np.einsum("mjl,laj,mj->ma", G, pre_1, Wr)
        fi = f.values[subtract_node[rows]]
        Lu = alg.left_matrix(unit / omega(mesh.n))
        out[rows] = base / omega(mesh.n) - (
            np.einsum("mab,mb->ma", Lu, fi) - chi * fi
        )
    return out
