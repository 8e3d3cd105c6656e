"""Boundary-integral operators over a BoundaryMesh.

Everything is assembled in Nystrom fashion: an operator is an (N d) x (N d)
complex matrix of d x d blocks (d = 2**n), each block the left-multiplication
matrix of a kernel value times a quadrature weight.  The kernels (G n, the
cancelled Kerzman-Stein kernel) are even, so every such matrix is stored
and applied as its irreducible spinor blocks (BlockOperator): two N x N
matrices for n = 2, one (2N) x (2N) matrix for n = 3.

Every weighted kernel sum over the nodes, sum_j G(p_m - z_j) n_j W_mj g_j,
is a product with the spinor blocks of one primitive, _kernel_blocks(mesh,
points, skip, W): the off-boundary transforms (W = 1), the truncated
maximal pass and the subtracted near-boundary transform (the pair of each
point with its node skipped).  For n = 2 the blocks are assembled directly.
With the null coordinates zeta = z1 + i z2 and eta = z1 - i z2, square(z) =
-zeta eta, and block rho of G(w - z) n(z) is the planar Cauchy kernel
-zeta_rho(n) / (2 pi zeta_rho(w - z)) of the zeta_rho plane (zeta_0 = zeta,
zeta_1 = eta).  A block of rows takes its reciprocals R_rho = 1 /
zeta_rho(p_m - z_j) (_null_rows) once, and the kernel follows by
multiplications only: block rho is R_rho (-zeta_rho(n_j) W_mj / 2 pi),
written over R (_cauchy_rows).  For n = 3 a block of G(u) = u / |u|^3
(_surface_rows) times a vector is a closed-form sum of the blocks
B(e_l e_k) (_vector_blocks).  The kernel's domain is algebra's: _null_rows
takes its null test (is_null_planar), _surface_rows its real differences
and origin test (_real_differences).  Only the maximal cone pass takes
n = 2 rows without the null test, at samples already classified Interior
(maximal._cone_rows).

Between the nodes themselves C and A are built in one pass over row blocks
on every mesh (_operators).  Each block evaluates its kernel once, R for
n = 2 and G for n = 3, and writes C's rows and A's rows from it; for n = 2
block rho of the cancelled kernel G n_j + n_i G is -zeta_rho(n_j) R_rho -
zeta_rhobar(n_i) R_rhobar (rhobar = 1 - rho), since left multiplication by
a vector swaps the null planes.  No (N, N) array of kernel values or
weights is kept.

Kernel and sign conventions are fixed once by constant calibration: with
K(w, z) = G(w - z) and the chosen orientation of normals and measure, the
off-boundary transform of the constant function 1 equals 1 at interior
points and 0 at exterior points, and the principal-value operator C maps
constants to 1/2 exactly: the pass writes each row block's diagonal blocks
by that row-sum rule as soon as the block's rows are built.

On closed curves with even N the singular quadrature uses odd offsets only
with doubled weights; this reproduces the band-exact discrete conjugation
on the circle, so operator identities hold to quadrature accuracy on
band-limited data rather than stalling at first order.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    NullVectorError,
    _real_differences,
    algebra,
    cauchy_kernel,
    is_null_planar,
    null_coordinates,
    null_differences,
)
from .linsolve import matmul, qr
from .mesh import BoundaryMesh, _validated, per_mesh, row_blocks

__all__ = [
    "BlockOperator",
    "BoundaryFunction",
    "PROJECTION_COEFFS",
    "assemble_kerzman_stein",
    "assemble_singular_cauchy",
    "cauchy_transform",
    "cauchy_transform_points",
    "l2_norm",
    "omega",
    "plemelj_projection",
    "smooth_family",
    "smooth_matrix_norm",
    "weighted_norm",
]


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
        """The scalar value at every node."""
        values = np.zeros((mesh.size, algebra(mesh.n).dim), dtype=complex)
        values[:, 0] = value
        return cls(mesh, values)

    @classmethod
    def kernel_trace(cls, mesh: BoundaryMesh, pole: np.ndarray) -> "BoundaryFunction":
        """Boundary trace of G(. - pole)."""
        alg = algebra(mesh.n)
        pole = np.asarray(pole, dtype=complex)
        return cls(mesh, alg.embed_vector(cauchy_kernel(mesh.nodes - pole)))

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
    """Weighted L^2 norm sqrt(sum_j |f_j|^2 |sigma_j|), |f_j| the Euclidean norm of the coefficients."""
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2 * f.mesh.sigma_abs[:, None])))


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

    def __init__(self, mesh: BoundaryMesh, matrix: np.ndarray):
        self.mesh = mesh
        self.matrix = matrix

    @classmethod
    def identity(cls, mesh: BoundaryMesh) -> "BlockOperator":
        sp = algebra(mesh.n).spinor
        eye = np.eye(mesh.size * sp.size, dtype=complex)
        return cls(mesh, np.repeat(eye[None], sp.blocks, axis=0))

    def apply(self, f: BoundaryFunction) -> BoundaryFunction:
        if f.mesh.size != self.mesh.size:
            raise ValueError("operator and function live on different meshes")
        out = self.matrix @ _to_spinor(f.values, self.mesh)
        return BoundaryFunction(f.mesh, _from_spinor(out, self.mesh))

    def compose(self, other: "BlockOperator") -> "BlockOperator":
        return BlockOperator(self.mesh, self.matrix @ other.matrix)

    def __matmul__(self, other):
        return self.compose(other)

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

    def max_block_norm(self) -> float:
        """Largest Frobenius norm of a d x d node block (T is unitary, so copies add up)."""
        sp = algebra(self.mesh.n).spinor
        N = self.mesh.size
        blocks = self.matrix.reshape(sp.blocks, N, sp.size, N, sp.size)
        return float(np.sqrt(sp.copies * np.sum(np.abs(blocks) ** 2, axis=(0, 2, 4))).max())

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


def _node_weights(mesh: BoundaryMesh, size: int) -> np.ndarray:
    """Diagonal of W = sqrt|sigma|, size entries per node."""
    return np.repeat(np.sqrt(mesh.sigma_abs), size)


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
    q, r = qr(_node_weights(mesh, 1)[:, None] * scal)
    diag = np.abs(np.diag(r))
    return q[:, diag > 1e-10 * diag.max()]


def smooth_family(mesh: BoundaryMesh, size: int = None) -> np.ndarray:
    """Coefficient columns Y = W^{-1} Q of a fixed smooth subspace, so ||W R Y||_2 is R's norm on it.

    Q = Q_s (x) I_size is weighted-orthonormal: the scalar traces of
    _scalar_smooth_basis tensored with all size coefficients of a node,
    size = d (the default) for node coefficients, size = s for one spinor
    block.  Nystrom discretizations of singular operators converge
    strongly, not in norm, so identity residuals are measured on this
    family.
    """
    size = algebra(mesh.n).dim if size is None else size
    return np.kron(_scalar_smooth_basis(mesh), np.eye(size)) / _node_weights(mesh, size)[:, None]


def weighted_norm(columns: np.ndarray, mesh: BoundaryMesh) -> float:
    """Spectral norm ||W X||_2 of coefficient columns X; the largest over a stack of blocks.

    It is the square root of the largest eigenvalue of the k x k Gram
    matrix (W X)^H (W X); no SVD of the tall block is taken.  A non-finite
    column gives NaN (or LinAlgError), never a small norm.
    """
    w = _node_weights(mesh, columns.shape[-2] // mesh.size)
    B = (w[:, None] * columns).reshape((-1,) + columns.shape[-2:])
    gram = matmul(np.swapaxes(B, -2, -1).conj(), B)
    # np.maximum, unlike max, keeps a NaN eigenvalue; + 0.0 turns -0.0 into 0.0
    return float(np.sqrt(np.maximum(np.linalg.eigvalsh(gram).max(), 0.0)) + 0.0)


def smooth_matrix_norm(op_matrix: np.ndarray, mesh: BoundaryMesh) -> float:
    """Operator norm of a dense (N d) x (N d) matrix restricted to the smooth family (oracle)."""
    return weighted_norm(op_matrix @ smooth_family(mesh), mesh)


# -- assembly ---------------------------------------------------------------------


def _weight_rows(mesh: BoundaryMesh, rows) -> np.ndarray:
    """Rows (a slice or an index array) of the quadrature weight matrix for singular kernels.

    Closed curves with even N use odd offsets with doubled weights (the
    alternate-point trapezoid rule, exact on the circle's band); other
    meshes use the punctured rule.  Only the requested rows are built.
    """
    N = mesh.size
    j = np.arange(N)
    i = j[rows]
    if mesh.theta is not None and N % 2 == 0:
        parity = ((i[:, None] - j[None, :]) % 2).astype(float)
        return parity * (2.0 * mesh.sigma)[None, :]
    W = np.tile(mesh.sigma, (i.size, 1))
    W[np.arange(i.size), i] = 0.0
    return W


def _null_rows(mesh: BoundaryMesh, points: np.ndarray, skip) -> np.ndarray:
    """Reciprocal null pairs R_rho = 1 / zeta_rho(p_m - z_j) (2, M, N) at (M, 2) points (n = 2), 0 at the pairs (m, skip[m]).

    The differences take the kernel's null test first (algebra.is_null_planar),
    with the skipped pairs parked off the cones, so this raises NullVectorError
    wherever cauchy_kernel does on a pair that is not skipped.  At the
    nodes, each skipping itself, the rows of all blocks make an
    antisymmetric R, bit for bit.
    """
    dz = null_differences(points, mesh.nodes)
    pairs = (slice(None), np.arange(points.shape[0]), skip)
    if skip is not None:
        dz[pairs] = 1.0  # placeholder off the null cones
    if np.any(is_null_planar(dz)):
        raise NullVectorError("Cauchy kernel evaluated on the null cone")
    R = np.reciprocal(dz, out=dz)
    if skip is not None:
        R[pairs] = 0.0
    return R


def _cauchy_rows(R: np.ndarray, zn: np.ndarray, W) -> np.ndarray:
    """Rows of C's blocks, R_rho (-zeta_rho(n_j) W_ij / omega), written over the reciprocal rows R; W is rows or 1.0."""
    # the weighted normals first and R second, in this order at every size
    return np.multiply(zn[:, None, :] * (W / -omega(2)), R, out=R)


def _surface_rows(mesh: BoundaryMesh, points: np.ndarray, skip, W) -> np.ndarray:
    """(1/omega) G(p_m - z_j) W_mj, G(x) = x / |x|^3, component first (3, M, N) at (M, 3) points, 0 at (m, skip[m]).

    The differences x, their real test and their origin test are the
    kernel's (algebra._real_differences); the skipped pairs are let through.
    """
    x, r2, refused = _real_differences(points, mesh.nodes)
    pairs = (np.arange(points.shape[0]), skip)
    if skip is not None:
        refused[pairs] = False
        r2[pairs] = 1.0  # placeholder off the origin
    if np.any(refused):
        raise NullVectorError("Cauchy kernel evaluated at the origin")
    scale = (W / omega(3)) * (1.0 / (r2 * np.sqrt(r2)))
    if skip is not None:
        scale[pairs] = 0.0
    return x * scale


def _vector_blocks(K: np.ndarray, vectors: np.ndarray, left: bool = False) -> np.ndarray:
    """Spinor blocks (blocks, M, s, N, s) of K_mj v_j, or of v_m K_mj when left, for a grade-1 field K (n, M, N).

    K is component first and v is (N, n), or (M, n) when left.  Entry (p, q) of a block is
    sum_l K_l B(e_l v)[p, q], B(e_l v) = sum_k v_k B(e_l e_k) (B(e_k e_l) when left) with the
    blocks B of algebra.SpinorReduction.vector_pairs, summed on a contiguous (M, N) plane.
    """
    n, M, N = K.shape
    pairs = algebra(n).spinor.vector_pairs
    X = np.ascontiguousarray(np.einsum("jk,klbpq->lbpqj" if left else "jk,lkbpq->lbpqj", vectors, pairs))
    X = X[..., None] if left else X[..., None, :]
    out = np.empty((X.shape[1], M, X.shape[2], N, X.shape[3]), dtype=complex)
    for b, p, q in np.ndindex(X.shape[1:4]):
        plane = K[0] * X[0, b, p, q]
        for l in range(1, n):
            plane += K[l] * X[l, b, p, q]
        out[b, :, p, :, q] = plane
    return out


def _kernel_blocks(mesh: BoundaryMesh, points: np.ndarray, skip=None, W=1.0) -> np.ndarray:
    """Spinor blocks (blocks, M s, N s) of (1/omega) G(p_m - z_j) n_j W_mj at (M, n) points, 0 at the pairs (m, skip[m]).

    The one primitive for weighted kernel sums over the nodes; W is (M, N)
    or the scalar 1.0.  For n = 2 block rho is the planar Cauchy kernel
    of the zeta_rho plane, R_rho (-zeta_rho(n_j) W_mj / 2 pi) with zeta_0 =
    zeta and zeta_1 = eta (algebra.null_coordinates), from the reciprocal
    null pairs R of _null_rows by C's own arithmetic (_cauchy_rows); for
    n = 3 from _surface_rows and _vector_blocks.  Raises NullVectorError
    wherever cauchy_kernel(p_m - z_j) does on a pair that is not skipped,
    and OddDimensionComplexError where the n = 3 differences are complex.
    """
    if mesh.n == 2:
        return _cauchy_rows(_null_rows(mesh, points, skip), null_coordinates(mesh.normals).T, W)
    return _vector_blocks(_surface_rows(mesh, points, skip, W), mesh.normals).reshape(1, 2 * len(points), -1)


@per_mesh
def _operators(mesh: BoundaryMesh) -> tuple:
    """C and A as BlockOperators, from one pass over row blocks of the node pairs.

    Each row block evaluates its kernel once and drops it: for n = 2 the
    reciprocal null pairs R (_null_rows), for n = 3 G(z_i - z_j) sigma_j /
    omega (_surface_rows).  C's rows are the blocks of G n_j with the
    singular weights (_weight_rows), A's rows those of the cancelled kernel
    G n_j + n_i G with the trapezoid weights sigma_j; A's diagonal blocks
    are its limit 0 (assemble_kerzman_stein).  C's diagonal blocks are then
    written from the rows just built, I/2 - sum_{j != i} block_ij
    (assemble_singular_cauchy).  Raises ValidationFailedError on a mesh that
    fails validate_domain_manifold.
    """
    _validated(mesh)
    sp, N = algebra(mesh.n).spinor, mesh.size
    C, A = np.empty((2, sp.blocks, N, sp.size, N, sp.size), dtype=complex)
    idx = np.arange(N)
    for rows in row_blocks(N, N):
        i = idx[rows]
        if mesh.n == 2:
            R = _null_rows(mesh, mesh.nodes[rows], i)
            zn = null_coordinates(mesh.normals).T
            # block rho of G(u) n_j + n_i G(u), u = w_i - z_j: left multiplication
            # by the vector n_i swaps the null planes, so it is
            # -zeta_rho(n_j) / zeta_rho(u) - zeta_rhobar(n_i) / zeta_rhobar(u), rhobar = 1 - rho;
            # R is antisymmetric with a zero diagonal, so K_1 = -K_0^T, bit for bit.
            # K holds minus the kernel; the sign goes into the weights.
            K = zn[:, None, :] * R
            K += zn[::-1, rows, None] * R[::-1]
            K *= mesh.sigma / -omega(2)
            A[:, rows, 0, :, 0] = K
            # C's rows last: _cauchy_rows writes them over R
            C[:, rows, 0, :, 0] = _cauchy_rows(R, zn, _weight_rows(mesh, rows))
        else:
            # the punctured rule's weights are sigma_j wherever G is not 0
            G = _surface_rows(mesh, mesh.nodes[rows], i, mesh.sigma)
            C[:, rows] = _vector_blocks(G, mesh.normals)
            A[:, rows] = _vector_blocks(G, mesh.normals[rows], left=True)
            A[:, rows] += C[:, rows]
            A[:, i, :, i, :] = 0.0
        C[:, i, :, i, :] = 0.0
        C[:, i, :, i, :] = 0.5 * np.eye(sp.size) - C[:, rows].sum(axis=3).transpose(1, 0, 2, 3)
    return tuple(BlockOperator(mesh, X.reshape(sp.blocks, N * sp.size, N * sp.size)) for X in (C, A))


def assemble_singular_cauchy(mesh: BoundaryMesh) -> BlockOperator:
    """Principal-value Cauchy operator C with the constant-calibrated diagonal.

    Off-diagonal blocks are (1/omega) L(G(w_i - z_j)) L(n_j) w_ij; the
    diagonal absorbs the quadrature's principal-value defect through
    diag_i = I/2 - sum_{j != i} block_ij, which makes C(const) = const/2
    exact for every constant multivector.  All of it is done on the
    spinor blocks of the even kernel G n, in the pass that builds A too
    (_operators).  Raises ValidationFailedError on a mesh that fails
    validate_domain_manifold.
    """
    return _operators(mesh)[0]


def assemble_kerzman_stein(mesh: BoundaryMesh) -> BlockOperator:
    """Kerzman-Stein operator A = C - C* (continuous, singularity-cancelled kernel).

    C* is the transpose of C with respect to the bilinear pairing
    <f, g> = integral bar(f) g dsigma, which is the reading under which the
    singularities cancel (and A vanishes identically on the circle).  The
    kernel is G(w - z) n(z) + n(w) G(w - z), and its diagonal blocks are 0,
    the kernel's limit on every shipped geometry: on a closed curve the
    1/(theta_i - theta_j) parts cancel and so do the O(1) parts
    i mu'/mu^2 and -i mu'/mu^2 (mu^2 = z'.z'), and on the sphere n(z) = z
    makes the whole kernel vanish.  A continuous periodic kernel needs
    nothing beyond the trapezoid rule, so the weights are sigma_j
    everywhere.  The kernel is scalar plus bivector, so it is stored as its
    spinor blocks, from the pass that builds C (_operators).  Raises
    ValidationFailedError on a mesh that fails validate_domain_manifold.
    """
    return _operators(mesh)[1]


# S+- = c0 I + c1 C, as coefficients of the powers of C
PROJECTION_COEFFS = {"+": (0.5, 1.0), "-": (0.5, -1.0)}


def plemelj_projection(mesh: BoundaryMesh, sign: str = "+") -> BlockOperator:
    """Boundary projection S+ = I/2 + C or S- = I/2 - C."""
    if sign not in PROJECTION_COEFFS:
        raise ValueError("sign must be '+' or '-'")
    return _projection(mesh, sign)


@per_mesh
def _projection(mesh: BoundaryMesh, sign: str) -> BlockOperator:
    c0, c1 = PROJECTION_COEFFS[sign]
    S = c1 * assemble_singular_cauchy(mesh).matrix
    S.reshape(S.shape[0], -1)[:, :: S.shape[-1] + 1] += c0  # c0 on the diagonal
    return BlockOperator(mesh, S)


# -- off-boundary transforms -------------------------------------------------------


def _transform_points(mesh: BoundaryMesh, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(1/omega) sum_j G(u - z_j) n_j f_j sigma_j at each point, as spinor-block products in row_blocks."""
    points = np.asarray(points, dtype=complex).reshape(-1, mesh.n)
    columns = _to_spinor(values * mesh.sigma[:, None], mesh)
    s = algebra(mesh.n).spinor.size
    out = np.empty((columns.shape[0], points.shape[0] * s, columns.shape[2]), dtype=complex)
    for rows in row_blocks(points.shape[0], mesh.size):
        out[:, rows.start * s : rows.stop * s] = _kernel_blocks(mesh, points[rows]) @ columns
    return _from_spinor(out, mesh)


def cauchy_transform(mesh: BoundaryMesh, f: BoundaryFunction, w) -> np.ndarray:
    """Off-boundary Cauchy transform of f at the point w, as a coefficient array (d,).

    Raises NullVectorError where the kernel refuses a node pair, exactly at
    the points region_membership_many classifies NearBoundary.  Mixed points
    are evaluated: the transform is defined everywhere off the null cones of
    dM.  The naive quadrature is spectrally accurate away from dM and
    degrades like h/dist close to it; use cauchy_transform_points(...,
    subtract_node=...) for controlled near-boundary evaluation.
    """
    return _transform_points(mesh, f.values, np.asarray(w, dtype=complex)[None, :])[0]


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
    the Nystrom boundary projection exactly.  The sum runs on the kernel
    blocks of _kernel_blocks with the pair (m, i) skipped; any other pair on
    the null cone raises NullVectorError, as the plain transform does.
    """
    points = np.asarray(points, dtype=complex).reshape(-1, mesh.n)
    if subtract_node is None:
        return _transform_points(mesh, f.values, points)
    subtract_node = np.asarray(subtract_node, dtype=int)
    sp = algebra(mesh.n).spinor
    F = _to_spinor(f.values, mesh).reshape(sp.blocks, mesh.size, sp.size, sp.copies)
    out = np.empty((sp.blocks, points.shape[0], sp.size, sp.copies), dtype=complex)
    for rows in row_blocks(points.shape[0], mesh.size):
        i = subtract_node[rows]
        K = _kernel_blocks(mesh, points[rows], i, _weight_rows(mesh, i))
        K = K.reshape(sp.blocks, -1, sp.size, mesh.size, sp.size)
        # sum_j K_mj (f_j - f_i), the difference taken in the spinor frame
        out[:, rows] = np.einsum("bmpjq,bmjqc->bmpc", K, F[:, None] - F[:, i, None])
    chi = 1.0 if interior else 0.0
    return _from_spinor(out.reshape(sp.blocks, -1, sp.copies), mesh) + chi * f.values[subtract_node]
