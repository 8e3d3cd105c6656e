"""Boundary-integral operators over a BoundaryMesh.

Everything is assembled in Nystrom fashion: an operator is an (N d) x (N d)
complex matrix of d x d blocks (d = 2**n), each block the left-multiplication
matrix of a kernel value times a quadrature weight.  The kernels (G n, the
cancelled Kerzman-Stein kernel) are even, so every such matrix is stored
and applied as its irreducible spinor blocks (BlockOperator): two N x N
matrices for n = 2, one (2N) x (2N) matrix for n = 3.

Every kernel value between points and nodes, G(p_m - z_j) for the sums
sum_j G(p_m - z_j) n_j W_mj g_j, is formed here in the row blocks of one
generator, _kernel_rows(mesh, points, skip, weighted, test), which
validates the mesh first; it is the module's one pass over row_blocks.
It serves the off-boundary transforms (W = 1) and the truncated sums at
the nodes (_transform_blocks, _truncated_blocks), the subtracted
near-boundary transform (each point's pair with its node skipped, W the
singular weights of that node's row) and the node pass that builds C and
A (_operators).  For n = 2 the blocks are assembled directly.  With the
null coordinates zeta = z1 + i z2 and eta = z1 - i z2, square(z) = -zeta
eta, and block rho of G(w - z) n(z) is the planar Cauchy kernel
-zeta_rho(n) / (2 pi zeta_rho(w - z)) of the zeta_rho plane (zeta_0 = zeta,
zeta_1 = eta).  A block of rows takes its reciprocals R_rho = 1 /
zeta_rho(p_m - z_j) once, from null coordinates of the points taken once
per pass, and the kernel follows by multiplications only: block rho is R_rho
(-zeta_rho(n_j) W_mj / 2 pi).  With W = 1 that factor depends on the node
alone, so the sums multiply the bare rows R into spinor columns that carry
it (_weighted_columns), and at Interior points num(1) is one more column of
the same product.  For n = 3 the values are G(u) W / omega = u / |u|^3 W /
omega (_surface_rows), and a block of G times a vector is a closed-form
sum of the blocks B(e_l e_k) (_vector_blocks, _spinor_rows), whose vector
normal no spinor column can carry.  The kernel's domain is algebra's: the
reciprocals take its null test (is_null_planar), _surface_rows its real
differences and origin test (_real_differences).  Transforms at points
classified Interior take n = 2 rows without the null test (test=False).

C's rows have one home, _cauchy_rows, which both the node pass and the
subtracted transform call on the values of _kernel_rows(..., weighted=True):
on curves it writes the alternate-point rule's weights over R, which
depend on the row's parity; on surfaces the punctured rule's sigma_j have
entered G W / omega before the product with u (weighted), and it takes
their blocks.

Between the nodes themselves C and A are built in one pass (_operators).
Each row block of node pairs, each node's own pair skipped, comes from
_kernel_rows once, R for n = 2 and G sigma_j / omega for n = 3, and C's
rows and A's rows are written from it; for n = 2 block rho of the
cancelled kernel G n_j + n_i G is -zeta_rho(n_j) R_rho - zeta_rhobar(n_i)
R_rhobar (rhobar = 1 - rho), since left multiplication by a vector swaps
the null planes.  No (N, N) array of kernel values or weights is kept.
For n = 2 the pass stores A's blocks column-major, as the LU reads them,
and takes the node pairs' null test from validation.

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
        return _apply_family(self, [f])[0]

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        return BlockOperator(self.mesh, self.matrix @ other.matrix)

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


@per_mesh
def _alternate_rule(mesh: BoundaryMesh) -> np.ndarray:
    """The alternate-point rule's weighted normals zeta_rho(n_j) W_pj / -omega (2, 2, N), row p = i % 2 for node i.

    Every curve the package builds is closed with even N, and its singular
    weights W_ij are 2 sigma_j at the odd offsets i - j and 0 at the even
    ones (the alternate-point trapezoid rule, exact on the circle's band),
    so node i's row of weights depends on i % 2 only.  Any other n = 2 mesh
    raises ValueError.
    """
    if mesh.theta is None or mesh.size % 2:
        raise ValueError("singular weights need a closed curve with an even node count")
    W = ((np.arange(2)[:, None] - np.arange(mesh.size)[None, :]) % 2).astype(float) * (2.0 * mesh.sigma)[None, :]
    return null_coordinates(mesh.normals).T[:, None, :] * (W / -omega(2))


def _reciprocals(dz: np.ndarray, skip, test: bool) -> np.ndarray:
    """1 / dz (2, M, N), written over the null differences dz, 0 at the pairs (m, skip[m]).

    The differences take the kernel's null test first (algebra.is_null_planar),
    with the skipped pairs parked off the cones, so this raises NullVectorError
    wherever cauchy_kernel does on a pair that is not skipped.  Callers that
    took the same test already pass test=False: the node pass, whose pairs
    validation tested (ValidationReport.null_pair), and the transforms at
    Interior points (_transform_blocks).
    """
    pairs = (slice(None), np.arange(dz.shape[1]), skip)
    if skip is not None:
        dz[pairs] = 1.0  # placeholder off the null cones
    if test and np.any(is_null_planar(dz)):
        raise NullVectorError("Cauchy kernel evaluated on the null cone")
    R = np.reciprocal(dz, out=dz)
    if skip is not None:
        R[pairs] = 0.0
    return R


def _node_factors(mesh: BoundaryMesh) -> np.ndarray:
    """The node factors -zeta_rho(n_j) / omega (2, N) of the planar kernel (n = 2), plane first."""
    return null_coordinates(mesh.normals).T * (1.0 / -omega(2))


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


def _spinor_rows(K: np.ndarray, mesh: BoundaryMesh) -> np.ndarray:
    """Spinor blocks (blocks, M s, N s) of the kernel values K of _kernel_rows (n = 3: the blocks of K n_j).

    For n = 2 they are the reciprocals R themselves, whose node factors ride
    in the columns (_weighted_columns).
    """
    return K if mesh.n == 2 else _vector_blocks(K, mesh.normals).reshape(1, 2 * K.shape[1], -1)


def _cauchy_rows(K: np.ndarray, mesh: BoundaryMesh, rows: np.ndarray) -> np.ndarray:
    """Rows of C's blocks (blocks, M s, N s) at the nodes `rows` (an index array).

    The one home of C's singular weights, written over the kernel values K
    of _kernel_rows(..., weighted=True), each row's own node skipped.  On
    curves block rho is R_rho (-zeta_rho(n_j) W_ij / omega): the
    alternate-point rule's weighted normals (_alternate_rule), gathered by
    the rows' parities, are written over the reciprocals R.  On surfaces
    the punctured rule's sigma_j are in K already, since they enter G W /
    omega before the product with the differences (_surface_rows), and the
    rows are K's blocks (_spinor_rows).
    """
    if mesh.n == 3:
        return _spinor_rows(K, mesh)
    # the weighted normals first and R second, in this order at every size
    return np.multiply(_alternate_rule(mesh)[:, rows % 2], K, out=K)


def _kernel_rows(mesh: BoundaryMesh, points: np.ndarray, skip=None, weighted: bool = False, test: bool = True):
    """Yield (rows, K), the kernel values of the row blocks of (M, n) points with the nodes, 0 at (m, skip[m]).

    The module's one pass over row blocks, and the one place where kernel
    values between points and nodes are formed; the sums take their spinor
    blocks from K (_spinor_rows, or _cauchy_rows for C's rows).  For n = 2
    K is the reciprocal null pairs R_rho = 1 / zeta_rho(p_m - z_j) (2, M, N)
    with zeta_0 = zeta and zeta_1 = eta (algebra.null_coordinates): block
    rho of the planar Cauchy kernel is R_rho (-zeta_rho(n_j) W_mj / 2 pi).
    The points' null coordinates are taken once per pass, and each block
    subtracts them as algebra.null_differences does.  For n = 3 K is (1 /
    omega) G(p_m - z_j) W_mj, component first (3, M, N) (_surface_rows),
    with W_mj the punctured rule's sigma_j when weighted and 1 otherwise;
    on curves weighted changes nothing, since C's weights there are written
    over R (_cauchy_rows).  Raises ValidationFailedError on a mesh that
    fails validate_domain_manifold, NullVectorError wherever
    cauchy_kernel(p_m - z_j) does on a pair that is not skipped, unless test
    is False (the n = 2 null test only; the n = 3 rows always take their
    origin test), and OddDimensionComplexError where the n = 3 differences
    are complex.
    """
    _validated(mesh)
    if mesh.n == 2:
        cp, cz = (np.ascontiguousarray(null_coordinates(x).T) for x in (points, mesh.nodes))
    for rows in row_blocks(points.shape[0], mesh.size):
        i = None if skip is None else skip[rows]
        if mesh.n == 2:
            yield rows, _reciprocals(cp[:, rows, None] - cz[:, None, :], i, test)
        else:
            yield rows, _surface_rows(mesh, points[rows], i, mesh.sigma if weighted else 1.0)


@per_mesh
def _operators(mesh: BoundaryMesh) -> tuple:
    """C and A as BlockOperators, from one pass of _kernel_rows over the node pairs.

    Each row block of kernel values, each node's own pair skipped, is taken
    once and dropped: for n = 2 the reciprocal null pairs R, for n = 3
    G(z_i - z_j) sigma_j / omega.  C's rows are _cauchy_rows of it, the
    blocks of G n_j with the singular weights (the alternate-point rule on
    curves, sigma_j off the diagonal on surfaces), A's rows those of the
    cancelled kernel G n_j + n_i G with the trapezoid weights sigma_j; A's
    diagonal blocks are its limit 0 (assemble_kerzman_stein).  C's diagonal
    blocks are then written from the rows just built, I/2 - sum_{j != i}
    block_ij (assemble_singular_cauchy).  Raises ValidationFailedError on a
    mesh that fails validate_domain_manifold.

    For n = 2, A's blocks are stored column-major, the layout LAPACK reads
    (hardy._kerzman_stein_lu).  A is skew-adjoint: its kernel S has S_rho[j,
    i] = -S_rhobar[i, j] bit for bit, so column i of A_rho, S_rho[j, i]
    sigma_i / -omega, is written as row i of its storage, S_rhobar[i, j]
    sigma_i / omega.  Negation is exact, so only zeros may differ in sign
    from a row-major build.  The node pairs' null test is validation's
    (ValidationReport.null_pair), so the pass leaves it out (test=False).
    """
    if mesh.n == 2:
        if _validated(mesh).null_pair:
            raise NullVectorError("Cauchy kernel evaluated on the null cone")
        zn = null_coordinates(mesh.normals).T
    sp, N = algebra(mesh.n).spinor, mesh.size
    C, A = np.empty((2, sp.blocks, N, sp.size, N, sp.size), dtype=complex)
    idx = np.arange(N)
    for rows, K in _kernel_rows(mesh, mesh.nodes, idx, weighted=True, test=False):
        i = idx[rows]
        if mesh.n == 2:
            # block rho of G(u) n_j + n_i G(u), u = w_i - z_j: left multiplication
            # by the vector n_i swaps the null planes, so it is
            # -zeta_rho(n_j) / zeta_rho(u) - zeta_rhobar(n_i) / zeta_rhobar(u), rhobar = 1 - rho;
            # R = K is antisymmetric with a zero diagonal, so S_1 = -S_0^T, bit for bit.
            # S holds minus the kernel; the sign goes into the weights.
            S = zn[:, None, :] * K
            S += zn[::-1, rows, None] * K[::-1]
            # A_rho's columns i, S_rhobar[i, j] sigma_i / omega, as rows of its storage
            np.multiply(S[::-1], (mesh.sigma[rows] / omega(2))[:, None], out=A[:, rows, 0, :, 0])
        # C's rows after A's: on curves _cauchy_rows writes them over R
        C[:, rows] = _cauchy_rows(K, mesh, i).reshape(sp.blocks, -1, sp.size, N, sp.size)
        if mesh.n == 3:
            np.add(_vector_blocks(K, mesh.normals[rows], left=True), C[:, rows], out=A[:, rows])
            A[:, i, :, i, :] = 0.0
        C[:, i, :, i, :] = 0.0
        if mesh.n == 2:
            # the block column axis is contiguous here, and numpy sums it pairwise
            sums = C[:, rows].sum(axis=3)
        else:
            # numpy sums this strided axis in order, in inner loops of two
            # entries; the running sum's last entry is that sum, bit for bit,
            # in one sweep along the axis
            sums = np.cumsum(C[:, rows], axis=3)[:, :, :, -1]
        C[:, i, :, i, :] = 0.5 * np.eye(sp.size) - sums.transpose(1, 0, 2, 3)
    C, A = (X.reshape(sp.blocks, N * sp.size, N * sp.size) for X in (C, A))
    if mesh.n == 2:
        A = A.transpose(0, 2, 1)  # the storage's rows are A's columns
    return BlockOperator(mesh, C), BlockOperator(mesh, A)


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


def _spinor_columns(mesh: BoundaryMesh, values) -> np.ndarray:
    """Spinor columns (blocks, N s, copies F) of the F node-value arrays g (N, d), column copy * F + function."""
    cols = np.stack([_to_spinor(g, mesh) for g in values], axis=-1)
    return cols.reshape(cols.shape[0], cols.shape[1], -1)


def _weighted_columns(mesh: BoundaryMesh, values) -> np.ndarray:
    """Spinor columns of sigma_j g_j for each of the F node-value arrays g, times the node factors for n = 2.

    The rows of _kernel_rows carry G n_j / omega for n = 3; for n = 2 they
    are the bare reciprocals R_rho, and plane rho of these columns carries
    -zeta_rho(n_j) / omega (_node_factors).  Either way _kernel_rows @
    columns is sum_j (1/omega) G(p - z_j) n_j sigma_j g_j.
    """
    cols = _spinor_columns(mesh, [g * mesh.sigma[:, None] for g in values])
    if mesh.n == 2:
        cols *= _node_factors(mesh)[:, :, None]
    return cols


def _apply_family(op: BlockOperator, family) -> list:
    """op f for every f of the family, from one product of op's blocks with the family's spinor columns.

    A family of one is BlockOperator.apply; a larger family differs from
    one-function products at rounding.
    """
    cols = _spinor_columns(op.mesh, [f.values for f in family])
    out = (op.matrix @ cols).reshape(cols.shape[0], cols.shape[1], -1, len(family))
    return [BoundaryFunction(f.mesh, _from_spinor(out[..., k], op.mesh)) for k, f in enumerate(family)]


def _spinor_norms(mesh: BoundaryMesh, vals: np.ndarray, interior: bool = False) -> np.ndarray:
    """(F, M) norms of the multivectors with spinor columns vals (blocks, M s, copies F); T is unitary.

    |v|^2 is re^2 + im^2.  With interior on a curve, vals are the interior
    form of _transform_blocks, num(1) last, and the norms are those of
    num(g) / num(1): each null plane's sum of squares is divided by
    |num(1)|^2 once per row.
    """
    sp = algebra(mesh.n).spinor
    barycentric = interior and mesh.n == 2
    sq = np.square(vals.real)
    sq += np.square(vals.imag)
    F = (sq.shape[-1] - barycentric) // sp.copies
    sq = sq.reshape(sp.blocks, -1, sp.size, sq.shape[-1])
    # each block's sum over its rows and copies, slice by slice
    planes = sum(sq[:, :, p, c * F : (c + 1) * F] for p in range(sp.size) for c in range(sp.copies))
    if barycentric:
        planes /= sq[:, :, 0, -1:]
    return np.sqrt(planes.sum(axis=0)).T


def _transform_blocks(mesh: BoundaryMesh, points: np.ndarray, cols: np.ndarray, interior: bool = False):
    """Yield (rows, spinor columns (blocks, M s, copies F)) of the sums num(g) at the row blocks of (M, n) points.

    num(g) = sum_j K(p, z_j) sigma_j g_j is one product of the _kernel_rows
    with cols, the _weighted_columns of g.  With interior the points are
    Interior (the kernel accepts every pair) and on curves g is S+ f: the
    null test is not taken again, and the transform is the barycentric form
    num(S+ f) / num(1) of each null plane, whose quadrature error near a
    node is a common factor of both sums and cancels (Helsing & Ojala, J.
    Comput. Phys. 227, 2008).  num(1) is then one more column of the same
    product, the last; nothing is divided here (_spinor_norms divides the
    norms).  On the sphere, whose S+ is first order, it is the plain sum
    num(f).
    """
    if interior and mesh.n == 2:
        cols = np.concatenate([cols, (_node_factors(mesh) * mesh.sigma)[:, :, None]], axis=-1)
    for rows, K in _kernel_rows(mesh, points, test=not interior):
        yield rows, _spinor_rows(K, mesh) @ cols


def _truncated_blocks(mesh: BoundaryMesh, cols: np.ndarray, dist: np.ndarray, radii):
    """Yield (rows, spinor columns) of the kernel sums over |z_m - z_j| > eps at the nodes, radius eps by radius.

    Each row block of nodes takes its kernel rows once, each node's own
    pair skipped (_kernel_rows), and every radius masks them by dist (N, N);
    cols are _weighted_columns.
    """
    sp = algebra(mesh.n).spinor
    N = mesh.size
    for rows, K in _kernel_rows(mesh, mesh.nodes, np.arange(N)):
        K = _spinor_rows(K, mesh).reshape(sp.blocks, -1, sp.size, N, sp.size)
        for eps in radii:
            yield rows, (K * (dist[rows] > eps)[:, None, :, None]).reshape(sp.blocks, -1, N * sp.size) @ cols


def cauchy_transform(mesh: BoundaryMesh, f: BoundaryFunction, w) -> np.ndarray:
    """Off-boundary Cauchy transform of f at the point w, as a coefficient array (d,).

    Raises NullVectorError where the kernel refuses a node pair, exactly at
    the points region_membership_many classifies NearBoundary.  Mixed points
    are evaluated: the transform is defined everywhere off the null cones of
    dM.  The naive quadrature is spectrally accurate away from dM and
    degrades like h/dist close to it; use cauchy_transform_points(...,
    subtract_node=...) for controlled near-boundary evaluation.
    """
    return cauchy_transform_points(mesh, f, np.asarray(w, dtype=complex)[None, :])[0]


def cauchy_transform_points(
    mesh: BoundaryMesh,
    f: BoundaryFunction,
    points: np.ndarray,
    subtract_node=None,
    interior: bool = True,
) -> np.ndarray:
    """Batch transform (M, d) at (M, n) points; optional singularity subtraction for near evaluation.

    Without subtract_node it is (1/omega) sum_j G(u - z_j) n_j f_j sigma_j
    at each point, from the row blocks of _transform_blocks.  With
    subtract_node[m] = i, one node index in [0, N) per point (ValueError
    otherwise), the value at points[m] is computed from the integrand
    G(u - z) n(z) (f(z) - f(z_i)) plus chi * f(z_i), where chi is 1 for
    interior targets and 0 for exterior ones.  The added term is exactly
    zero in the continuum, the subtraction removes the h/dist quadrature
    blow-up near z_i, and the quadrature weights are those of node i's row
    in the singular operator, so the s -> 0 limit reproduces the Nystrom
    boundary projection exactly: the sum runs on C's own rows (_cauchy_rows)
    over the kernel values of _kernel_rows with the pair (m, i) skipped; any
    other pair on the null cone raises NullVectorError, as the plain
    transform does.
    """
    points = np.asarray(points, dtype=complex).reshape(-1, mesh.n)
    sp = algebra(mesh.n).spinor
    if subtract_node is None:
        columns = _weighted_columns(mesh, [f.values])
        out = np.empty((columns.shape[0], points.shape[0] * sp.size, columns.shape[2]), dtype=complex)
        for rows, vals in _transform_blocks(mesh, points, columns):
            out[:, rows.start * sp.size : rows.stop * sp.size] = vals
        return _from_spinor(out, mesh)
    subtract_node = np.asarray(subtract_node, dtype=int)
    if subtract_node.shape != (points.shape[0],):
        raise ValueError(f"subtract_node needs one node per point ({points.shape[0]}), got shape {subtract_node.shape}")
    if np.any((subtract_node < 0) | (subtract_node >= mesh.size)):
        raise ValueError(f"subtract_node holds indices outside [0, {mesh.size})")
    F = _to_spinor(f.values, mesh).reshape(sp.blocks, mesh.size, sp.size, sp.copies)
    out = np.empty((sp.blocks, points.shape[0], sp.size, sp.copies), dtype=complex)
    for rows, K in _kernel_rows(mesh, points, subtract_node, weighted=True):
        K = _cauchy_rows(K, mesh, subtract_node[rows]).reshape(sp.blocks, -1, sp.size, mesh.size, sp.size)
        # sum_j K_mj (f_j - f_i), the difference taken in the spinor frame
        out[:, rows] = np.einsum("bmpjq,bmjqc->bmpc", K, F[:, None] - F[:, subtract_node[rows], None])
    chi = 1.0 if interior else 0.0
    return _from_spinor(out.reshape(sp.blocks, -1, sp.copies), mesh) + chi * f.values[subtract_node]
