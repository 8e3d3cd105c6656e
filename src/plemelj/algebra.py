"""Clifford algebra engine for Cl_n and its complexification.

The algebra is generated by e_1..e_n with e_i e_j + e_j e_i = -2 delta_ij,
so every basis vector squares to -1.  Elements are stored as coefficient
vectors of length 2**n over the blades, ordered by grade and
lexicographically within each grade (scalar, e_1..e_n, e_12, e_13, ...).

Products, the bar antiautomorphism, left/right multiplication matrices and
the vector-valued Cauchy kernel are all driven by small precomputed tables;
everything is branch-free and vectorizes over leading array axes.

The Cauchy kernel's domain is decided here alone: it refuses u with
|square(u)| <= NULL_TOL (1 + |u|^2), and for odd n it takes only real u,
max |Im u| <= REAL_TOL (1 + max |Re u|), the maxima over the differences
u = p - z_j of each point p (_check_real_pairs).  The n = 2
operators and regions take the null test from null coordinates
(is_null_planar), the n = 3 ones take differences, real test and origin
test from _real_differences.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

__all__ = [
    "CliffordAlgebra",
    "NullVectorError",
    "OddDimensionComplexError",
    "algebra",
    "cauchy_kernel",
    "is_null",
    "is_null_planar",
    "null_coordinates",
    "null_differences",
    "null_magnitudes",
    "null_tolerance",
    "vector_inverse",
    "vector_square",
]


NULL_TOL = 1e-12  # the kernel refuses u with |square(u)| <= NULL_TOL (1 + |u|^2)
REAL_TOL = 1e-14  # and takes u as real when max |Im u| <= REAL_TOL (1 + max |Re u|)


class NullVectorError(ValueError):
    """Raised when a vector on (or numerically on) the null cone is inverted."""


class OddDimensionComplexError(ValueError):
    """Raised when the complex Cauchy kernel is requested for odd n."""


def _reorder_sign(a: int, b: int) -> int:
    # Number of transpositions needed to merge blade bitmasks a and b
    # into canonical ascending order; each transposition contributes -1.
    a >>= 1
    total = 0
    while a:
        total += bin(a & b).count("1")
        a >>= 1
    return -1 if total & 1 else 1


class CliffordAlgebra:
    """Multiplication tables and involution signs for one dimension n."""

    def __init__(self, n: int):
        if not 2 <= n <= 5:
            raise ValueError(f"dimension n must be in 2..5, got {n}")
        self.n = n
        self.dim = 1 << n

        masks = sorted(range(self.dim), key=lambda m: (bin(m).count("1"), _bits(m)))
        self.blade_index = {m: i for i, m in enumerate(masks)}
        self.blades = tuple(_bits(m) for m in masks)
        self.grades = np.array([len(b) for b in self.blades], dtype=np.int64)

        d = self.dim
        sign = np.zeros((d, d))
        target = np.zeros((d, d), dtype=np.int64)
        for i, mi in enumerate(masks):
            for j, mj in enumerate(masks):
                s = _reorder_sign(mi, mj)
                # metric: each shared basis vector squares to -1
                if bin(mi & mj).count("1") & 1:
                    s = -s
                sign[i, j] = s
                target[i, j] = self.blade_index[mi ^ mj]

        structure = np.zeros((d, d, d))
        ii, jj = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        structure[ii, jj, target] = sign
        self.structure = structure

        # grade-1 slots and left-multiplication matrices of the generators
        self.vector_slots = np.array(
            [self.blade_index[1 << k] for k in range(n)], dtype=np.int64
        )
        self.generator_left = np.stack(
            [self.left_matrix(self._unit_coeffs(s)) for s in self.vector_slots]
        )

        g = self.grades
        self.bar_signs = np.where((g * (g + 1) // 2) % 2 == 0, 1.0, -1.0)

    def _unit_coeffs(self, slot: int) -> np.ndarray:
        c = np.zeros(self.dim, dtype=complex)
        c[slot] = 1.0
        return c

    # -- core operations on coefficient arrays (..., dim) ------------------

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Geometric product, vectorized over leading axes."""
        return np.einsum("...i,...j,ijk->...k", a, b, self.structure)

    def bar(self, a: np.ndarray) -> np.ndarray:
        """The grade-signed antiautomorphism: e_j1..e_jr -> (-1)^r e_jr..e_j1."""
        return a * self.bar_signs

    def norm(self, a: np.ndarray):
        return np.sqrt(np.sum(np.abs(a) ** 2, axis=-1))

    def left_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix L with L @ coeffs(b) = coeffs(a b)."""
        return np.einsum("...i,ijk->...kj", a, self.structure)

    def right_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix R with R @ coeffs(b) = coeffs(b a)."""
        return np.einsum("...j,ijk->...ki", a, self.structure)

    def left_vector_matrix(self, v: np.ndarray) -> np.ndarray:
        """Left matrix of a grade-1 element given by components (..., n)."""
        return np.einsum("...l,lab->...ab", v, self.generator_left)

    def embed_vector(self, v: np.ndarray) -> np.ndarray:
        """Components (..., n) -> coefficient array (..., dim)."""
        v = np.asarray(v, dtype=complex)
        out = np.zeros(v.shape[:-1] + (self.dim,), dtype=complex)
        out[..., self.vector_slots] = v
        return out

    def vector_part(self, a: np.ndarray) -> np.ndarray:
        return np.asarray(a, dtype=complex)[..., self.vector_slots]

    @functools.cached_property
    def spinor(self) -> "SpinorReduction":
        """Block-diagonal frame of left multiplication by even elements (built on first use)."""
        return SpinorReduction(self)


class SpinorReduction:
    """Left multiplication by even elements, split over the irreducible modules of Cl_n^+(C).

    The columns of the unitary T are ordered (block, copy, row): for every
    even a, T^H L(a) T is block-diagonal with `blocks` distinct size x size
    blocks (two for even n, one for odd n), each repeated `copies` times
    identically.  Everything comes from the multiplication tables: the
    columns are the joint eigenvectors of the commuting involutions L(J_k)
    and R(J_k), J_k = i e_{2k-1} e_{2k} (times the central L(e_1..e_n) for
    odd n); the L labels index the rows of a block, the others its copies,
    and every copy is the image of the first one under a signed-permutation
    intertwiner R(e_b) or Pi R(e_b), Pi the grade involution, so the copies
    agree entry for entry.
    """

    def __init__(self, alg: CliffordAlgebra):
        n, d = alg.n, alg.dim
        pairs = [alg.blade_index[0b11 << 2 * k] for k in range(n // 2)]
        left = [alg.left_matrix(_involution(alg, s)) for s in pairs]
        copy_ops = [alg.right_matrix(_involution(alg, s)) for s in pairs]
        if n % 2:
            copy_ops.append(alg.left_matrix(_involution(alg, d - 1)))
        vec = {}
        eye = np.eye(d)
        for labels in itertools.product((1, -1), repeat=len(left) + len(copy_ops)):
            P = eye.astype(complex)
            for sign, M in zip(labels, left + copy_ops):
                P = P @ (eye + sign * M) / 2
            col = int(np.argmax(np.sum(np.abs(P) ** 2, axis=0)))
            vec[labels] = P[:, col] / np.linalg.norm(P[:, col])
        grade_sign = np.where(alg.grades % 2, -1.0, 1.0)
        movers = [alg.right_matrix(alg._unit_coeffs(b)) for b in range(d)]
        movers += [grade_sign[:, None] * M for M in movers]

        h = len(left)
        rows_of = {}  # block -> L-label patterns (rows), in order
        for lab in itertools.product((1, -1), repeat=h):
            rows_of.setdefault(0 if n % 2 else int(np.prod(lab) < 0), []).append(lab)
        copies = list(itertools.product((1, -1), repeat=len(copy_ops)))
        cols, ref = [], []
        for rows in rows_of.values():
            U0 = np.stack([vec[lab + copies[0]] for lab in rows], axis=1)
            ref.append(U0)
            for c in copies:
                target = vec[rows[0] + c]
                X = next(M for M in movers if abs(np.vdot(target, M @ U0[:, 0])) > 0.5)
                cols.append(X @ U0)
        self.T = np.concatenate(cols, axis=1)
        self.blocks = len(rows_of)
        self.size = len(rows)
        self.copies = len(copies)

        # B_rho(e_b) = U0^H L(e_b) U0; only even blades act alike on every copy
        even = np.zeros((d, self.blocks, self.size, self.size), dtype=complex)
        for b in np.flatnonzero(alg.grades % 2 == 0):
            Lb = alg.left_matrix(alg._unit_coeffs(b))
            even[b] = [U.conj().T @ Lb @ U for U in ref]
        self.even = even
        vs = alg.vector_slots
        # B_rho(e_l e_m) for grade-1 pairs, the blocks of L(u) L(v)
        self.vector_pairs = np.einsum("lmb,brpq->lmrpq", alg.structure[vs][:, vs], even)


def _involution(alg: CliffordAlgebra, slot: int) -> np.ndarray:
    """The blade at slot, scaled by 1 or i so that it squares to +1."""
    c = alg._unit_coeffs(slot)
    return c if alg.product(c, c)[0].real > 0 else 1j * c


def _bits(mask: int):
    return tuple(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


@functools.lru_cache(maxsize=None)
def algebra(n: int) -> CliffordAlgebra:
    """Shared per-dimension algebra instance."""
    return CliffordAlgebra(n)


# -- vector helpers (components of grade-1 elements, shape (..., n)) ---------


def vector_square(z: np.ndarray):
    """Clifford square of a vector: z^2 = -sum z_j^2 (a complex scalar)."""
    z = np.asarray(z, dtype=complex)
    return -np.sum(z * z, axis=-1)


def null_tolerance(z: np.ndarray):
    """The kernel's null-cone tolerance NULL_TOL * (1 + |z|^2)."""
    z = np.asarray(z, dtype=complex)
    return NULL_TOL * (1.0 + np.sum(np.abs(z) ** 2, axis=-1))


def is_null(z: np.ndarray):
    """Whether z lies on the null cone to within null_tolerance."""
    return np.abs(vector_square(z)) <= null_tolerance(z)


def null_coordinates(z: np.ndarray) -> np.ndarray:
    """Null coordinates (zeta, eta) = (z1 + i z2, z1 - i z2) of n = 2 vectors (..., 2), on the last axis.

    square(z) = -zeta eta and |z|^2 = (|zeta|^2 + |eta|^2) / 2.  Spinor block 0
    of an even element pairs with zeta, block 1 with eta: block rho of
    G(u) n is -zeta_rho(n) / zeta_rho(u), the planar Cauchy kernel.
    """
    z = np.asarray(z, dtype=complex)
    return np.stack([z[..., 0] + 1j * z[..., 1], z[..., 0] - 1j * z[..., 1]], axis=-1)


def null_differences(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """zeta_rho(p_m - z_j) of (M, 2) points p and (N, 2) points z, plane first and contiguous: (2, M, N).

    Every use is elementwise (the null test, reciprocals, products), so each
    plane is one contiguous (M, N) array for the operations that follow.
    """
    cp, cz = (np.ascontiguousarray(null_coordinates(x).T) for x in (p, z))
    out = np.empty((2, cp.shape[1], cz.shape[1]), dtype=complex)
    for k in range(2):
        np.subtract(cp[k][:, None], cz[k][None, :], out=out[k])
    return out


def null_magnitudes(d: np.ndarray):
    """|square(u)| and |u|^2 of n = 2 vectors u given by their null coordinates d = (zeta(u), eta(u)), plane first."""
    sq = np.abs(d[0] * d[1])
    a = np.abs(d)  # |u|^2 from the squared magnitudes of both planes, not from re^2 + im^2
    np.square(a, out=a)
    r2 = np.add(a[0], a[1], out=a[0])
    r2 *= 0.5
    return sq, r2


def is_null_planar(d: np.ndarray) -> np.ndarray:
    """is_null of n = 2 vectors given by their null coordinates d, plane first: |square(u)| <= NULL_TOL (1 + |u|^2)."""
    sq, tol = null_magnitudes(d)
    tol += 1.0
    tol *= NULL_TOL
    return sq <= tol


def vector_inverse(z: np.ndarray) -> np.ndarray:
    """Inverse of a non-null vector: z / z^2 (equals -x/|x|^2 on real vectors)."""
    z = np.asarray(z, dtype=complex)
    s = vector_square(z)
    if np.any(is_null(z)):
        raise NullVectorError("vector (numerically) on the null cone has no inverse")
    return z / s[..., None]


def _check_real_pairs(points: np.ndarray, nodes: np.ndarray) -> bool:
    """Whether the kernel takes every difference p_m - z_j of (M, n) points and (N, n) nodes as real.

    Real means max |Im| <= REAL_TOL (1 + max |Re|) for every point, the
    maxima over its pairs and components, taken from the nodes' extremes
    (rounding is monotone), so no difference is formed and no point's
    decision depends on the others.  Complex differences raise
    OddDimensionComplexError for odd n, where the kernel has no complex
    values, and give False for even n.
    """
    if points.size == 0 or nodes.size == 0:
        return True  # no pairs
    a, b = (np.stack([x.real, x.imag]) for x in (points, nodes))
    # max_j |a_m - b_j| over the components for each point m, of the real and of the imaginary parts
    lo, hi = b.min(axis=1, keepdims=True), b.max(axis=1, keepdims=True)
    re, im = np.max(np.maximum(a - lo, hi - a), axis=2)
    if np.all(im <= REAL_TOL * (1.0 + re)):
        return True
    if points.shape[-1] % 2:
        raise OddDimensionComplexError("complex Cauchy kernel is single-valued only for even n")
    return False


def _real_differences(points: np.ndarray, nodes: np.ndarray):
    """The kernel's n = 3 arguments x = p_m - z_j, component first (3, M, N), |x|^2 (M, N), and the pairs it refuses.

    The refused pairs are those at the origin, |x|^2 <= NULL_TOL (1 + |x|^2).
    Raises OddDimensionComplexError unless the differences are real
    (_check_real_pairs); their imaginary parts are dropped.
    """
    _check_real_pairs(points, nodes)
    p, z = (np.ascontiguousarray(a.real.T) for a in (points, nodes))
    x = p[:, :, None] - z[:, None, :]  # component first in memory too
    r2 = np.sum(x * x, axis=0)
    return x, r2, r2 <= NULL_TOL * (1.0 + r2)


def cauchy_kernel(z: np.ndarray) -> np.ndarray:
    """Vector-valued Cauchy kernel, as grade-1 components.

    Real arguments (_check_real_pairs) use x / |x|^n for any n in 2..5.
    Complex arguments require even n, where (-1)^(n/2) * z * (z^2)^(-n/2) is
    a rational, single-valued function of z off the null cone.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    if _check_real_pairs(z.reshape(-1, n), np.zeros((1, n))):
        x = z.real
        r2 = np.sum(x * x, axis=-1)
        if np.any(r2 <= null_tolerance(z)):
            raise NullVectorError("Cauchy kernel evaluated at the origin")
        return (x / r2[..., None] ** (n / 2)).astype(complex)
    s = vector_square(z)
    if np.any(np.abs(s) <= null_tolerance(z)):
        raise NullVectorError("Cauchy kernel evaluated on the null cone")
    return (-1.0) ** (n // 2) * z * s[..., None] ** (-(n // 2))
