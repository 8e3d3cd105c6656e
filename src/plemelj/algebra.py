"""Clifford algebra engine for Cl_n and its complexification.

The algebra is generated by e_1..e_n with e_i e_j + e_j e_i = -2 delta_ij,
so every basis vector squares to -1.  Elements are stored as coefficient
vectors of length 2**n over the blades, ordered by grade and
lexicographically within each grade (scalar, e_1..e_n, e_12, e_13, ...).

Products, the bar antiautomorphism, the star conjugation, left/right
multiplication matrices and the vector-valued Cauchy kernel are all driven
by small precomputed tables; everything is branch-free and vectorizes over
leading array axes.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

__all__ = [
    "CliffordAlgebra",
    "Multivector",
    "NullVectorError",
    "OddDimensionComplexError",
    "algebra",
    "cauchy_kernel",
    "dirac_residual",
    "is_null",
    "null_coordinates",
    "null_differences",
    "null_tolerance",
    "vector_inverse",
    "vector_square",
]


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
        self.blade_masks = tuple(masks)
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
        self.sign_table = sign
        self.index_table = target

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
        self.generator_right = np.stack(
            [self.right_matrix(self._unit_coeffs(s)) for s in self.vector_slots]
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

    def star(self, a: np.ndarray) -> np.ndarray:
        """Componentwise complex conjugation composed with bar."""
        return np.conj(a) * self.bar_signs

    def scalar_part(self, a: np.ndarray):
        return a[..., 0]

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

    def grade_select(self, a: np.ndarray, grade: int) -> np.ndarray:
        out = np.array(a, dtype=complex)
        out[..., self.grades != grade] = 0.0
        return out

    def blade_name(self, index: int) -> str:
        bits = self.blades[index]
        return "1" if not bits else "e" + "".join(str(b) for b in bits)

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

    def reduce(self, coeffs: np.ndarray) -> np.ndarray:
        """Blocks B_rho(a) of even elements: (..., dim) -> (..., blocks, size, size)."""
        return np.einsum("...b,brpq->...rpq", coeffs, self.even)


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


class Multivector:
    """A single element of Cl_n(C): thin wrapper over a coefficient vector."""

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg: CliffordAlgebra, coeffs):
        self.alg = alg
        c = np.asarray(coeffs, dtype=complex)
        if c.shape != (alg.dim,):
            raise ValueError(f"expected {alg.dim} coefficients, got shape {c.shape}")
        self.coeffs = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def scalar(cls, n: int, value=1.0) -> "Multivector":
        alg = algebra(n)
        c = np.zeros(alg.dim, dtype=complex)
        c[0] = value
        return cls(alg, c)

    @classmethod
    def from_vector(cls, components) -> "Multivector":
        components = np.asarray(components, dtype=complex)
        alg = algebra(components.shape[-1])
        return cls(alg, alg.embed_vector(components))

    @classmethod
    def basis(cls, n: int, *indices: int) -> "Multivector":
        alg = algebra(n)
        mask = 0
        for k in indices:
            mask ^= 1 << (k - 1)
        c = np.zeros(alg.dim, dtype=complex)
        c[alg.blade_index[mask]] = 1.0
        return cls(alg, c)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Multivector"):
        if self.alg.n != other.alg.n:
            raise ValueError("dimension mismatch between multivectors")

    def __add__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            return Multivector(self.alg, self.coeffs + other.coeffs)
        return Multivector(self.alg, self.coeffs + Multivector.scalar(self.alg.n, other).coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __rsub__(self, other):
        return (-1) * self + other

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            return Multivector(self.alg, self.alg.product(self.coeffs, other.coeffs))
        return Multivector(self.alg, self.coeffs * other)

    def __rmul__(self, other):
        # scalars commute; multivector * multivector goes through __mul__
        return Multivector(self.alg, self.coeffs * other)

    def __neg__(self):
        return Multivector(self.alg, -self.coeffs)

    # -- involutions and parts ----------------------------------------------

    def bar(self) -> "Multivector":
        return Multivector(self.alg, self.alg.bar(self.coeffs))

    def star(self) -> "Multivector":
        return Multivector(self.alg, self.alg.star(self.coeffs))

    def norm(self) -> float:
        return float(self.alg.norm(self.coeffs))

    @property
    def scalar_part(self) -> complex:
        return complex(self.coeffs[0])

    @property
    def vector_components(self) -> np.ndarray:
        return self.alg.vector_part(self.coeffs)

    def is_vector(self, tol: float = 1e-12) -> bool:
        mask = self.alg.grades != 1
        return bool(np.all(np.abs(self.coeffs[mask]) <= tol))

    def inverse(self) -> "Multivector":
        """Multiplicative inverse of a grade-1 element (Kelvin-type inverse)."""
        v = self.vector_components
        if not self.is_vector(1e-10 * (1 + self.norm())):
            raise ValueError("inverse implemented for grade-1 elements only")
        return Multivector.from_vector(vector_inverse(v))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if abs(c) > 1e-14:
                terms.append(f"({c:.4g})*{self.alg.blade_name(i)}")
        return " + ".join(terms) if terms else "0"


# -- vector helpers (components of grade-1 elements, shape (..., n)) ---------


def vector_square(z: np.ndarray):
    """Clifford square of a vector: z^2 = -sum z_j^2 (a complex scalar)."""
    z = np.asarray(z, dtype=complex)
    return -np.sum(z * z, axis=-1)


def null_tolerance(z: np.ndarray):
    """Scale-invariant null-cone tolerance 1e-12 * (1 + |z|^2)."""
    z = np.asarray(z, dtype=complex)
    return 1e-12 * (1.0 + np.sum(np.abs(z) ** 2, axis=-1))


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
    """zeta_rho(p_m - z_j) of (M, 2) points p and (N, 2) points z, plane first: (2, M, N)."""
    cp, cz = null_coordinates(p).T, null_coordinates(z).T
    return cp[:, :, None] - cz[:, None, :]


def vector_inverse(z: np.ndarray) -> np.ndarray:
    """Inverse of a non-null vector: z / z^2 (equals -x/|x|^2 on real vectors)."""
    z = np.asarray(z, dtype=complex)
    s = vector_square(z)
    if np.any(is_null(z)):
        raise NullVectorError("vector (numerically) on the null cone has no inverse")
    return z / s[..., None]


def cauchy_kernel(z: np.ndarray) -> np.ndarray:
    """Vector-valued Cauchy kernel, as grade-1 components.

    Real arguments use x / |x|^n for any n in 2..5.  Complex arguments
    require even n, where (-1)^(n/2) * z * (z^2)^(-n/2) is a rational,
    single-valued function of z off the null cone.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    if np.max(np.abs(z.imag), initial=0.0) <= 1e-14 * (1.0 + np.max(np.abs(z.real), initial=0.0)):
        x = z.real
        r2 = np.sum(x * x, axis=-1)
        if np.any(r2 <= null_tolerance(z)):
            raise NullVectorError("Cauchy kernel evaluated at the origin")
        return (x / r2[..., None] ** (n / 2)).astype(complex)
    if n % 2:
        raise OddDimensionComplexError(
            "complex Cauchy kernel is single-valued only for even n"
        )
    s = vector_square(z)
    if np.any(np.abs(s) <= null_tolerance(z)):
        raise NullVectorError("Cauchy kernel evaluated on the null cone")
    return (-1.0) ** (n // 2) * z * s[..., None] ** (-(n // 2))


def dirac_residual(
    f,
    n: int,
    half_width: float = 0.5,
    points: int = 7,
    side: str = "left",
    complex_step: bool = False,
):
    """Max norm of the finite-difference Dirac derivative over a grid.

    f maps a coordinate array (..., n) to coefficient arrays (..., 2**n).
    The grid is the real box [-half_width, half_width]^n with `points`
    nodes per axis; derivatives are centered differences (complex_step
    samples the holomorphic extension along imaginary offsets instead).
    side selects sum e_j d_j f (left) or sum (d_j f) e_j (right).
    """
    if points < 3:
        raise ValueError("grid too small: need at least 3 points per axis")
    alg = algebra(n)
    axes = [np.linspace(-half_width, half_width, points)] * n
    h = axes[0][1] - axes[0][0]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    mats = alg.generator_left if side == "left" else alg.generator_right
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")

    interior = tuple(slice(1, -1) for _ in range(n))
    total = None
    if complex_step:
        base = grid.astype(complex)
    else:
        vals = np.asarray(f(grid), dtype=complex)
    for k in range(n):
        if complex_step:
            step = np.zeros(n, dtype=complex)
            step[k] = 1j * h
            dk = (np.asarray(f(base + step)) - np.asarray(f(base - step))) / (2j * h)
            dk = dk[interior]
        else:
            up = tuple(slice(2, None) if j == k else slice(1, -1) for j in range(n))
            dn = tuple(slice(0, -2) if j == k else slice(1, -1) for j in range(n))
            dk = (vals[up] - vals[dn]) / (2 * h)
        term = np.einsum("ab,...b->...a", mats[k], dk)
        total = term if total is None else total + term
    return float(np.max(alg.norm(total)))
