"""Solvers with condition monitoring for the Kerzman-Stein systems, and the
dense products and QR of the Kerzman-Stein path.

factor LU-factors square matrices, such as the distinct spinor blocks of a
block-diagonal system, and estimates each one's 1-norm condition number
(LAPACK gecon).  gmres solves I + scale A over stored blocks A by GMRES
(Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986), with no factors and
no copy of A; its 1-norm condition estimate is the one gecon computes,
||I + scale A||_1 times Hager and Higham's estimate of the inverse's norm
(LAPACK zlacn2; Higham, ACM TOMS 14, 1988), taken from GMRES solves with
the matrix and its conjugate transpose.  Both records keep the largest
estimate over the blocks, and their check raises IllConditionedError when
it exceeds the caller's limit; a GMRES solve that misses its tolerance
raises it too.

This is the only module that imports scipy.linalg (on first use, so a
command with no dense solve loads no scipy), and every threaded dense BLAS
or LAPACK call of a verify or szego job goes through it: matmul for the
block products and qr for the smooth basis, next to the LU and its
solves and the products of GMRES.  numpy and scipy each load their own OpenBLAS, and each keeps its
own pool of worker threads that spin on after a call; a job that switched
between numpy's pool (its @ and QR) and scipy's pool (the LU) had the two
pools fight over the cores.  Calls too small to start a pool's threads
(d x d spinor frames, the k x k Gram eigenvalues) stay on numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Factorization",
    "GMRESSolver",
    "IllConditionedError",
    "factor",
    "gmres",
    "matmul",
    "qr",
]


COND_LIMIT = 1e8  # the default limit on a Kerzman-Stein system's condition estimate

# GMRES stops when every column's relative residual is at most GMRES_TOL,
# well below hardy.RESIDUAL_FLOOR, and gives up after GMRES_MAX_ITERATIONS
GMRES_TOL = 1e-14
GMRES_MAX_ITERATIONS = 50


class IllConditionedError(RuntimeError):
    def __init__(self, cond, message=None):
        super().__init__(message or f"condition estimate {cond:.3g} exceeds the allowed limit")
        self.cond = cond


@dataclass(frozen=True)
class Factorization:
    """LU factors (lu, piv) of square matrices, one pair per matrix, and their largest 1-norm condition estimate."""

    blocks: tuple
    cond: float

    def check(self, cond_limit: float) -> "Factorization":
        """Raise IllConditionedError when the estimate exceeds cond_limit."""
        if self.cond > cond_limit:
            raise IllConditionedError(self.cond)
        return self

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve matrix by matrix; rhs is a stack (matrices, n, ...)."""
        import scipy.linalg
        return np.stack([scipy.linalg.lu_solve(f, np.asarray(b, dtype=complex)) for f, b in zip(self.blocks, rhs)])


def factor(matrices) -> Factorization:
    """LU-factor square matrices and estimate their 1-norm condition numbers (LAPACK gecon).

    A column-major matrix is overwritten by its LU factors; any other is
    copied first.  No limit is applied here: the caller applies its own
    with Factorization.check.
    """
    import scipy.linalg
    blocks, conds = [], []
    for matrix in matrices:
        if not matrix.flags.f_contiguous:
            matrix = np.array(matrix, order="F")
        # LAPACK lange sums each column in row order, as numpy's 1-norm of a
        # row-major matrix does, and it is taken before getrf overwrites matrix
        (lange,) = scipy.linalg.get_lapack_funcs(("lange",), (matrix,))
        anorm = lange("1", matrix)
        lu, piv = scipy.linalg.lu_factor(matrix, overwrite_a=True)
        rcond, info = scipy.linalg.lapack.zgecon(lu, anorm, norm="1")
        if info != 0:
            raise RuntimeError(f"zgecon failed with info={info}")
        blocks.append((lu, piv))
        conds.append(float(1.0 / max(rcond, np.finfo(float).tiny)))
    return Factorization(tuple(blocks), max(conds))


@dataclass
class GMRESSolver:
    """GMRES on the systems I + scale A_k, one per stored block A_k, and their largest 1-norm condition estimate.

    The interface is Factorization's.  iterations and residuals hold, solve
    by solve (the condition estimate's solves first), the iterations taken
    and the largest relative residual reached over the blocks and columns.
    """

    blocks: np.ndarray
    scale: float
    cond: float = float("nan")
    iterations: list = field(default_factory=list)
    residuals: list = field(default_factory=list)

    def check(self, cond_limit: float) -> "GMRESSolver":
        """Raise IllConditionedError when the estimate exceeds cond_limit."""
        if self.cond > cond_limit:
            raise IllConditionedError(self.cond)
        return self

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve block by block; rhs is a stack (blocks, n, ...), all columns of a block in lockstep."""
        out, steps, worst = [], 0, 0.0
        for A, b in zip(self.blocks, rhs):
            b = np.asarray(b, dtype=complex)
            x, k, res = _gmres(A, self.scale, b.reshape(b.shape[0], -1))
            out.append(x.reshape(b.shape))
            steps, worst = max(steps, k), max(worst, res)
        self.iterations.append(steps)
        self.residuals.append(worst)
        return np.stack(out)


def gmres(matrices: np.ndarray, scale: float) -> GMRESSolver:
    """GMRES solver of I + scale A over the blocks A (blocks, n, n), with its 1-norm condition estimate.

    Each block's diagonal must be 0, so that ||I + scale A||_1 = 1 +
    |scale| max_j sum_i |A_ij|; the Kerzman-Stein operator's diagonal blocks
    are.  The inverse's norm is estimated as LAPACK zlacn2 does, from GMRES
    solves with the system and with its conjugate transpose.  Each product
    is one zgemm on A in place, with A's transpose and conjugate flags.
    """
    solver = GMRESSolver(matrices, scale)
    conds = []
    for A in matrices:
        anorm = 1.0 + abs(scale) * float(np.max(np.sum(np.abs(A), axis=0)))
        conds.append(anorm * _inverse_norm_estimate(solver, A))
    solver.cond = max(conds)
    return solver


def _inverse_norm_estimate(solver: GMRESSolver, A: np.ndarray) -> float:
    """Hager and Higham's estimate of ||(I + scale A)^{-1}||_1, as LAPACK zlacn2 computes it."""

    def solve(x, adjoint=False):
        x, k, res = _gmres(A, solver.scale, x[:, None], adjoint)
        solver.iterations.append(k)
        solver.residuals.append(res)
        return x[:, 0]

    def sign(x):
        a = np.abs(x)
        return np.divide(x, a, out=np.ones_like(x), where=a > np.finfo(float).tiny)

    n = A.shape[0]
    x = solve(np.full(n, 1.0 / n, dtype=complex))
    est = np.sum(np.abs(x))
    if n == 1:
        return float(est)
    x = solve(sign(x), adjoint=True)
    j = int(np.argmax(np.abs(x)))
    for _ in range(4):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        x = solve(e)
        est, old = np.sum(np.abs(x)), est
        if est <= old:
            break
        x = solve(sign(x), adjoint=True)
        j, last = int(np.argmax(np.abs(x))), j
        if np.abs(x[last]) == np.abs(x[j]):
            break
    alternating = (1.0 + np.arange(n) / (n - 1)) * (-1.0) ** np.arange(n)
    return float(max(est, 2.0 * np.sum(np.abs(solve(alternating.astype(complex)))) / (3.0 * n)))


def _product(A: np.ndarray, scale: float, v: np.ndarray, adjoint: bool) -> np.ndarray:
    """(I + scale A) v, or (I + scale A)^H v, for a real scale and v (n, m), as one zgemm on A in place.

    As in matmul, zgemm forms the transposed product v^T op(A)^T, taking
    the row-major A as its column-major transpose; the conjugate flag on it
    gives conj(A) = (A^H)^T.  A must be row-major: GMRES serves surfaces
    only, whose A operators stores row-major (a curve's is column-major).
    """
    from scipy.linalg.blas import zgemm
    vt = np.ascontiguousarray(v).T
    return zgemm(scale, vt, A.T, beta=1.0, c=vt, trans_b=2 if adjoint else 0).T


def _gmres(A: np.ndarray, scale: float, b: np.ndarray, adjoint: bool = False):
    """(x, iterations, largest relative residual) of GMRES on (I + scale A) x = b, or on its adjoint, for b (n, m).

    The columns advance in lockstep, one product per iteration, each in its
    own Krylov space (modified Gram-Schmidt, Givens rotations), from x = 0,
    until every relative residual is at most GMRES_TOL.  Raises
    IllConditionedError when a column's Krylov space closes before it
    converges (the system is singular there) or when GMRES_MAX_ITERATIONS
    pass.
    """
    beta = np.sqrt(np.sum(np.abs(b) ** 2, axis=0))
    norm_b = np.where(beta > 0, beta, 1.0)  # a zero column has the solution 0
    V, R, rotations = [b / norm_b], [], []
    g = [beta.astype(complex)]
    for k in range(GMRES_MAX_ITERATIONS):
        w = _product(A, scale, V[k], adjoint)
        h = np.empty((k + 2, b.shape[1]), dtype=complex)
        for i, v in enumerate(V):
            h[i] = np.sum(v.conj() * w, axis=0)
            w -= h[i] * v
        hnext = np.sqrt(np.sum(np.abs(w) ** 2, axis=0))
        h[k + 1] = hnext
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c.conj() * h[i] + s.conj() * h[i + 1], c * h[i + 1] - s * h[i]
        r = np.sqrt(np.abs(h[k]) ** 2 + np.abs(h[k + 1]) ** 2)
        # a zero column (r = 0) leaves its residual where it was
        c = np.divide(h[k], r, out=np.zeros_like(h[k]), where=r > 0)
        s = np.divide(h[k + 1], r, out=np.ones_like(h[k]), where=r > 0)
        rotations.append((c, s))
        h[k] = r
        R.append(h[: k + 1])
        g.append(-s * g[k])
        g[k] = c.conj() * g[k]
        residual = np.abs(g[k + 1]) / norm_b
        worst = float(np.max(residual, initial=0.0))
        if worst <= GMRES_TOL:
            return _back_substitute(V, R, g, k), k + 1, worst
        if np.any((hnext == 0) & (residual > GMRES_TOL)):
            raise IllConditionedError(
                float("inf"), f"GMRES broke down after {k + 1} iterations at relative residual {worst:.3g}: the system is singular"
            )
        V.append(np.divide(w, hnext, out=np.zeros_like(w), where=hnext > 0))
    raise IllConditionedError(
        float("inf"), f"GMRES reached relative residual {worst:.3g} after {GMRES_MAX_ITERATIONS} iterations, above {GMRES_TOL:g}"
    )


def _back_substitute(V, R, g, k):
    """x = sum_i y_i V_i with the upper triangular R y = g solved per column; R[l][i] is entry (i, l)."""
    y = [None] * (k + 1)
    for i in range(k, -1, -1):
        t = g[i] - sum(R[l][i] * y[l] for l in range(i + 1, k + 1))
        y[i] = np.divide(t, R[i][i], out=np.zeros_like(t), where=R[i][i] != 0)
    return sum(yi * v for yi, v in zip(y, V))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for complex stacks (blocks, m, k) and (blocks, k, p), bit for bit.

    Each block goes to zgemm as (b^T a^T)^T, in the layout numpy's row-major
    @ hands to cblas: a row-major block goes as its transpose, which is
    column-major, and a column-major block as itself with zgemm's transpose
    flag.  Neither is copied, broadcast stacks (stride 0 over the blocks)
    included.  On one thread the product is numpy's bit for bit.  Threaded,
    scipy's OpenBLAS splits some small products differently from numpy's
    (50 x 128 times 128 x 50 differs in the last bits); the products of the
    verify and szego jobs are still numpy's bit for bit.
    """
    from scipy.linalg.blas import zgemm
    out = []
    for ak, bk in zip(a, b):
        (at, ta), (bt, tb) = _transposed(ak), _transposed(bk)
        out.append(zgemm(1.0, bt, at, trans_a=tb, trans_b=ta).T)
    return np.stack(out)


def _transposed(x: np.ndarray):
    """(y, t) with op_t(y) = x^T and y column-major when x is row- or column-major."""
    return (x.T, 0) if x.strides[-1] == x.itemsize else (x, 1)


def qr(a: np.ndarray):
    """Reduced QR factorization (Q, R) of a tall matrix."""
    import scipy.linalg
    return scipy.linalg.qr(a, mode="economic")
