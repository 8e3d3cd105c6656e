"""Dense LU factorizations with condition monitoring, and the dense products
and QR of the Kerzman-Stein path.

factor LU-factors square matrices, such as the distinct spinor blocks of a
block-diagonal system, and estimates each one's 1-norm condition number
(LAPACK gecon).  Its record keeps the largest estimate, and its check
raises IllConditionedError when that exceeds the caller's limit.

This is the only module that imports scipy.linalg (on first use, so a
command with no dense solve loads no scipy), and every threaded dense BLAS
or LAPACK call of a verify or szego job goes through it: matmul for the
block products and qr for the smooth basis, next to the LU and its
solves.  numpy and scipy each load their own OpenBLAS, and each keeps its
own pool of worker threads that spin on after a call; a job that switched
between numpy's pool (its @ and QR) and scipy's pool (the LU) had the two
pools fight over the cores.  Calls too small to start a pool's threads
(d x d spinor frames, the k x k Gram eigenvalues) stay on numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Factorization",
    "IllConditionedError",
    "factor",
    "matmul",
    "qr",
]


class IllConditionedError(RuntimeError):
    def __init__(self, cond):
        super().__init__(f"condition estimate {cond:.3g} exceeds the allowed limit")
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
