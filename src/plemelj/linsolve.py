"""Dense LU solves with condition monitoring, and restarted GMRES."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "BlockFactorization",
    "Factorization",
    "IllConditionedError",
    "factor",
    "factor_blocks",
    "gmres_restarted",
    "solve_system",
]


class IllConditionedError(RuntimeError):
    def __init__(self, cond):
        super().__init__(f"condition estimate {cond:.3g} exceeds the allowed limit")
        self.cond = cond


@dataclass(frozen=True)
class Factorization:
    """LU factors of a square matrix and its 1-norm condition estimate."""

    lu: np.ndarray
    piv: np.ndarray
    cond: float

    def check(self, cond_limit: float) -> "Factorization":
        """Raise IllConditionedError when the estimate exceeds cond_limit."""
        if self.cond > cond_limit:
            raise IllConditionedError(self.cond)
        return self

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.lu_solve((self.lu, self.piv), np.asarray(rhs, dtype=complex))


def factor(matrix: np.ndarray, cond_limit: float = 1e8) -> Factorization:
    """LU-factor a dense matrix; its 1-norm condition estimate (LAPACK gecon)
    must not exceed cond_limit."""
    lu, piv = scipy.linalg.lu_factor(matrix)
    anorm = np.linalg.norm(matrix, 1)
    rcond, info = scipy.linalg.lapack.zgecon(lu, anorm, norm="1")
    if info != 0:
        raise RuntimeError(f"zgecon failed with info={info}")
    return Factorization(lu, piv, float(1.0 / max(rcond, np.finfo(float).tiny))).check(cond_limit)


@dataclass(frozen=True)
class BlockFactorization:
    """Factorizations of the distinct diagonal blocks of a block-diagonal system."""

    blocks: tuple

    @property
    def cond(self) -> float:
        """The largest 1-norm condition estimate over the blocks."""
        return max(f.cond for f in self.blocks)

    def check(self, cond_limit: float) -> "BlockFactorization":
        """Raise IllConditionedError when the estimate exceeds cond_limit."""
        if self.cond > cond_limit:
            raise IllConditionedError(self.cond)
        return self

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve block by block; rhs is a stack (blocks, n, ...)."""
        return np.stack([f.solve(b) for f, b in zip(self.blocks, rhs)])


def factor_blocks(stack: np.ndarray, cond_limit: float = 1e8) -> BlockFactorization:
    """LU-factor every matrix of a stack (blocks, n, n), one factor call each;
    the largest condition estimate must not exceed cond_limit."""
    return BlockFactorization(tuple(factor(m, np.inf) for m in stack)).check(cond_limit)


def condition_estimate(matrix: np.ndarray) -> float:
    """1-norm condition estimate via LAPACK gecon."""
    return factor(matrix, cond_limit=np.inf).cond


def gmres_restarted(matvec, b, tol=1e-10, maxiter=500, restart=50, x0=None):
    """Restarted GMRES for Ax = b given only the matvec.

    Returns (x, info) with info = {'iterations', 'residual', 'converged'}.
    """
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    x = np.zeros(n, dtype=complex) if x0 is None else np.asarray(x0, dtype=complex).copy()
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return x * 0, {"iterations": 0, "residual": 0.0, "converged": True}
    total = 0
    while total < maxiter:
        r = b - matvec(x)
        beta = np.linalg.norm(r)
        if beta <= tol * bnorm:
            return x, {"iterations": total, "residual": float(beta / bnorm), "converged": True}
        m = min(restart, maxiter - total)
        Q = np.zeros((n, m + 1), dtype=complex)
        H = np.zeros((m + 1, m), dtype=complex)
        Q[:, 0] = r / beta
        k_used = m
        for k in range(m):
            w = matvec(Q[:, k])
            for i in range(k + 1):
                H[i, k] = np.vdot(Q[:, i], w)
                w -= H[i, k] * Q[:, i]
            H[k + 1, k] = np.linalg.norm(w)
            if H[k + 1, k] < 1e-14 * beta:
                k_used = k + 1
                break
            Q[:, k + 1] = w / H[k + 1, k]
        k = k_used
        e1 = np.zeros(k + 1, dtype=complex)
        e1[0] = beta
        y, *_ = np.linalg.lstsq(H[: k + 1, :k], e1, rcond=None)
        x = x + Q[:, :k] @ y
        total += k
        res = np.linalg.norm(b - matvec(x))
        if res <= tol * bnorm:
            return x, {"iterations": total, "residual": float(res / bnorm), "converged": True}
    res = np.linalg.norm(b - matvec(x)) / bnorm
    return x, {"iterations": total, "residual": float(res), "converged": False}


def solve_system(matrix: np.ndarray, rhs: np.ndarray, cond_limit: float = 1e8):
    """Solve a dense system by LU.

    Returns (x, cond_estimate).  Raises IllConditionedError when the
    condition estimate exceeds cond_limit.
    """
    fac = factor(matrix, cond_limit)
    return fac.solve(rhs), fac.cond
