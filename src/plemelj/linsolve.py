"""Dense LU factorizations with condition monitoring.

factor LU-factors one matrix and estimates its 1-norm condition number
(LAPACK gecon); factor_blocks does the same for every distinct spinor block
of a block-diagonal system.  A factorization's check raises
IllConditionedError when the estimate exceeds the caller's limit.
"""

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


def factor_blocks(stack: np.ndarray) -> BlockFactorization:
    """LU-factor every matrix of a stack (blocks, n, n), one factor call each;
    the caller applies its condition limit with BlockFactorization.check."""
    return BlockFactorization(tuple(factor(m, np.inf) for m in stack))


def condition_estimate(matrix: np.ndarray) -> float:
    """1-norm condition estimate via LAPACK gecon."""
    return factor(matrix, cond_limit=np.inf).cond
