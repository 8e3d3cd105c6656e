import numpy as np
import pytest

from plemelj.algebra import algebra
from plemelj.linsolve import IllConditionedError, factor, matmul
from plemelj.operators import assemble_kerzman_stein, assemble_singular_cauchy, smooth_family


def _well_conditioned(n, seed=0):
    rng = np.random.default_rng(seed)
    A = np.eye(n, dtype=complex) + 0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
    return A


def test_dense_solve_and_condition():
    A = _well_conditioned(40)
    rng = np.random.default_rng(1)
    b = rng.normal(size=40) + 1j * rng.normal(size=40)
    fac = factor([A])
    x = fac.solve(b[None])[0]
    assert np.linalg.norm(A @ x - b) < 1e-10
    assert fac.cond < 10


def test_condition_estimate_tracks_true_condition():
    A = np.diag(np.linspace(1.0, 1e6, 30)).astype(complex)
    est = factor([A]).cond
    assert 1e5 < est < 1e7


def test_ill_conditioned_raises():
    A = np.diag(np.concatenate([np.ones(10), [1e-12]])).astype(complex)
    with pytest.raises(IllConditionedError):
        factor([A]).check(1e8)


def test_factor_leaves_its_matrix_untouched():
    # a row-major matrix is copied; a column-major one is overwritten
    A = _well_conditioned(40)
    before = A.copy()
    factor([A]).solve(np.ones((1, 40)))
    assert np.array_equal(A, before)


@pytest.mark.parametrize("name", ["circle128", "deformed128", "sphere42"])
def test_matmul_is_numpy_matmul_bit_for_bit(name, request):
    # the products of the Kerzman-Stein path: C and A blocks against the
    # broadcast smooth family and a concatenated right-hand side, and the
    # Gram product of weighted_norm
    mesh = request.getfixturevalue(name)
    C = assemble_singular_cauchy(mesh).matrix
    A = assemble_kerzman_stein(mesh).matrix
    Y = smooth_family(mesh, algebra(mesh.n).spinor.size)
    Y = np.broadcast_to(Y, C.shape[:1] + Y.shape)
    rhs = np.concatenate([Y, A @ Y], axis=-1)
    for M in (C, A):
        for X in (Y, rhs):
            assert np.array_equal(matmul(M, X), M @ X)
    B = C @ Y
    BH = np.swapaxes(B, -2, -1).conj()
    assert np.array_equal(matmul(BH, B), BH @ B)
