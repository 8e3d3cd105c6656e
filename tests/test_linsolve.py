import numpy as np
import pytest

from plemelj.algebra import algebra
from plemelj import linsolve
from plemelj.linsolve import GMRESSolver, IllConditionedError, factor, gmres, matmul
from plemelj.mesh import make_sphere
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


def _zero_diagonal_blocks(n, size, norm, seed=0):
    # a Kerzman-Stein-like stack (1, n, n): 2-norm `norm`, diagonal blocks of size `size` exactly 0
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A *= norm / np.linalg.norm(A, 2)
    for i in range(0, n, size):
        A[i : i + size, i : i + size] = 0.0
    return A[None]


@pytest.mark.parametrize("N", [42, 162])
@pytest.mark.parametrize("scale", [1.0, -1.0])
def test_gmres_matches_factor_on_the_sphere(N, scale):
    # A vanishes to rounding on the sphere: GMRES takes one product per solve,
    # and its solutions and condition estimate are the LU's to rounding
    A = assemble_kerzman_stein(make_sphere(N)).matrix
    before = A.copy()
    solver = gmres(A, scale)
    lu = factor([np.eye(A.shape[1]) + scale * A[0]])
    assert abs(solver.cond - lu.cond) <= 1e-14 * lu.cond
    rhs = np.random.default_rng(3).normal(size=(1, A.shape[1], 6)) + 0j
    x = solver.solve(rhs)
    assert np.abs(x - lu.solve(rhs)).max() <= 1e-13 * np.abs(x).max()
    assert solver.iterations and set(solver.iterations) == {1}
    assert len(solver.residuals) == len(solver.iterations)
    assert max(solver.residuals) <= linsolve.GMRES_TOL
    assert np.array_equal(A, before)


@pytest.mark.parametrize("scale", [1.0, -1.0])
def test_gmres_condition_estimate_tracks_gecon(scale):
    # ||A|| = 0.3 with zero 2 x 2 diagonal blocks: the Hager-Higham estimate
    # from GMRES solves is gecon's within 10 %, and the solutions agree
    A = _zero_diagonal_blocks(120, 2, 0.3)
    M = np.eye(120) + scale * A[0]
    solver, lu = gmres(A, scale), factor([M])
    assert abs(solver.cond / lu.cond - 1) < 0.1
    assert solver.cond <= np.linalg.cond(M, 1) * (1 + 1e-12)
    rhs = np.random.default_rng(4).normal(size=(1, 120, 3)) + 0j
    x = solver.solve(rhs)
    assert np.abs(x - lu.solve(rhs)).max() <= 1e-12 * np.abs(x).max()
    assert 1 < solver.iterations[-1] <= linsolve.GMRES_MAX_ITERATIONS
    assert np.abs(M @ x[0] - rhs[0]).max() <= 1e-12 * np.abs(rhs).max()
    assert solver.check(2 * solver.cond) is solver
    with pytest.raises(IllConditionedError):
        solver.check(solver.cond / 2)


def test_gmres_products_are_the_systems():
    # (I + s A) v and its conjugate transpose, from zgemm on A in place
    A = _zero_diagonal_blocks(30, 2, 0.5)[0]
    v = np.random.default_rng(2).normal(size=(30, 4)) + 1j * np.random.default_rng(3).normal(size=(30, 4))
    for s in (1.0, -1.0):
        M = np.eye(30) + s * A
        assert np.abs(linsolve._product(A, s, v, False) - M @ v).max() <= 1e-14
        assert np.abs(linsolve._product(A, s, v, True) - M.conj().T @ v).max() <= 1e-14


def test_gmres_solves_zero_columns_and_stacks():
    # a zero right-hand column has the solution 0; blocks solve independently
    A = np.concatenate([_zero_diagonal_blocks(20, 2, 0.2, seed=s) for s in (0, 1)])
    solver = gmres(A, 1.0)
    rhs = np.zeros((2, 20, 2), dtype=complex)
    rhs[:, :, 1] = 1.0
    x = solver.solve(rhs)
    assert np.array_equal(x[:, :, 0], np.zeros((2, 20)))
    for k in range(2):
        assert np.abs((np.eye(20) + A[k]) @ x[k, :, 1] - 1.0).max() <= 1e-13


def test_gmres_raises_on_a_singular_system():
    # I + A with A a block diagonal of [[0, -1], [-1, 0]] sends (1, 1) to 0: its
    # Krylov space closes before the residual falls
    A = np.kron(np.eye(4), [[0.0, -1.0], [-1.0, 0.0]]).astype(complex)[None]
    with pytest.raises(IllConditionedError, match="singular"):
        gmres(A, 1.0)
    with pytest.raises(IllConditionedError):
        GMRESSolver(A, 1.0).solve(np.ones((1, 8)))


def test_gmres_raises_when_it_does_not_converge():
    # I - 0.9 S, S the cyclic shift of 100 entries, is well conditioned, but
    # its GMRES residual falls like 0.9^k: 50 iterations leave it near 5e-3
    S = np.roll(np.eye(100), 1, axis=0).astype(complex)[None]
    with pytest.raises(IllConditionedError, match=f"after {linsolve.GMRES_MAX_ITERATIONS} iterations, above"):
        GMRESSolver(S, -0.9).solve(np.eye(100)[None, :, :1])
