import numpy as np
import pytest

from plemelj.algebra import (
    NullVectorError,
    OddDimensionComplexError,
    algebra,
    cauchy_kernel,
    is_null,
    vector_inverse,
    vector_square,
)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generating_relations_exact(n):
    alg = algebra(n)
    for i in range(n):
        for j in range(n):
            ei = alg.embed_vector(np.eye(n)[i])
            ej = alg.embed_vector(np.eye(n)[j])
            rel = alg.product(ei, ej) + alg.product(ej, ei)
            want = np.zeros(alg.dim)
            want[0] = -2.0 * (i == j)
            assert np.array_equal(rel.real, want)
            assert np.all(rel.imag == 0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_associativity_random(n):
    alg = algebra(n)
    rng = np.random.default_rng(0)
    a, b, c = rng.normal(size=(3, alg.dim)) + 1j * rng.normal(size=(3, alg.dim))
    lhs = alg.product(alg.product(a, b), c)
    rhs = alg.product(a, alg.product(b, c))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_unit_of_algebra():
    rng = np.random.default_rng(1)
    alg = algebra(3)
    a = rng.normal(size=alg.dim) + 1j * rng.normal(size=alg.dim)
    one = np.zeros(alg.dim, dtype=complex)
    one[0] = 1.0
    assert np.abs(alg.product(one, a) - a).max() == 0.0


def test_null_vector_squares_to_zero():
    alg = algebra(2)
    z = alg.embed_vector(np.array([1.0, 1j]))
    assert alg.norm(alg.product(z, z)) == 0.0


def test_bar_examples():
    # coefficients over the blades 1, e1, e2, e12
    alg = algebra(2)
    one, e1, e12 = np.eye(4)[[0, 1, 3]]
    assert np.allclose(alg.bar(one), one)
    assert np.allclose(alg.bar(e1), -e1)
    assert np.allclose(alg.bar(e12), -e12)


def test_bar_antiautomorphism_and_involution():
    alg = algebra(4)
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(2, alg.dim)) + 1j * rng.normal(size=(2, alg.dim))
    ab = alg.product(a, b)
    assert np.abs(alg.bar(ab) - alg.product(alg.bar(b), alg.bar(a))).max() < 1e-12
    assert np.abs(alg.bar(alg.bar(a)) - a).max() == 0.0


def test_norm_examples():
    alg = algebra(2)
    assert alg.norm(np.eye(4)[1]) == 1.0
    assert alg.norm(np.array([3.0, 0.0, 0.0, 4.0])) == 5.0


def test_scalar_part_of_a_abar_is_norm_squared():
    alg = algebra(3)
    rng = np.random.default_rng(3)
    for a in rng.normal(size=(100, alg.dim)):
        val = alg.product(a + 0j, alg.bar(a + 0j))[0]
        assert abs(val - np.sum(a**2)) < 1e-12


def test_vector_inverse():
    assert np.allclose(vector_inverse(np.array([1.0, 0.0])), [-1.0, 0.0])
    rng = np.random.default_rng(4)
    for _ in range(20):
        z = rng.normal(size=4) + 1j * 0.2 * rng.normal(size=4)
        alg = algebra(4)
        prod = alg.product(alg.embed_vector(z), alg.embed_vector(vector_inverse(z)))
        assert abs(prod[0] - 1) < 1e-12
        assert np.abs(prod[1:]).max() < 1e-12
        # involution up to the defining scaling
        assert np.abs(vector_inverse(vector_inverse(z)) - z).max() < 1e-10


def test_vector_inverse_null_raises():
    with pytest.raises(NullVectorError):
        vector_inverse(np.array([1.0, 1j]))


def test_is_null_scale_invariant():
    z = np.array([1.0, 1j])
    assert is_null(z)
    assert is_null(1e6 * z)
    assert not is_null(np.array([1.0, 0.9j]))


class TestCauchyKernel:
    def test_real_n2(self):
        assert np.allclose(cauchy_kernel(np.array([1.0, 0.0])), [1.0, 0.0])

    def test_real_formula_all_n(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5):
            x = rng.normal(size=(10, n))
            g = cauchy_kernel(x.astype(complex))
            ref = x / np.sum(x * x, axis=1)[:, None] ** (n / 2)
            assert np.abs(g - ref).max() < 1e-12
            assert cauchy_kernel(np.zeros((0, n))).shape == (0, n)

    def test_complex_matches_vector_inverse_powers(self):
        # (-1)^(n/2) z (z^2)^(-n/2) equals repeated multiplication by z^{-1}
        rng = np.random.default_rng(6)
        n = 4
        alg = algebra(n)
        z = rng.normal(size=n) + 0.3j * rng.normal(size=n)
        g = cauchy_kernel(z)
        zi = alg.embed_vector(vector_inverse(z))
        acc = alg.embed_vector(z * 0)
        acc[0] = 1.0
        for _ in range(n - 1):
            acc = alg.product(acc, zi)
        assert np.abs((-1.0) ** (n // 2) * acc - alg.embed_vector(g)).max() < 1e-12

    def test_oddness_and_homogeneity(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(8, 4)) + 0.2j * rng.normal(size=(8, 4))
        g = cauchy_kernel(z)
        assert np.abs(cauchy_kernel(-z) + g).max() < 1e-12
        for t in (0.3, 2.7):
            assert np.abs(cauchy_kernel(t * z) - t ** (-3) * g).max() < 1e-10

    def test_null_raises(self):
        with pytest.raises(NullVectorError):
            cauchy_kernel(np.array([1.0, 1j]))

    def test_odd_complex_raises(self):
        with pytest.raises(OddDimensionComplexError):
            cauchy_kernel(np.array([1.0, 1j, 0.0]))


class TestLeftMatrix:
    def test_identity(self):
        alg = algebra(3)
        one = np.zeros(alg.dim, dtype=complex)
        one[0] = 1
        assert np.abs(alg.left_matrix(one) - np.eye(alg.dim)).max() == 0.0

    def test_e1_squares_to_minus_identity(self):
        alg = algebra(2)
        L = alg.left_vector_matrix(np.array([1.0, 0.0], dtype=complex))
        assert np.abs(L @ L + np.eye(4)).max() == 0.0

    def test_homomorphism_random(self):
        alg = algebra(3)
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, b = rng.normal(size=(2, alg.dim)) + 1j * rng.normal(size=(2, alg.dim))
            assert np.abs(
                alg.left_matrix(a) @ alg.left_matrix(b) - alg.left_matrix(alg.product(a, b))
            ).max() < 1e-12

    def test_right_matrix(self):
        alg = algebra(3)
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(2, alg.dim)) + 1j * rng.normal(size=(2, alg.dim))
        assert np.abs(alg.right_matrix(a) @ b - alg.product(b, a)).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_spinor_frame_block_diagonalises_even_elements(n):
    alg = algebra(n)
    sp = alg.spinor
    h = n // 2
    want = (2, 2 ** (h - 1), 2**h) if n % 2 == 0 else (1, 2**h, 2 ** (h + 1))
    assert (sp.blocks, sp.size, sp.copies) == want
    assert np.abs(sp.T.conj().T @ sp.T - np.eye(alg.dim)).max() < 1e-14
    rng = np.random.default_rng(n)
    even = alg.grades % 2 == 0
    for _ in range(3):
        a = (rng.normal(size=alg.dim) + 1j * rng.normal(size=alg.dim)) * even
        got = sp.T.conj().T @ alg.left_matrix(a) @ sp.T
        # block-diagonal, each distinct block repeated `copies` times entry for entry
        want = np.zeros_like(got)
        for rho, B in enumerate(np.einsum("b,brpq->rpq", a, sp.even)):
            for k in range(sp.copies):
                o = (rho * sp.copies + k) * sp.size
                want[o : o + sp.size, o : o + sp.size] = B
        assert np.abs(got - want).max() < 1e-13
