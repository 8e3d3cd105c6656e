import numpy as np
import pytest

from plemelj.algebra import NullVectorError, algebra, cauchy_kernel, vector_inverse
from plemelj.maximal import band_limited_family
from plemelj.mesh import make_circle
from plemelj.mobius import (
    covariance_check,
    isometry_check,
    kelvin_map,
    kernel_intertwining_check,
    transplant,
)
from plemelj.operators import BoundaryFunction, l2_norm


A_DEFAULT = np.array([2.0, 0.0])


class TestKelvinMap:
    def test_pulled_back_circle_geometry(self, circle128):
        km = kelvin_map(circle128, A_DEFAULT)
        # unit circle pulls back to the unit circle centered at -a
        centers = km.domain_mesh.nodes + A_DEFAULT
        assert np.abs(np.sqrt(np.sum(centers**2, axis=1)) - 1.0).max() < 1e-12

    def test_null_node_rejected(self, circle128):
        m = circle128
        from plemelj.mesh import BoundaryMesh

        bad_nodes = m.nodes.copy()
        bad_nodes[3] = np.array([1.0, 1j])  # on the null cone
        bad = BoundaryMesh(
            n=2, nodes=bad_nodes, normals=m.normals, sigma=m.sigma, sigma_abs=m.sigma_abs,
            interior_seed=m.interior_seed, exterior_seed=m.exterior_seed, h=m.h, theta=m.theta,
        )
        with pytest.raises(NullVectorError):
            kelvin_map(bad, A_DEFAULT)


class TestTransplant:
    def test_constant_gives_kernel_values(self, circle128):
        km = kelvin_map(circle128, A_DEFAULT)
        one = BoundaryFunction.constant(circle128, 1.0)
        t = transplant(one, km)
        alg = algebra(2)
        want = alg.embed_vector(cauchy_kernel(km.domain_mesh.nodes + A_DEFAULT))
        assert np.abs(t.values - want).max() < 1e-14

    def test_linear_in_g(self, circle128):
        km = kelvin_map(circle128, A_DEFAULT)
        f = band_limited_family(circle128, 1, seed=1)[0]
        g = band_limited_family(circle128, 1, seed=2)[0]
        lhs = transplant(f + (0.5 - 2j) * g, km)
        rhs = transplant(f, km) + (0.5 - 2j) * transplant(g, km)
        assert np.abs(lhs.values - rhs.values).max() < 1e-12

    def test_zero(self, circle128):
        km = kelvin_map(circle128, A_DEFAULT)
        z = BoundaryFunction.constant(circle128, 0.0)
        assert l2_norm(transplant(z, km)) == 0.0

    def test_map_round_trip(self, circle128):
        # psi^{-1}(psi(z)) = (z + a)^{-1 -1} - ... returns z on non-null input
        rng = np.random.default_rng(8)
        z = rng.normal(size=(30, 2)) + 0.1j * rng.normal(size=(30, 2))
        back = vector_inverse(vector_inverse(z + A_DEFAULT)) - A_DEFAULT
        assert np.abs(back - z).max() < 1e-10

    def test_double_transplant_factor_is_one(self, circle128):
        # G(z + a) G((z + a)^{-1}) = 1 for n = 2: transporting back and
        # forth multiplies by exactly 1
        alg = algebra(2)
        z = circle128.nodes * 0.7 + np.array([0.1, 0.0])  # generic real points
        za = z + A_DEFAULT
        G1 = alg.embed_vector(cauchy_kernel(za))
        G2 = alg.embed_vector(cauchy_kernel(vector_inverse(za)))
        prod = alg.product(G1, G2)
        assert np.abs(prod[:, 0] - 1.0).max() < 1e-12
        assert np.abs(prod[:, 1:]).max() < 1e-12


class TestIsometry:
    def test_gap_small_and_refining(self):
        gaps = []
        for N in (128, 256, 512):
            m = make_circle(N)
            km = kelvin_map(m, A_DEFAULT)
            g = band_limited_family(m, 1, seed=3)[0]
            gaps.append(isometry_check(g, km)["relative_gap"])
        assert gaps[1] < 1e-3
        assert gaps[2] <= 0.5 * gaps[1]

    def test_single_node_support(self, circle128):
        km = kelvin_map(circle128, A_DEFAULT)
        vals = np.zeros((circle128.size, 4), dtype=complex)
        vals[5, 0] = 1.0
        g = BoundaryFunction(circle128, vals)
        rep = isometry_check(g, km)
        # gap equals the single-node weight transform error
        w_img = circle128.sigma_abs[5]
        alg = algebra(2)
        t = transplant(g, km)
        w_dom = km.domain_mesh.sigma_abs[5] * alg.norm(t.values[5]) ** 2
        expected = abs(np.sqrt(w_dom) - np.sqrt(w_img)) / np.sqrt(w_img)
        assert rep["relative_gap"] == pytest.approx(expected, rel=1e-10)


class TestCovariance:
    def test_trivial_cases(self, circle256):
        km = kelvin_map(circle256, A_DEFAULT)
        zero = BoundaryFunction.constant(circle256, 0.0)
        one = BoundaryFunction.constant(circle256, 1.0)
        _, _, gap = covariance_check(zero, one, km)
        assert gap == 0.0
        lhs, rhs, gap = covariance_check(one, one, km)
        # both sides are integrals of monogenic data: ~ 0 by the closed-
        # surface vanishing statement
        assert np.linalg.norm(lhs) < 1e-12 and np.linalg.norm(rhs) < 1e-12

    def test_random_data_gap_refines(self, circle256, circle512):
        gaps = []
        for m in (circle256, circle512):
            km = kelvin_map(m, A_DEFAULT)
            f = band_limited_family(m, 1, seed=4)[0]
            g = band_limited_family(m, 1, seed=5)[0]
            f = (1.0 / l2_norm(f)) * f
            g = (1.0 / l2_norm(g)) * g
            _, _, gap = covariance_check(f, g, km)
            gaps.append(gap)
        assert gaps[0] < 1e-3
        assert gaps[1] < 0.5 * gaps[0]

    def test_monogenic_data_both_sides_vanish(self, circle256):
        km = kelvin_map(circle256, A_DEFAULT)
        # trace of left/right monogenic G(. - pole), pole outside
        f = BoundaryFunction.kernel_trace(circle256, np.array([0.0, 3.0]))
        lhs, rhs, gap = covariance_check(f, f, km)
        assert np.linalg.norm(lhs) < 1e-8
        assert np.linalg.norm(rhs) < 1e-3  # quadrature-level on the pulled-back side


class TestIntertwining:
    def test_operative_reading_identified(self):
        rep = kernel_intertwining_check(2, A_DEFAULT, num_samples=100)
        assert rep["operative_reading"] == "shifted_reversed"
        assert rep["gaps"]["shifted_reversed"] <= 1e-10
        # the literal reading genuinely fails; reported as-is
        assert rep["gaps"]["literal"] > 1e-2

    def test_classical_kelvin_at_a_zero(self):
        rep = kernel_intertwining_check(2, np.zeros(2), num_samples=100)
        assert rep["operative_reading"] is not None
        assert min(rep["gaps"].values()) <= 1e-10

    def test_higher_even_dimension(self):
        rep = kernel_intertwining_check(4, None, num_samples=50)
        assert rep["gaps"]["shifted_reversed"] <= 1e-10


def _per_sample_gaps(n, a, num_samples, seed):
    """The four readings' gaps taken sample by sample, and the number of rejected draws."""
    alg = algebra(n)
    a = np.asarray(a, dtype=complex)
    rng = np.random.default_rng(seed)
    gaps = dict.fromkeys(("literal", "shifted", "literal_reversed", "shifted_reversed"), 0.0)
    rejected = 0

    def G(x):
        return alg.embed_vector(cauchy_kernel(x))

    def Ginv(x):
        return alg.embed_vector(vector_inverse(cauchy_kernel(x)))

    while num_samples:
        w, z = rng.normal(size=n) * 1.5, rng.normal(size=n) * 1.5
        if min(abs(np.sum(x * x)) for x in (w, z, w + a, z + a, w - z)) < 1e-3:
            rejected += 1
            continue
        v, u = vector_inverse(w + a), vector_inverse(z + a)
        if abs(np.sum((v - u) ** 2)) < 1e-12:
            rejected += 1
            continue
        num_samples -= 1
        lhs = {"": G(v - u), "_reversed": G(u - v)}
        rhs = {
            "literal": alg.product(Ginv(w), alg.product(G(w - z), Ginv(z))),
            "shifted": alg.product(Ginv(w + a), alg.product(G(w - z), Ginv(z + a))),
        }
        scale = max(alg.norm(lhs[""]), 1e-300)
        for side in lhs:
            for reading in rhs:
                gap = float(alg.norm(lhs[side] - rhs[reading]) / scale)
                gaps[reading + side] = max(gaps[reading + side], gap)
    return gaps, rejected


class TestIntertwiningBatch:
    @pytest.mark.parametrize("a, seed, rejected", [((2.0, 0.0), 34, 1), ((0.0, 0.0), 2, 0)])
    def test_equals_per_sample_evaluation_at_n2(self, a, seed, rejected):
        want, skipped = _per_sample_gaps(2, a, 100, seed)
        assert skipped == rejected  # seed 34 takes the rejection masks
        assert kernel_intertwining_check(2, a, seed=seed)["gaps"] == want

    def test_agrees_with_per_sample_evaluation_at_n4(self):
        want, _ = _per_sample_gaps(4, (2.0, 0.0, 0.0, 0.0), 50, 2)
        got = kernel_intertwining_check(4, None, num_samples=50)["gaps"]
        assert list(got) == list(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-12, abs=1e-14)

    def test_no_samples_give_zero_gaps(self):
        rep = kernel_intertwining_check(2, A_DEFAULT, num_samples=0)
        assert rep["gaps"] == dict.fromkeys(("literal", "shifted", "literal_reversed", "shifted_reversed"), 0.0)
