import numpy as np
import pytest

from conftest import band_limited, monogenic_linear
from plemelj.algebra import Multivector, algebra, cauchy_kernel
from plemelj.mesh import make_circle, make_flat_patch
from plemelj.operators import (
    BlockOperator,
    BoundaryFunction,
    NearBoundaryError,
    assemble_adjoint_cauchy,
    assemble_kerzman_stein,
    assemble_singular_cauchy,
    cauchy_transform,
    cauchy_transform_points,
    generic_kernel_operator,
    hermitian_inner,
    l2_norm,
    omega,
    pairing,
    plemelj_projection,
    smooth_matrix_norm,
)


def _dense_oracle(mesh):
    """The Clifford block assembly: (N d)^2 matrices of C, A, C*, S+-, P+-."""
    from plemelj.operators import _cancelled_kernel_coeffs, _pair_kernel, _quad_weights

    alg = algebra(mesh.n)
    N, d = mesh.size, alg.dim
    idx = np.arange(N)

    def flat(blocks):
        return blocks.transpose(0, 2, 1, 3).reshape(N * d, N * d)

    G = _pair_kernel(mesh)
    LG, Ln = alg.left_vector_matrix(G), alg.left_vector_matrix(mesh.normals)
    blocks = np.einsum("ijab,jbc,ij->ijac", LG, Ln, _quad_weights(mesh)) / omega(mesh.n)
    blocks[idx, idx] = 0.0
    blocks[idx, idx] = 0.5 * np.eye(d) - blocks.sum(axis=1)
    C = flat(blocks)

    n_row = np.broadcast_to(mesh.normals[:, None, :], G.shape)
    n_col = np.broadcast_to(mesh.normals[None, :, :], G.shape)
    K = _cancelled_kernel_coeffs(alg, G, n_row, n_col)
    K[idx, idx] = _loop_richardson_diagonal(mesh, K)
    A = flat(np.einsum("ijab,j->ijab", alg.left_matrix(K), mesh.sigma) / omega(mesh.n))

    eye = np.eye(N * d)
    out = {"C": C, "A": A, "C*": C - A, "S+": 0.5 * eye + C, "S-": 0.5 * eye - C}
    for sign in "+-":
        out["P" + sign] = np.linalg.solve((eye + A).T, out["S" + sign].T).T
    return out


def _loop_richardson_diagonal(mesh, K):
    """Richardson diagonal from neighbour rings built with Python sets, node by node."""
    N = mesh.size
    if mesh.curve_order:
        ring1 = [[(i + 1) % N, (i - 1) % N] for i in range(N)]
        ring2 = [[(i + 2) % N, (i - 2) % N] for i in range(N)]
    else:
        ring1 = [[] for _ in range(N)]
        for a, b in mesh.edge_list():
            ring1[a].append(b)
            ring1[b].append(a)
        ring2 = []
        for i in range(N):
            s = set()
            for j in ring1[i]:
                s.update(ring1[j])
            s.discard(i)
            s -= set(ring1[i])
            ring2.append(sorted(s))
    k1 = np.array([K[i, ring1[i]].mean(axis=0) for i in range(N)])
    k2 = np.array([K[i, ring2[i]].mean(axis=0) for i in range(N)])
    return (4.0 * k1 - k2) / 3.0


class TestSpinorStorage:
    @pytest.mark.parametrize("name", ["circle128", "deformed128", "sphere42"])
    def test_reduced_operators_match_dense_oracle(self, name, request):
        from plemelj.hardy import szego_matrix

        mesh = request.getfixturevalue(name)
        want = _dense_oracle(mesh)
        got = {
            "C": assemble_singular_cauchy(mesh),
            "A": assemble_kerzman_stein(mesh),
            "C*": assemble_adjoint_cauchy(mesh),
            "S+": plemelj_projection(mesh, "+"),
            "S-": plemelj_projection(mesh, "-"),
            "P+": szego_matrix(mesh, "+"),
            "P-": szego_matrix(mesh, "-"),
        }
        for key, op in got.items():
            assert np.abs(op.dense() - want[key]).max() <= 1e-13, key

    @pytest.mark.parametrize("name", ["circle128", "sphere42"])
    def test_stored_matrix_is_the_reduced_blocks(self, name, request):
        mesh = request.getfixturevalue(name)
        N = mesh.size
        entries = 2 * N**2 if mesh.n == 2 else (2 * N) ** 2
        for op in (assemble_singular_cauchy(mesh), assemble_kerzman_stein(mesh)):
            assert op.matrix.size == entries and op.matrix.dtype == complex

    @pytest.mark.parametrize("name", ["sphere42", "sphere162"])
    def test_richardson_rings_match_loop(self, name, request):
        from plemelj.operators import _cancelled_kernel_coeffs, _pair_kernel, _richardson_diagonal

        mesh = request.getfixturevalue(name)
        G = _pair_kernel(mesh)
        n_row = np.broadcast_to(mesh.normals[:, None, :], G.shape)
        n_col = np.broadcast_to(mesh.normals[None, :, :], G.shape)
        K = _cancelled_kernel_coeffs(algebra(mesh.n), G, n_row, n_col)
        gap = np.abs(_richardson_diagonal(mesh, K) - _loop_richardson_diagonal(mesh, K)).max()
        assert gap <= 1e-15


class TestPlanarKernelBlocks:
    @pytest.mark.parametrize("name", ["circle128", "deformed128"])
    def test_blocks_pair_zeta_and_eta_with_the_spinor_frame(self, name, request):
        # block rho of G n from the frame's own tables, against the planar
        # kernels of _kernel_blocks: zeta with block 0, eta with block 1
        from plemelj.operators import _kernel_blocks

        mesh = request.getfixturevalue(name)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-2.0, 2.0, (40, 2)) + 1j * rng.normal(scale=0.3, size=(40, 2))
        G = cauchy_kernel(pts[:, None, :] - mesh.nodes[None, :, :])
        pairs = algebra(2).spinor.vector_pairs[..., 0, 0]  # B_rho(e_l e_k)
        want = np.einsum("mjl,jk,lkr->rmj", G, mesh.normals, pairs) / omega(2)
        got = _kernel_blocks(mesh, pts)
        assert got.shape == (2, 40, mesh.size)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("name", ["circle128", "deformed128"])
    def test_null_pairs_raise_where_cauchy_kernel_does(self, name, request):
        # p - z_5 = t (1, i) + delta (1, -i) has square -4 t delta: planted on
        # the null cone (delta = 0), inside the tolerance, and just off it
        from plemelj.algebra import NullVectorError, null_tolerance
        from plemelj.operators import _kernel_blocks

        def raises(fn):
            try:
                fn()
            except NullVectorError:
                return True
            return False

        mesh = request.getfixturevalue(name)
        t = 0.3
        tol = null_tolerance(t * np.array([1.0, 1j]))
        probes = [(mesh.nodes[5], True)]
        for k, on_cone in ((0.0, True), (0.5, True), (2.0, False), (10.0, False)):
            delta = k * tol / (4 * t)
            probes.append((mesh.nodes[5] + t * np.array([1.0, 1j]) + delta * np.array([1.0, -1j]), on_cone))
        for p, on_cone in probes:
            kernel = raises(lambda: cauchy_kernel(p - mesh.nodes))
            blocks = raises(lambda: _kernel_blocks(mesh, p[None, :]))
            assert kernel == blocks == on_cone, (p, kernel, blocks)


def test_omega_values():
    assert abs(omega(2) - 2 * np.pi) < 1e-14
    assert abs(omega(3) - 4 * np.pi) < 1e-14
    assert abs(omega(4) - 2 * np.pi**2) < 1e-14


class TestCauchyTransform:
    def test_constant_interior(self, circle128):
        one = BoundaryFunction.constant(circle128, 1.0)
        v = cauchy_transform(circle128, one, np.zeros(2))
        assert np.abs(v.coeffs - [1, 0, 0, 0]).max() < 1e-10

    def test_monogenic_reproduction(self, circle128):
        f = monogenic_linear(circle128)
        v = cauchy_transform(circle128, f, np.array([0.3, 0.0]))
        assert np.abs(v.coeffs - [0, 0, 0.3, 0]).max() < 1e-8

    def test_constant_exterior_vanishes(self, circle128):
        one = BoundaryFunction.constant(circle128, 1.0)
        v = cauchy_transform(circle128, one, np.array([3.0, 0.0]))
        assert v.norm() < 1e-10

    def test_near_boundary_refused(self, circle128):
        one = BoundaryFunction.constant(circle128, 1.0)
        with pytest.raises(NearBoundaryError):
            cauchy_transform(circle128, one, circle128.nodes[0])

    def test_deformed_reproduces_constants(self, deformed128):
        one = BoundaryFunction.constant(deformed128, 1.0)
        v = cauchy_transform(deformed128, one, np.zeros(2))
        assert np.abs(v.coeffs - [1, 0, 0, 0]).max() < 1e-10


class TestSingularCauchy:
    def test_constant_calibration_exact(self, circle128):
        C = assemble_singular_cauchy(circle128)
        one = BoundaryFunction.constant(circle128, 1.0)
        assert np.abs(C.apply(one).values - 0.5 * one.values).max() < 1e-14
        # any constant multivector
        b = BoundaryFunction.constant(
            circle128, Multivector(algebra(2), np.array([0.3, 1.0, -2.0, 0.5j]))
        )
        assert np.abs(C.apply(b).values - 0.5 * b.values).max() < 1e-13

    def test_squares_to_quarter_identity(self, circle128, circle256):
        for mesh in (circle128, circle256):
            C = assemble_singular_cauchy(mesh)
            res = (C @ C).dense() - 0.25 * np.eye(C.dense().shape[0])
            assert smooth_matrix_norm(res, mesh) < 1e-3

    def test_apply_squared_to_random(self, circle128):
        C = assemble_singular_cauchy(circle128)
        f = band_limited(circle128, seed=11)
        g = C.apply(C.apply(f))
        assert l2_norm(g - 0.25 * f) / l2_norm(f) < 1e-3

    def test_norm_bounded_across_refinement(self):
        norms = [assemble_singular_cauchy(make_circle(N)).operator_norm() for N in (64, 128, 256, 512)]
        for a, b in zip(norms, norms[1:]):
            assert b / a <= 1.05

    def test_flat_patch_norm_stable(self):
        norms = [assemble_singular_cauchy(make_flat_patch(N)).operator_norm() for N in (64, 128, 256)]
        for a, b in zip(norms, norms[1:]):
            assert b / a <= 1.1

    def test_real_mesh_blocks_real(self, circle128):
        C = assemble_singular_cauchy(circle128)
        assert np.abs(C.dense().imag).max() < 1e-12

    def test_kernel_negation_flips_sign(self, circle128):
        C = assemble_singular_cauchy(circle128)
        T = generic_kernel_operator(circle128, lambda d: -cauchy_kernel(d))
        offdiag = C.dense()
        d = C.block_dim
        for i in range(circle128.size):
            offdiag[i * d : (i + 1) * d, i * d : (i + 1) * d] = 0.0
        assert np.abs(T.dense() + offdiag).max() < 1e-12


class TestKerzmanStein:
    def test_circle_vanishes(self, circle128):
        A = assemble_kerzman_stein(circle128)
        assert np.abs(A.dense()).max() < 1e-12
        one = BoundaryFunction.constant(circle128, 1.0)
        assert l2_norm(A.apply(one)) < 1e-6

    def test_entry_boundedness_under_refinement(self, deformed128, deformed256):
        a1 = assemble_kerzman_stein(deformed128).max_block_norm()
        a2 = assemble_kerzman_stein(deformed256).max_block_norm()
        assert a2 <= 2.0 * a1 + 1e-12

    def test_spectral_decay_index_grows_slower_than_N(self, deformed128, deformed256):
        def decay_index(mesh):
            sv = assemble_kerzman_stein(mesh).singular_values()
            return int(np.argmax(sv / sv[0] <= 0.1))

        k1, k2 = decay_index(deformed128), decay_index(deformed256)
        assert k2 < 2 * k1

    def test_adjoint_of_cauchy_wrt_pairing(self, circle128):
        C = assemble_singular_cauchy(circle128)
        Cs = assemble_adjoint_cauchy(circle128)
        f = band_limited(circle128, seed=1)
        g = band_limited(circle128, seed=2)
        lhs = pairing(C.apply(f), g).coeffs
        rhs = pairing(f, Cs.apply(g)).coeffs
        assert np.abs(lhs - rhs).max() < 1e-8 * max(1.0, np.abs(lhs).max())

    def test_difference_identity_exact(self, circle128):
        C = assemble_singular_cauchy(circle128)
        A = assemble_kerzman_stein(circle128)
        Cs = assemble_adjoint_cauchy(circle128)
        assert np.abs(C.dense() - Cs.dense() - A.dense()).max() < 1e-15

    def test_cstar_of_constants(self, circle128):
        Cs = assemble_adjoint_cauchy(circle128)
        A = assemble_kerzman_stein(circle128)
        one = BoundaryFunction.constant(circle128, 1.0)
        want = 0.5 * one.values - A.apply(one).values
        assert np.abs(Cs.apply(one).values - want).max() < 1e-13


class TestPlemeljProjections:
    def test_partition_of_identity_exact(self, circle128):
        Sp = plemelj_projection(circle128, "+")
        Sm = plemelj_projection(circle128, "-")
        eye = BlockOperator.identity(circle128).matrix
        assert np.abs(Sp.matrix + Sm.matrix - eye).max() == 0.0

    def test_idempotence(self, circle128, circle256):
        r = []
        for mesh in (circle128, circle256):
            Sp = plemelj_projection(mesh, "+")
            r.append(smooth_matrix_norm((Sp @ Sp).dense() - Sp.dense(), mesh))
        assert r[0] < 1e-3 and r[1] < 1e-3

    def test_exterior_trace_annihilated(self, circle256):
        g = BoundaryFunction.kernel_trace(circle256, np.array([3.0, 0.0]))
        Sp = plemelj_projection(circle256, "+")
        Sm = plemelj_projection(circle256, "-")
        assert l2_norm(Sp.apply(g) - g) / l2_norm(g) < 1e-8
        assert l2_norm(Sm.apply(g)) / l2_norm(g) < 1e-8


class TestPairingAndNorm:
    def test_norm_of_constants_is_total_measure(self, circle128):
        one = BoundaryFunction.constant(circle128, 1.0)
        assert abs(l2_norm(one) ** 2 - circle128.total_measure()) < 1e-12

    def test_pairing_blade_example(self, circle128):
        # delta-like e1 at one node against e1 at the same node
        alg = algebra(2)
        fv = np.zeros((circle128.size, 4), dtype=complex)
        fv[3, 1] = 1.0
        f = BoundaryFunction(circle128, fv)
        p = pairing(f, f)
        # bar(e1) e1 = -e1 e1 = 1, weighted by sigma_3
        assert abs(p.coeffs[0] - circle128.sigma[3]) < 1e-14
        assert np.abs(p.coeffs[1:]).max() < 1e-14

    def test_norm_positive_definite(self, circle128):
        f = band_limited(circle128, seed=3)
        assert l2_norm(f) > 0
        zero = BoundaryFunction.constant(circle128, 0.0)
        assert l2_norm(zero) == 0.0

    def test_mesh_mismatch_raises(self, circle128, circle256):
        f = BoundaryFunction.constant(circle128, 1.0)
        g = BoundaryFunction.constant(circle256, 1.0)
        with pytest.raises(ValueError):
            pairing(f, g)


class TestGenericKernel:
    def test_cauchy_kernel_reproduces_C(self, circle128):
        C = assemble_singular_cauchy(circle128)
        T = generic_kernel_operator(circle128, cauchy_kernel)
        # differ only by the diagonal rule
        diff = BlockOperator(circle128, C.matrix - T.matrix)
        assert diff.max_block_norm(off_diagonal_only=True) < 1e-13
        assert smooth_matrix_norm(C.dense() - T.dense(), circle128) < 1e-3

    def test_zero_kernel(self, circle128):
        T = generic_kernel_operator(circle128, lambda d: np.zeros_like(d))
        assert np.abs(T.dense()).max() == 0.0

    def test_scaled_odd_kernel_bounded(self):
        # K(z) = G(z) * sqrt(z^2): odd, homogeneous of degree -(n-2)
        def kern(d):
            from plemelj.algebra import vector_square

            s = np.sqrt(vector_square(d).astype(complex))
            return cauchy_kernel(d) * s[..., None]

        norms = [
            generic_kernel_operator(make_circle(N), kern).operator_norm() for N in (64, 128, 256)
        ]
        for a, b in zip(norms, norms[1:]):
            assert b <= 1.2 * a

    def test_full_coefficient_kernel_rejected(self, circle128):
        # only grade-1 kernels: K n must be even to be stored as spinor blocks
        alg = algebra(2)
        with pytest.raises(ValueError):
            generic_kernel_operator(circle128, lambda d: alg.embed_vector(cauchy_kernel(d)))

    def test_nonfinite_kernel_rejected(self, circle128):
        def bad(d):
            out = np.asarray(cauchy_kernel(d)).copy()
            out[..., 0] = np.inf
            return out

        with pytest.raises(ValueError):
            generic_kernel_operator(circle128, bad)


class TestNearEvaluation:
    def test_subtracted_limit_matches_projection(self, circle256):
        f = monogenic_linear(circle256)
        Sp = plemelj_projection(circle256, "+")
        target = Sp.apply(f)
        idx = np.arange(circle256.size)
        pts = circle256.nodes * (1 - 1e-7)
        vals = cauchy_transform_points(circle256, f, pts, subtract_node=idx, interior=True)
        assert np.abs(vals - target.values).max() < 1e-6

    def test_exterior_subtracted_limit(self, circle256):
        f = band_limited(circle256, seed=5)
        Sm = plemelj_projection(circle256, "-")
        target = -1.0 * Sm.apply(f)
        idx = np.arange(circle256.size)
        pts = circle256.nodes * (1 + 1e-7)
        vals = cauchy_transform_points(circle256, f, pts, subtract_node=idx, interior=False)
        assert np.abs(vals - target.values).max() < 1e-6


def test_block_singular_values_match_dense_svd():
    # reduced-block singular values, repeated by multiplicity, match the dense SVD
    m = make_circle(16)
    C = assemble_singular_cauchy(m)
    w = np.repeat(np.sqrt(m.sigma_abs), 4)
    want = np.linalg.svd(C.dense() * (w[:, None] / w[None, :]), compute_uv=False)
    got = C.singular_values()
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-13


def test_block_operator_algebra(circle128):
    C = assemble_singular_cauchy(circle128)
    Sp = plemelj_projection(circle128, "+")
    f = band_limited(circle128, seed=9)
    g = band_limited(circle128, seed=10)
    # linearity of application
    lhs = C.apply(f + 2j * g)
    rhs = C.apply(f) + 2j * C.apply(g)
    assert np.abs(lhs.values - rhs.values).max() < 1e-12
    # composition corresponds to the block-matrix product
    comp = (Sp @ C).apply(f)
    seq = Sp.apply(C.apply(f))
    assert np.abs(comp.values - seq.values).max() < 1e-12
    # the stored composition expands to the dense block-matrix product
    assert np.abs((Sp @ C).dense() - Sp.dense() @ C.dense()).max() < 1e-12


def test_hermitian_inner_matches_weighted_dot(circle128):
    f = band_limited(circle128, seed=6)
    g = band_limited(circle128, seed=7)
    want = np.sum(np.conj(f.values) * g.values * circle128.sigma_abs[:, None])
    assert abs(hermitian_inner(f, g) - want) < 1e-12
