import numpy as np
import pytest

from conftest import kernel_blocks, make_flat_patch, monogenic_linear, pair_kernel, pairing, quad_weights
from plemelj.algebra import NullVectorError, algebra, cauchy_kernel
from plemelj.maximal import band_limited_family
from plemelj.mesh import make_circle, make_deformed_curve, make_sphere
from plemelj.operators import (
    BlockOperator,
    BoundaryFunction,
    assemble_kerzman_stein,
    assemble_singular_cauchy,
    cauchy_transform,
    cauchy_transform_points,
    l2_norm,
    omega,
    plemelj_projection,
    smooth_matrix_norm,
)


def _clifford_oracle(mesh):
    """The Clifford block assembly of C and A as (N, N, d, d) node blocks."""
    alg = algebra(mesh.n)
    N, d = mesh.size, alg.dim
    idx = np.arange(N)
    G = pair_kernel(mesh)
    LG, Ln = alg.left_vector_matrix(G), alg.left_vector_matrix(mesh.normals)
    C = np.einsum("ijab,jbc,ij->ijac", LG, Ln, quad_weights(mesh)) / omega(mesh.n)
    C[idx, idx] = 0.0
    C[idx, idx] = 0.5 * np.eye(d) - C.sum(axis=1)
    # the uncancelled kernel L(G) L(n_j) + L(n_i) L(G), with its diagonal limit 0
    KA = np.einsum("ijab,jbc->ijac", LG, Ln) + np.einsum("iab,ijbc->ijac", Ln, LG)
    KA[idx, idx] = 0.0
    return C, KA * mesh.sigma[None, :, None, None] / omega(mesh.n)


def _flat(blocks):
    N, d = blocks.shape[0], blocks.shape[-1]
    return blocks.transpose(0, 2, 1, 3).reshape(N * d, N * d)


def _dense_oracle(mesh):
    """The Clifford block assembly: (N d)^2 matrices of C, A, C*, S+-, and P+- from P+-(I +- A) = S+-."""
    C, A = (_flat(blocks) for blocks in _clifford_oracle(mesh))
    eye = np.eye(C.shape[0])
    out = {"C": C, "A": A, "C*": C - A, "S+": 0.5 * eye + C, "S-": 0.5 * eye - C}
    for sign, system in (("+", eye + A), ("-", eye - A)):
        out["P" + sign] = np.linalg.solve(system.T, out["S" + sign].T).T
    return out


class TestSpinorStorage:
    @pytest.mark.parametrize("name", ["circle128", "deformed128", "sphere42"])
    def test_reduced_operators_match_dense_oracle(self, name, request):
        from plemelj.hardy import szego_matrix

        mesh = request.getfixturevalue(name)
        want = _dense_oracle(mesh)
        C, A = assemble_singular_cauchy(mesh), assemble_kerzman_stein(mesh)
        got = {
            "C": C,
            "A": A,
            "C*": BlockOperator(mesh, C.matrix - A.matrix),
            "S+": plemelj_projection(mesh, "+"),
            "S-": plemelj_projection(mesh, "-"),
            "P+": szego_matrix(mesh, "+"),
            "P-": szego_matrix(mesh, "-"),
        }
        for key, op in got.items():
            assert np.abs(op.dense() - want[key]).max() <= 1e-13, key

    def test_closed_form_blocks_match_clifford_oracle_on_sphere162(self, sphere162):
        # the closed-form n = 3 blocks against the Clifford einsum, to the
        # kernel's own scale: A is a cancellation to rounding on the sphere
        C, A = (_flat(blocks) for blocks in _clifford_oracle(sphere162))
        scale = np.abs(C).max()
        assert np.abs(assemble_singular_cauchy(sphere162).dense() - C).max() <= 1e-14 * scale
        assert np.abs(assemble_kerzman_stein(sphere162).dense() - A).max() <= 1e-14 * scale

    @pytest.mark.parametrize("name", ["circle64", "deformed128", "sphere42"])
    def test_diagonal_is_calibrated_by_whole_rows(self, name, request):
        # the pass calibrates each row block as soon as it is built: bit for
        # bit I/2 minus the sum of the row's other blocks over the whole matrix
        mesh = request.getfixturevalue(name)
        sp, N = algebra(mesh.n).spinor, mesh.size
        blocks = assemble_singular_cauchy(mesh).matrix.reshape(sp.blocks, N, sp.size, N, sp.size)
        idx = np.arange(N)
        off = blocks.copy()
        off[:, idx, :, idx, :] = 0.0
        want = 0.5 * np.eye(sp.size) - off.sum(axis=3).transpose(1, 0, 2, 3)
        assert np.array_equal(blocks[:, idx, :, idx, :], want)

    @pytest.mark.parametrize("name", ["circle128", "deformed128", "sphere42"])
    def test_projection_is_c0_identity_plus_c1_C(self, name, request):
        # S+- is c1 C with c0 added on its diagonal, with no dense identity, and
        # equals c0 I + c1 C value for value
        from plemelj.operators import PROJECTION_COEFFS

        mesh = request.getfixturevalue(name)
        C = assemble_singular_cauchy(mesh).matrix
        for sign, (c0, c1) in PROJECTION_COEFFS.items():
            want = c0 * BlockOperator.identity(mesh).matrix + c1 * C
            assert np.array_equal(plemelj_projection(mesh, sign).matrix, want)

    @pytest.mark.parametrize("name", ["circle128", "sphere42"])
    def test_stored_matrix_is_the_reduced_blocks(self, name, request):
        mesh = request.getfixturevalue(name)
        N = mesh.size
        entries = 2 * N**2 if mesh.n == 2 else (2 * N) ** 2
        for op in (assemble_singular_cauchy(mesh), assemble_kerzman_stein(mesh)):
            assert op.matrix.size == entries and op.matrix.dtype == complex

    @pytest.mark.parametrize("name", ["circle128", "deformed128", "sphere42"])
    def test_kerzman_stein_diagonal_is_zero(self, name, request):
        # the cancelled kernel's limit at w = z is 0 on curves and the sphere
        mesh = request.getfixturevalue(name)
        sp, N = algebra(mesh.n).spinor, mesh.size
        blocks = assemble_kerzman_stein(mesh).matrix.reshape(sp.blocks, N, sp.size, N, sp.size)
        idx = np.arange(N)
        assert not np.any(blocks[:, idx, :, idx, :])

    def test_deformed_blocks_are_weighted_negative_transposes(self):
        # sigma_i A_0[i, j] = -sigma_j A_1[j, i]: I - A_0 is I + A_1 transposed, up to diag(sigma)
        mesh = make_deformed_curve(128, 0.1, 2)
        A0, A1 = mesh.sigma[None, :, None] * assemble_kerzman_stein(mesh).matrix
        assert np.abs(A0 + A1.T).max() <= 1e-15 * np.abs(A0).max()


class TestSurfaceKernelBlocks:
    def test_blocks_raise_where_cauchy_kernel_does(self, sphere42):
        # the n = 3 blocks take cauchy_kernel's real-or-complex decision on the
        # whole argument and its origin test; a skipped pair raises nothing
        import dataclasses

        from plemelj.algebra import OddDimensionComplexError

        def outcome(fn):
            try:
                fn()
            except (NullVectorError, OddDimensionComplexError) as exc:
                return type(exc)
            return None

        mesh = sphere42
        inside = np.array([0.1, 0.2, 0.3])
        for p in (inside, inside + 1e-16j, inside + 1e-3j, mesh.nodes[5], mesh.nodes[5] + 1e-7):
            want = outcome(lambda: cauchy_kernel(p - mesh.nodes))
            assert outcome(lambda: kernel_blocks(mesh, np.asarray(p, dtype=complex)[None, :])) is want, p
        assert outcome(lambda: kernel_blocks(mesh, mesh.nodes[5:6], np.array([5]))) is None
        offset = 1e-3j * np.random.default_rng(0).normal(size=mesh.nodes.shape)
        complex_sphere = dataclasses.replace(mesh, nodes=mesh.nodes + offset, cache={})
        assert outcome(lambda: assemble_singular_cauchy(complex_sphere)) is OddDimensionComplexError


class TestPlanarKernelBlocks:
    @pytest.mark.parametrize("name", ["circle128", "deformed128"])
    def test_blocks_pair_zeta_and_eta_with_the_spinor_frame(self, name, request):
        # block rho of G n from the frame's own tables, against the planar
        # kernels of _kernel_rows: zeta with block 0, eta with block 1
        mesh = request.getfixturevalue(name)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-2.0, 2.0, (40, 2)) + 1j * rng.normal(scale=0.3, size=(40, 2))
        G = cauchy_kernel(pts[:, None, :] - mesh.nodes[None, :, :])
        pairs = algebra(2).spinor.vector_pairs[..., 0, 0]  # B_rho(e_l e_k)
        want = np.einsum("mjl,jk,lkr->rmj", G, mesh.normals, pairs) / omega(2)
        got = kernel_blocks(mesh, pts)
        assert got.shape == (2, 40, mesh.size)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("name", ["circle128", "deformed128"])
    def test_null_pairs_raise_where_cauchy_kernel_does(self, name, request):
        # p - z_5 = t (1, i) + delta (1, -i) has square -4 t delta: planted on
        # the null cone (delta = 0), inside the tolerance, and just off it.
        # The reciprocal rows see p as node k, across the curve from node 5.
        import dataclasses

        from plemelj.algebra import null_tolerance
        from plemelj.operators import _null_rows

        def raises(fn):
            try:
                fn()
            except NullVectorError:
                return True
            return False

        mesh = request.getfixturevalue(name)
        k = 5 + mesh.size // 2
        t = 0.3
        tol = null_tolerance(t * np.array([1.0, 1j]))
        probes = [(mesh.nodes[5], True)]
        for f, on_cone in ((0.0, True), (0.5, True), (2.0, False), (10.0, False)):
            delta = f * tol / (4 * t)
            probes.append((mesh.nodes[5] + t * np.array([1.0, 1j]) + delta * np.array([1.0, -1j]), on_cone))
        for p, on_cone in probes:
            kernel = raises(lambda: cauchy_kernel(p - mesh.nodes))
            blocks = raises(lambda: kernel_blocks(mesh, p[None, :]))
            nodes = mesh.nodes.copy()
            nodes[k] = p
            planted = dataclasses.replace(mesh, nodes=nodes, cache={})
            rows = raises(lambda: _null_rows(planted, nodes[k - 1 : k + 1], np.arange(k - 1, k + 1)))
            assert kernel == blocks == rows == on_cone, (p, kernel, blocks, rows)

    @pytest.mark.parametrize("N", [128, 512])
    def test_reciprocal_kernel_as_accurate_as_division(self, N):
        # A's off-diagonal kernel, built from the reciprocal null pairs, against
        # a clongdouble reference; the division form it replaced, on the same
        # null differences, is the yardstick
        from plemelj.algebra import null_coordinates, null_differences
        from plemelj.mesh import make_deformed_curve

        mesh = make_deformed_curve(N, 0.05, 2)
        off = ~np.eye(N, dtype=bool)
        got = assemble_kerzman_stein(mesh).matrix * (omega(2) / mesh.sigma)
        dz = null_differences(mesh.nodes, mesh.nodes)
        dz[:, np.arange(N), np.arange(N)] = 1.0
        zn = null_coordinates(mesh.normals).T
        dot2 = dz[0] * zn[1][:, None] + dz[1] * zn[0][:, None]
        division = (zn[:, :, None] - zn[:, None, :]) / dz - dot2 / (dz[0] * dz[1])

        L = np.clongdouble
        z, n = mesh.nodes.astype(L), mesh.normals.astype(L)
        zl = np.stack([z[:, 0] + 1j * z[:, 1], z[:, 0] - 1j * z[:, 1]])
        nl = np.stack([n[:, 0] + 1j * n[:, 1], n[:, 0] - 1j * n[:, 1]])
        dl = zl[:, :, None] - zl[:, None, :]
        dl[:, np.arange(N), np.arange(N)] = 1.0
        ref = np.stack([-(nl[0][None, :] / dl[0] + nl[1][:, None] / dl[1]),
                        -(nl[1][None, :] / dl[1] + nl[0][:, None] / dl[0])])

        def error(K):
            return float(np.abs((K.astype(L) - ref)[:, off]).max())

        assert error(got) <= 1.05 * error(division)
        assert error(division) <= 1e-10 * float(np.abs(ref[:, off]).max())

    @pytest.mark.parametrize("name", ["circle128", "deformed128"])
    def test_null_pairs_are_antisymmetric_reciprocals(self, name, request):
        from plemelj.algebra import null_differences
        from plemelj.mesh import row_blocks
        from plemelj.operators import _null_rows

        mesh = request.getfixturevalue(name)
        idx = np.arange(mesh.size)
        R = np.concatenate(
            [_null_rows(mesh, mesh.nodes[rows], idx[rows]) for rows in row_blocks(mesh.size, mesh.size)], axis=1
        )
        assert R.shape == (2, mesh.size, mesh.size) and R.flags.c_contiguous
        assert np.array_equal(R, -R.transpose(0, 2, 1))
        assert not np.any(np.diagonal(R, axis1=1, axis2=2))
        dz = null_differences(mesh.nodes, mesh.nodes)
        off = ~np.eye(mesh.size, dtype=bool)
        inverse = 1.0 / dz[:, off]
        assert np.all(np.abs(R[:, off] - inverse) <= 4e-16 * np.abs(inverse))


class TestWeightedNorm:
    @staticmethod
    def _svd_norm(columns, mesh):
        from plemelj.operators import _node_weights

        w = _node_weights(mesh, columns.shape[-2] // mesh.size)
        return float(np.max(np.linalg.norm(w[:, None] * columns, 2, axis=(-2, -1))))

    @pytest.mark.parametrize("name", ["deformed128", "sphere42"])
    def test_gram_norm_matches_svd_norm(self, name, request):
        from plemelj.operators import weighted_norm

        mesh = request.getfixturevalue(name)
        s = algebra(mesh.n).spinor.size
        rng = np.random.default_rng(5)
        for scale, k in ((1.0, 25), (1e-16, 25), (1e-16, 1), (3e3, 72)):
            X = scale * (rng.normal(size=(2, mesh.size * s, k)) + 1j * rng.normal(size=(2, mesh.size * s, k)))
            want = self._svd_norm(X, mesh)
            assert abs(weighted_norm(X, mesh) - want) <= 1e-14 * want

    def test_gram_norm_of_floor_residuals(self, deformed128):
        # residual columns at the rounding floor, as verify sees them on the curves
        from plemelj.operators import smooth_family, weighted_norm

        C = assemble_singular_cauchy(deformed128).matrix
        Y = np.broadcast_to(smooth_family(deformed128, 1), C.shape[:1] + (deformed128.size, 25))
        R = C @ (C @ Y) - 0.25 * Y
        want = self._svd_norm(R, deformed128)
        assert want < 1e-14
        assert abs(weighted_norm(R, deformed128) - want) <= 1e-14 * want

    def test_gram_norm_of_zero_columns_is_zero(self, deformed128):
        import math

        from plemelj.operators import weighted_norm

        value = weighted_norm(np.zeros((2, deformed128.size, 25), dtype=complex), deformed128)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("k", [1, 2, 25])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gram_norm_of_non_finite_columns_is_never_small(self, deformed128, bad, k):
        # a NaN or Inf residual must fail the caps, so it gives NaN or Inf, or
        # raises; for small k LAPACK returns NaN eigenvalues without raising
        import math

        from plemelj.operators import weighted_norm

        X = np.full((2, deformed128.size, k), 1e-16, dtype=complex)
        X[1, 7, k - 1] = bad
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                value = weighted_norm(X, deformed128)
        except np.linalg.LinAlgError:
            return
        assert math.isnan(value) or value == math.inf


def test_omega_values():
    assert abs(omega(2) - 2 * np.pi) < 1e-14
    assert abs(omega(3) - 4 * np.pi) < 1e-14
    assert abs(omega(4) - 2 * np.pi**2) < 1e-14


class TestCauchyTransform:
    def test_constant_interior(self, circle128):
        one = BoundaryFunction.constant(circle128, 1.0)
        v = cauchy_transform(circle128, one, np.zeros(2))
        assert np.abs(v - [1, 0, 0, 0]).max() < 1e-10

    def test_monogenic_reproduction(self, circle128):
        f = monogenic_linear(circle128)
        v = cauchy_transform(circle128, f, np.array([0.3, 0.0]))
        assert np.abs(v - [0, 0, 0.3, 0]).max() < 1e-8

    def test_constant_exterior_vanishes(self, circle128):
        one = BoundaryFunction.constant(circle128, 1.0)
        v = cauchy_transform(circle128, one, np.array([3.0, 0.0]))
        assert np.linalg.norm(v) < 1e-10

    def test_near_boundary_refused(self, circle128):
        one = BoundaryFunction.constant(circle128, 1.0)
        with pytest.raises(NullVectorError):
            cauchy_transform(circle128, one, circle128.nodes[0])

    def test_deformed_reproduces_constants(self, deformed128):
        one = BoundaryFunction.constant(deformed128, 1.0)
        v = cauchy_transform(deformed128, one, np.zeros(2))
        assert np.abs(v - [1, 0, 0, 0]).max() < 1e-10

    def test_transforms_validate_their_mesh(self, circle64):
        # a mesh that validate_domain_manifold refuses takes no transform, as
        # it takes no assembly: this one has no edges and no curve parameter
        import dataclasses

        bare = dataclasses.replace(circle64, theta=None, cache={})
        one = BoundaryFunction.constant(bare, 1.0)
        p = np.array([0.1, 0.2], dtype=complex)
        for transform in (
            lambda: cauchy_transform(bare, one, p),
            lambda: cauchy_transform_points(bare, one, p[None, :]),
            lambda: assemble_singular_cauchy(bare),
        ):
            with pytest.raises(ValueError, match="no edges and no curve parameter"):
                transform()


class TestSingularCauchy:
    def test_constant_calibration_exact(self, circle128):
        C = assemble_singular_cauchy(circle128)
        one = BoundaryFunction.constant(circle128, 1.0)
        assert np.abs(C.apply(one).values - 0.5 * one.values).max() < 1e-14
        # any constant multivector
        b = BoundaryFunction(circle128, np.tile([0.3, 1.0, -2.0, 0.5j], (circle128.size, 1)))
        assert np.abs(C.apply(b).values - 0.5 * b.values).max() < 1e-13

    def test_squares_to_quarter_identity(self, circle128, circle256):
        for mesh in (circle128, circle256):
            C = assemble_singular_cauchy(mesh)
            res = (C @ C).dense() - 0.25 * np.eye(C.dense().shape[0])
            assert smooth_matrix_norm(res, mesh) < 1e-3

    def test_apply_squared_to_random(self, circle128):
        C = assemble_singular_cauchy(circle128)
        f = band_limited_family(circle128, 1, seed=11)[0]
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
        # C* = C - A is the pairing transpose of C
        C = assemble_singular_cauchy(circle128)
        Cs = BlockOperator(circle128, C.matrix - assemble_kerzman_stein(circle128).matrix)
        f = band_limited_family(circle128, 1, seed=1)[0]
        g = band_limited_family(circle128, 1, seed=2)[0]
        lhs = pairing(C.apply(f), g)
        rhs = pairing(f, Cs.apply(g))
        assert np.abs(lhs - rhs).max() < 1e-8 * max(1.0, np.abs(lhs).max())


def _row_major_curve_operators(mesh):
    """Oracle: a curve's C and A blocks (2, N, N), built row-major from _null_rows by the expressions of a row pass.

    A_rho[i, j] = (zeta_rho(n_j) R_rho + zeta_rhobar(n_i) R_rhobar)[i, j] sigma_j / -omega, and C's
    rows are the weighted normals zeta_rho(n_j) W_ij / -omega times R, with the alternate-point
    weights W from the parity of i - j and the calibrated diagonal I/2 - sum_{j != i} C_ij.
    """
    from plemelj.algebra import null_coordinates
    from plemelj.mesh import row_blocks
    from plemelj.operators import _null_rows

    N = mesh.size
    idx = np.arange(N)
    R = np.concatenate([_null_rows(mesh, mesh.nodes[rows], idx[rows]) for rows in row_blocks(N, N)], axis=1)
    zn = null_coordinates(mesh.normals).T
    A = zn[:, None, :] * R
    A += zn[::-1, :, None] * R[::-1]
    A *= mesh.sigma / -omega(2)
    W = ((idx[:, None] - idx[None, :]) % 2).astype(float) * (2.0 * mesh.sigma)[None, :]
    C = np.multiply(zn[:, None, :] * (W / -omega(2)), R)
    C[:, idx, idx] = 0.0
    C[:, idx, idx] = 0.5 - C.sum(axis=2)
    return C, A


class TestColumnMajorKerzmanStein:
    # a curve's pass writes A's blocks column-major, from the transposed
    # kernel rows: every value is the row-major build's, so C, A and the LU
    # factors of I +- A are unchanged; the sphere's blocks stay row-major
    @pytest.mark.parametrize(
        "build",
        [lambda: make_circle(64), lambda: make_deformed_curve(128, 0.1, 2), lambda: make_deformed_curve(512, 0.05, 2)],
        ids=["circle64", "deformed128", "deformed512"],
    )
    def test_curve_blocks_equal_the_row_major_build(self, build):
        mesh = build()
        C, A = assemble_singular_cauchy(mesh).matrix, assemble_kerzman_stein(mesh).matrix
        want_C, want_A = _row_major_curve_operators(mesh)
        assert C.flags.c_contiguous and np.array_equal(C.view(np.uint64), want_C.view(np.uint64))
        assert A.shape == want_A.shape and all(block.flags.f_contiguous for block in A)
        # zeros may differ in sign, every other entry bit for bit
        assert np.array_equal(A, want_A)

    def test_lu_factors_equal_those_of_the_row_major_build(self):
        from plemelj.hardy import _kerzman_stein_lu
        from plemelj.linsolve import factor
        from plemelj.operators import PROJECTION_COEFFS

        mesh = make_deformed_curve(128, 0.1, 2)
        _, A = _row_major_curve_operators(mesh)
        idx = np.arange(mesh.size)
        for sign, (_, c1) in PROJECTION_COEFFS.items():
            systems = [np.multiply(block, c1, order="F") for block in A]
            for system in systems:
                system[idx, idx] += 1.0
            want, got = factor(systems), _kerzman_stein_lu(mesh, sign)
            assert got.cond == want.cond
            for (lu, piv), (want_lu, want_piv) in zip(got.blocks, want.blocks):
                assert np.array_equal(lu, want_lu) and np.array_equal(piv, want_piv)

    def test_surface_blocks_stay_row_major(self, sphere42):
        from plemelj.operators import _surface_rows, _vector_blocks

        mesh, N = sphere42, sphere42.size
        idx = np.arange(N)
        G = _surface_rows(mesh, mesh.nodes, idx, mesh.sigma)
        C = _vector_blocks(G, mesh.normals)
        A = _vector_blocks(G, mesh.normals, left=True) + C
        A[:, idx, :, idx, :] = 0.0
        C[:, idx, :, idx, :] = 0.0
        C[:, idx, :, idx, :] = 0.5 * np.eye(2) - np.cumsum(C, axis=3)[:, :, :, -1].transpose(1, 0, 2, 3)
        for op, want in ((assemble_singular_cauchy(mesh), C), (assemble_kerzman_stein(mesh), A)):
            assert op.matrix.flags.c_contiguous
            assert np.array_equal(op.matrix.view(np.uint64), want.reshape(1, 2 * N, 2 * N).view(np.uint64))

    def test_validation_takes_the_node_pairs_null_test(self):
        # two nodes 1e-7 apart along a real direction pass the margin (|u.u| =
        # |u|^2) but not the kernel's null test; the node pass raises from
        # validation's record
        import dataclasses

        from plemelj.mesh import validate_domain_manifold

        mesh = make_circle(64)
        nodes = mesh.nodes.copy()
        nodes[1] = nodes[0] + 1e-7 * np.array([0.6, 0.8])
        planted = dataclasses.replace(mesh, nodes=nodes, cache={})
        report = validate_domain_manifold(planted)
        assert report.passed and report.pair_margin == pytest.approx(1.0) and report.null_pair
        assert not validate_domain_manifold(mesh).null_pair
        for assemble in (assemble_singular_cauchy, assemble_kerzman_stein):
            with pytest.raises(NullVectorError):
                assemble(planted)


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
        assert abs(p[0] - circle128.sigma[3]) < 1e-14
        assert np.abs(p[1:]).max() < 1e-14

    def test_norm_positive_definite(self, circle128):
        f = band_limited_family(circle128, 1, seed=3)[0]
        assert l2_norm(f) > 0
        zero = BoundaryFunction.constant(circle128, 0.0)
        assert l2_norm(zero) == 0.0

    def test_mesh_mismatch_raises(self, circle128, circle256):
        f = BoundaryFunction.constant(circle128, 1.0)
        g = BoundaryFunction.constant(circle256, 1.0)
        with pytest.raises(ValueError):
            pairing(f, g)


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
        f = band_limited_family(circle256, 1, seed=5)[0]
        Sm = plemelj_projection(circle256, "-")
        target = -1.0 * Sm.apply(f)
        idx = np.arange(circle256.size)
        pts = circle256.nodes * (1 + 1e-7)
        vals = cauchy_transform_points(circle256, f, pts, subtract_node=idx, interior=False)
        assert np.abs(vals - target.values).max() < 1e-6

    @pytest.mark.parametrize("name", ["circle64", "deformed128", "sphere42"])
    def test_subtracted_matches_clifford_reference(self, name):
        # sum_j G(p - z_j) n_j W_ij (f_j - f_i) / omega + chi f_i as Clifford
        # coefficient contractions, against the spinor-block sum, at points
        # along the normals on both sides
        mesh = {
            "circle64": lambda: make_circle(64),
            "deformed128": lambda: make_deformed_curve(128, 0.1, 2),
            "sphere42": lambda: make_sphere(42),
        }[name]()
        alg = algebra(mesh.n)
        f = band_limited_family(mesh, 1, seed=3)[0]
        idx = np.arange(mesh.size)
        nrm = mesh.normals / np.sqrt(np.sum(np.abs(mesh.normals) ** 2, axis=1))[:, None]
        nf = np.einsum("jab,jb->ja", alg.left_vector_matrix(mesh.normals), f.values)
        pre_f = np.einsum("lab,jb->laj", alg.generator_left, nf)
        pre_1 = np.einsum("lab,jb->laj", alg.generator_left, alg.embed_vector(mesh.normals))
        W = quad_weights(mesh)
        for interior in (True, False):
            for s in (2 * mesh.h, mesh.h / 4, mesh.h / 32):
                pts = mesh.nodes + (-s if interior else s) * nrm
                G = cauchy_kernel(pts[:, None, :] - mesh.nodes[None, :, :])
                base = np.einsum("mjl,laj,mj->ma", G, pre_f, W) / omega(mesh.n)
                unit = np.einsum("mjl,laj,mj->ma", G, pre_1, W) / omega(mesh.n)
                Lf = np.einsum("mab,mb->ma", alg.left_matrix(unit), f.values)
                want = base - (Lf - float(interior) * f.values)
                got = cauchy_transform_points(mesh, f, pts, subtract_node=idx, interior=interior)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (interior, s)

    def test_singular_weights_refuse_a_mesh_that_is_no_even_closed_curve(self, circle64):
        # the alternate-point rule is the only n = 2 singular rule: a curve
        # without its parameter (its edges given, so that it validates), or
        # with odd N, takes no weights at all
        import dataclasses

        m = circle64
        bare = dataclasses.replace(m, theta=None, edges=m.edge_list(), cache={})
        odd = dataclasses.replace(
            m, nodes=m.nodes[:63], normals=m.normals[:63], sigma=m.sigma[:63], sigma_abs=m.sigma_abs[:63],
            theta=m.theta[:63], cache={},
        )
        for mesh in (bare, odd):
            f = BoundaryFunction.constant(mesh, 1.0)
            with pytest.raises(ValueError, match="even node count"):
                cauchy_transform_points(mesh, f, 0.5 * mesh.nodes[:3], subtract_node=[0, 1, 2])
            with pytest.raises(ValueError, match="even node count"):
                assemble_singular_cauchy(mesh)

    def test_weighted_null_pair_raises(self, circle64):
        # the point is node 1; in node 0's row its pair carries the weight
        # 2 sigma, so it cannot be dropped
        assert quad_weights(circle64)[0, 1] != 0.0
        f = BoundaryFunction.constant(circle64, 1.0)
        with pytest.raises(NullVectorError):
            cauchy_transform_points(circle64, f, circle64.nodes[1][None, :], subtract_node=[0])


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
    f = band_limited_family(circle128, 1, seed=9)[0]
    g = band_limited_family(circle128, 1, seed=10)[0]
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
