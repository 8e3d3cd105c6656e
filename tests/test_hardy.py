import numpy as np
import pytest

from conftest import monogenic_linear, pairing
from plemelj.hardy import (
    boundary_limit_test,
    decompose,
    kerzman_stein_factor,
    szego_matrix,
    szego_project,
    verify_identities,
)
from plemelj.linsolve import Factorization, IllConditionedError, factor
from plemelj.maximal import band_limited_family
from plemelj.mesh import make_circle, make_deformed_curve
from plemelj.operators import (
    BoundaryFunction,
    _from_spinor,
    _to_spinor,
    assemble_kerzman_stein,
    assemble_singular_cauchy,
    l2_norm,
    plemelj_projection,
    smooth_family,
    smooth_matrix_norm,
    weighted_norm,
)


class TestDecompose:
    def test_constants(self, circle256):
        one = BoundaryFunction.constant(circle256, 1.0)
        dec = decompose(one)
        assert l2_norm(dec.f_plus - one) < 1e-6
        assert l2_norm(dec.f_minus) < 1e-6
        assert dec.residual == 0.0

    def test_exterior_pole_trace_is_interior_hardy(self, circle256):
        f = BoundaryFunction.kernel_trace(circle256, np.array([3.0, 0.0]))
        dec = decompose(f)
        assert l2_norm(dec.f_plus - f) / l2_norm(f) < 1e-8
        assert l2_norm(dec.f_minus) / l2_norm(f) < 1e-8

    def test_interior_pole_trace_is_exterior_hardy(self, circle256):
        f = BoundaryFunction.kernel_trace(circle256, np.array([0.3, 0.0]))
        dec = decompose(f)
        assert l2_norm(dec.f_plus) / l2_norm(f) < 1e-8
        assert l2_norm(dec.f_minus - f) / l2_norm(f) < 1e-8

    def test_reconstruction_exact_by_construction(self, circle256):
        for seed in range(5):
            f = band_limited_family(circle256, 1, seed=seed)[0]
            dec = decompose(f)
            assert dec.residual < 1e-12

    def test_linearity(self, circle256):
        f = band_limited_family(circle256, 1, seed=1)[0]
        g = band_limited_family(circle256, 1, seed=2)[0]
        a, b = 0.7 - 0.2j, 1.3j
        lhs = decompose(a * f + b * g)
        rf, rg = decompose(f), decompose(g)
        assert l2_norm(lhs.f_plus - (a * rf.f_plus + b * rg.f_plus)) < 1e-12
        assert l2_norm(lhs.f_minus - (a * rf.f_minus + b * rg.f_minus)) < 1e-12

    def test_exterior_sign_gap_reported(self, circle256):
        # the stored f- = S- f differs from the negated convention -S- f
        # by 2 S- f; the gap is reported, not asserted to vanish
        f = band_limited_family(circle256, 1, seed=3)[0]
        dec = decompose(f)
        assert dec.exterior_sign_gap == pytest.approx(2 * l2_norm(dec.f_minus), rel=1e-10)


def _monogenic_even_basis(mesh, kmax):
    """Discrete traces of interior-monogenic functions with even values.

    Built from explicit trigonometric data, independently of any operator:
    e^{ik t}(1 + i e12)/2 for k >= 0 and e^{-ik t}(1 - i e12)/2 for k >= 1.
    """
    cols = []
    for k in range(kmax + 1):
        v = np.zeros((mesh.size, 4), dtype=complex)
        v[:, 0] = np.exp(1j * k * mesh.theta) / 2
        v[:, 3] = 1j * np.exp(1j * k * mesh.theta) / 2
        cols.append(v.reshape(-1))
    for k in range(kmax + 1):
        v = np.zeros((mesh.size, 4), dtype=complex)
        v[:, 0] = np.exp(-1j * k * mesh.theta) / 2
        v[:, 3] = -1j * np.exp(-1j * k * mesh.theta) / 2
        cols.append(v.reshape(-1))
    return np.array(cols).T


class TestSzego:
    def test_circle_projection_fixes_constants(self, circle128):
        one = BoundaryFunction.constant(circle128, 1.0)
        p = szego_project(one, "+")
        assert l2_norm(p - one) < 1e-5

    def test_idempotence(self, circle128):
        P = szego_matrix(circle128, "+")
        assert smooth_matrix_norm(P.dense() @ P.dense() - P.dense(), circle128) < 1e-3

    def test_deformed_idempotence_at_rounding(self):
        # A's kernel is continuous with diagonal limit 0, so P+ = S+ (I + A)^{-1}
        # is a projection to rounding on the smooth family
        mesh = make_deformed_curve(128, 0.1, 2)
        P = szego_matrix(mesh, "+").matrix
        PY = P @ smooth_family(mesh, P.shape[-1] // mesh.size)
        assert weighted_norm(P @ PY - PY, mesh) <= 1e-12

    def test_deformed_projection_converges_spectrally(self):
        # P+ f at N = 128 against N = 256 on the shared nodes, for the same smooth f
        p, q = (
            szego_project(band_limited_family(make_deformed_curve(N, 0.1, 2), 1, seed=3)[0], "+").values
            for N in (128, 256)
        )
        assert np.abs(p - q[::2]).max() <= 1e-12 * np.abs(q).max()

    def test_matches_qr_oracle_on_scalar_data(self, circle128):
        # independent oracle: orthogonal projector onto the span of
        # explicit interior-monogenic traces, w.r.t. the Hermitian
        # |sigma|-weighted inner product
        mesh = circle128
        rng = np.random.default_rng(42)
        ms = np.arange(-8, 9)
        coefs = rng.normal(size=ms.size) + 1j * rng.normal(size=ms.size)
        fv = np.zeros((mesh.size, 4), dtype=complex)
        fv[:, 0] = np.exp(1j * np.outer(mesh.theta, ms)) @ coefs
        f = BoundaryFunction(mesh, fv)

        basis = _monogenic_even_basis(mesh, 12)
        w = np.repeat(np.sqrt(mesh.sigma_abs), 4)
        q, _ = np.linalg.qr(w[:, None] * basis)
        proj = (q @ (q.conj().T @ (w * f.flat()))) / w

        p = szego_project(f, "+")
        gap = np.abs(p.flat() - proj).max()
        assert gap < 1e-4

    def test_orthogonality_wrt_pairing_on_real_mesh(self, circle128):
        P = szego_matrix(circle128, "+")
        f = band_limited_family(circle128, 1, seed=5)[0]
        g = band_limited_family(circle128, 1, seed=6)[0]
        pf = BoundaryFunction(circle128, (P.dense() @ f.flat()).reshape(-1, 4))
        g_perp = g - BoundaryFunction(circle128, (P.dense() @ g.flat()).reshape(-1, 4))
        val = pairing(pf, g_perp)
        assert np.linalg.norm(val) / (l2_norm(f) * l2_norm(g)) < 1e-6

    def test_condition_estimates_small(self, circle128, deformed128, sphere162):
        for mesh in (circle128, deformed128, sphere162):
            A = assemble_kerzman_stein(mesh).dense()
            assert factor([np.eye(A.shape[0]) + A]).cond <= 100

    def test_factors_of_I_plus_A_leave_A_untouched(self):
        mesh = make_deformed_curve(128, 0.05, 2)
        A = assemble_kerzman_stein(mesh).matrix
        before = A.copy()
        ks = kerzman_stein_factor(mesh)
        assert np.array_equal(A, before)
        conds = []
        for block, (lu, piv) in zip(A, ks.blocks):
            ref = factor([np.eye(block.shape[0]) + block])
            assert np.array_equal(lu, ref.blocks[0][0]) and np.array_equal(piv, ref.blocks[0][1])
            conds.append(ref.cond)
        assert ks.cond == max(conds)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_surfaces_solve_by_gmres_and_curves_by_lu(self, sign, deformed128, sphere162):
        # the fork is the dimension: on the sphere every solve takes one
        # product, and P+- f is the LU route's to rounding
        from plemelj.hardy import _kerzman_stein_lu
        from plemelj.linsolve import GMRESSolver

        assert type(_kerzman_stein_lu(deformed128, sign)) is Factorization
        solver = _kerzman_stein_lu(sphere162, sign)
        assert type(solver) is GMRESSolver
        f = band_limited_family(sphere162, 1, seed=2)[0]
        A = assemble_kerzman_stein(sphere162).matrix
        c1 = 1.0 if sign == "+" else -1.0
        lu = factor([np.eye(A.shape[1]) + c1 * A[0]])
        S = plemelj_projection(sphere162, sign).matrix
        want = BoundaryFunction(sphere162, _from_spinor(S @ lu.solve(_to_spinor(f.values, sphere162)), sphere162))
        got = szego_project(f, sign)
        assert l2_norm(got - want) <= 1e-13 * l2_norm(want)
        assert abs(solver.cond - lu.cond) <= 1e-14
        assert set(solver.iterations) == {1}

    def test_plus_plus_minus_reproduces_on_circle(self, circle128):
        # orthogonal + oblique projectors coincide where A = 0
        Pp = szego_matrix(circle128, "+")
        Pm = szego_matrix(circle128, "-")
        eye = np.eye(Pp.dense().shape[0])
        assert smooth_matrix_norm(Pp.dense() + Pm.dense() - eye, circle128) < 1e-6

    def test_p_minus_is_idempotent_on_deformed128(self, deformed128):
        # P-(I - A) = S-: the exterior projection solves against I - A, not I + A
        Pm = szego_matrix(deformed128, "-").dense()
        assert smooth_matrix_norm(Pm @ Pm - Pm, deformed128) <= 1e-6

    def test_deformed_p_plus_p_minus_gap_tracks_A(self, deformed128):
        # on complex-deformed boundaries the two orthogonal projectors do
        # NOT sum to the identity; the defect is of the size of A
        Pp = szego_matrix(deformed128, "+")
        Pm = szego_matrix(deformed128, "-")
        eye = np.eye(Pp.dense().shape[0])
        gap = smooth_matrix_norm(Pp.dense() + Pm.dense() - eye, deformed128)
        normA = assemble_kerzman_stein(deformed128).operator_norm()
        assert 0.1 * normA < gap < 10 * normA


def _dense_residuals(mesh):
    """Reference: each identity residual as a dense (N d)^2 matrix, then its smooth-family norm."""
    C = assemble_singular_cauchy(mesh).dense()
    Sp = plemelj_projection(mesh, "+").dense()
    Sm = plemelj_projection(mesh, "-").dense()
    A = assemble_kerzman_stein(mesh).dense()
    Pp = szego_matrix(mesh, "+").dense()
    Pm = szego_matrix(mesh, "-").dense()
    eye = np.eye(C.shape[0])
    res = {
        "S+^2 - S+": Sp @ Sp - Sp,
        "S-^2 - S-": Sm @ Sm - Sm,
        "S+S-": Sp @ Sm,
        "S-S+": Sm @ Sp,
        "C^2 - I/4": C @ C - 0.25 * eye,
        "S+ + S- - I": Sp + Sm - eye,
        "P+ - S+P+": Pp - Sp @ Pp,
        "P- - S-P-": Pm - Sm @ Pm,
        "P+ - S+ - P+(C*-C)": Pp - Sp + Pp @ A,
    }
    return {name: smooth_matrix_norm(mat, mesh) for name, mat in res.items()}


class TestVerifyIdentities:
    @pytest.mark.parametrize("name", ["circle128", "deformed128", "sphere42"])
    def test_residuals_match_dense_oracle(self, name, request):
        mesh = request.getfixturevalue(name)
        got = {r.identity: r.residual for r in verify_identities(mesh, refine=False)}
        want = _dense_residuals(mesh)
        assert got.keys() == want.keys()
        for key in want:
            assert abs(got[key] - want[key]) <= 1e-13, (key, got[key], want[key])

    def test_rows_carry_three_residuals_and_one_zero(self, deformed128):
        # S+- = I/2 +- C: the five S rows are ||(C^2 - I/4) Y|| and the two P
        # rows ||(I/4 - C^2)(I + A)^{-1} Y||, each evaluated once
        r = {rep.identity: rep.residual for rep in verify_identities(deformed128, refine=False)}
        s_rows = ["S+^2 - S+", "S-^2 - S-", "S+S-", "S-S+", "C^2 - I/4"]
        assert len({r[k] for k in s_rows}) == 1
        assert r["P+ - S+P+"] == r["P- - S-P-"]
        assert r["S+ + S- - I"] == 0.0
        distinct = {r["C^2 - I/4"], r["P+ - S+P+"], r["P+ - S+ - P+(C*-C)"]}
        assert len(distinct) == 3 and min(distinct) > 0.0

    def test_cond_limit_checked_on_every_call(self):
        mesh = make_circle(32)  # A = 0 on the circle: the system is I, estimate 1
        assert kerzman_stein_factor(mesh).cond == pytest.approx(1.0)
        with pytest.raises(IllConditionedError):
            kerzman_stein_factor(mesh, cond_limit=0.5)
        with pytest.raises(IllConditionedError):
            verify_identities(mesh, refine=False, cond_limit=0.5)

    def test_each_mesh_validated_once(self, monkeypatch):
        # the builder's passing report is reused by both assemblers
        import plemelj.mesh as mesh_mod

        sizes = []
        validate = mesh_mod.validate_domain_manifold

        def counting(mesh, margin=0.1):
            sizes.append(mesh.size)
            return validate(mesh, margin)

        monkeypatch.setattr(mesh_mod, "validate_domain_manifold", counting)
        verify_identities(mesh_mod.make_deformed_curve(128, 0.05, 2), refine=False)
        assert sizes == [128]
        verify_identities(mesh_mod.make_deformed_curve(128, 0.05, 2), refine=True)
        assert sizes == [128, 128, 256]

    def test_pair_kernel_built_once(self, monkeypatch):
        # C and A share one pass of the kernel rows over the 128 x 128 node
        # pairs, each row's reciprocal null pairs (2, rows, N) taken once, and
        # no Cartesian (N, N, 2) kernel is evaluated
        import plemelj.operators as operators_mod
        from plemelj.mesh import make_deformed_curve

        kernel_shapes, passes = [], []
        kernel, kernel_rows = operators_mod.cauchy_kernel, operators_mod._kernel_rows

        def counting_kernel(z):
            kernel_shapes.append(np.shape(z))
            return kernel(z)

        def counting_rows(mesh, points, *args, **kwargs):
            passes.append([])
            for rows, K in kernel_rows(mesh, points, *args, **kwargs):
                passes[-1].append(K.shape)
                yield rows, K

        monkeypatch.setattr(operators_mod, "cauchy_kernel", counting_kernel)
        monkeypatch.setattr(operators_mod, "_kernel_rows", counting_rows)
        verify_identities(make_deformed_curve(128, 0.05, 2), refine=False)
        (shapes,) = passes
        assert sum(shape[1] for shape in shapes) == 128 and {shape[::2] for shape in shapes} == {(2, 128)}
        assert (128, 128, 2) not in kernel_shapes

    def test_sphere_kernel_evaluated_once_per_pair(self, monkeypatch, tmp_path):
        # a szego job on the sphere builds C and A from one pass over the node
        # pairs, and no (N, N, 3) array of kernel values is evaluated or kept
        import plemelj.cli as cli_mod
        import plemelj.operators as operators_mod

        meshes, kernel_shapes, surface_rows = [], [], []
        build, kernel, rows = cli_mod.build_mesh, operators_mod.cauchy_kernel, operators_mod._surface_rows

        def keeping_build(cfg, N=None):
            meshes.append(build(cfg, N))
            return meshes[-1]

        def counting_kernel(z):
            kernel_shapes.append(np.shape(z))
            return kernel(z)

        def counting_rows(mesh, points, skip, W):
            out = rows(mesh, points, skip, W)
            surface_rows.append(out.shape)
            return out

        monkeypatch.setattr(cli_mod, "build_mesh", keeping_build)
        monkeypatch.setattr(operators_mod, "cauchy_kernel", counting_kernel)
        monkeypatch.setattr(operators_mod, "_surface_rows", counting_rows)
        args = ["--command", "szego", "--geometry", "sphere", "--N", "162", "--out", str(tmp_path)]
        assert cli_mod.main(args) == 0
        (mesh,) = meshes
        N = mesh.size
        assert sum(shape[1] for shape in surface_rows) == N and {shape[::2] for shape in surface_rows} == {(3, N)}
        assert (N, N, 3) not in kernel_shapes
        kept = [v for value in mesh.cache.values() for v in (value if isinstance(value, tuple) else (value,))]
        arrays = [getattr(v, "matrix", v) for v in kept]
        assert not any(np.shape(a) == (N, N, 3) for a in arrays if isinstance(a, np.ndarray))

    def test_curve_verify_takes_no_pair_square_and_no_svd(self, monkeypatch):
        # on a curve, validation takes the pair ratios |square(u)| / |u|^2 from
        # null coordinates, with no (rows, N, 2) array of differences, and the
        # residual norms come from k x k Gram matrices
        import importlib

        import plemelj.mesh as mesh_mod
        from plemelj.operators import weighted_norm

        algebra_mod = importlib.import_module("plemelj.algebra")  # the package exports the function

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")

            return call

        for mod in (algebra_mod, mesh_mod):
            square = getattr(mod, "vector_square")

            def no_pair_square(z, square=square):
                assert np.ndim(z) < 3, f"vector_square called on pair differences {np.shape(z)}"
                return square(z)

            monkeypatch.setattr(mod, "vector_square", no_pair_square)
        norm = np.linalg.norm

        def norm_without_svd(x, ord=None, axis=None, keepdims=False):
            if ord in (2, -2, "nuc"):  # the matrix norms numpy takes from an SVD
                raise AssertionError("SVD norm called")
            return norm(x, ord, axis, keepdims)

        monkeypatch.setattr(np.linalg, "svd", forbidden("svd"))
        monkeypatch.setattr(np.linalg, "norm", norm_without_svd)
        mesh = mesh_mod.make_deformed_curve(128, 0.05, 2)
        assert mesh_mod.validate_domain_manifold(mesh).passed
        assert weighted_norm(np.ones((2, 128, 3), dtype=complex), mesh) > 0.0
        assert all(rep.passed for rep in verify_identities(mesh, refine=False))

    def test_kerzman_stein_path_takes_no_numpy_qr(self, monkeypatch):
        # the smooth basis takes its QR from linsolve (scipy), on a fresh mesh
        # so that no cached basis hides a numpy call
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.qr called")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        mesh = make_deformed_curve(128, 0.05, 2)
        assert all(rep.passed for rep in verify_identities(mesh, refine=False))
        assert l2_norm(szego_project(band_limited_family(mesh, 1, seed=3)[0])) > 0.0

    def test_circle_all_pass(self, circle128):
        reports = verify_identities(circle128, refine=True)
        for rep in reports:
            assert rep.passed, rep.identity
            assert rep.residual <= 1e-3

    def test_deformed_caps(self, deformed128):
        reports = verify_identities(deformed128, refine=False)
        for rep in reports:
            assert rep.residual <= 1e-2, (rep.identity, rep.residual)

    def test_partition_identity_exact(self, circle128):
        reports = {r.identity: r for r in verify_identities(circle128, refine=False)}
        assert reports["S+ + S- - I"].residual == 0.0

    def test_ks_identity_algebraic(self, circle128):
        reports = {r.identity: r for r in verify_identities(circle128, refine=False)}
        assert reports["P+ - S+ - P+(C*-C)"].residual <= 1e-10


class TestBoundaryLimits:
    def test_interior_constants_at_floor(self, circle256):
        one = BoundaryFunction.constant(circle256, 1.0)
        rep = boundary_limit_test(one, "interior", depth=8, r=1.0)
        assert np.all(rep.errors < 1e-6)

    def test_exterior_constants_at_floor(self, circle256):
        one = BoundaryFunction.constant(circle256, 1.0)
        rep = boundary_limit_test(one, "exterior", depth=8, r=1.0)
        assert np.all(rep.errors < 1e-6)

    def test_monogenic_data_decreasing_to_small(self, circle256):
        f = monogenic_linear(circle256)
        rep = boundary_limit_test(f, "interior", depth=16, r=1.0)
        e = rep.errors
        assert np.all(np.diff(e[2:7]) < 0)
        assert e.min() < 1e-4

    def test_unsubtracted_floor_kicks_in(self, circle256):
        # the naive evaluator hits the h/s quadrature wall below s ~ h
        f = monogenic_linear(circle256)
        rep = boundary_limit_test(f, "interior", depth=10, r=1.0, subtract=False)
        assert rep.errors[-1] > rep.errors[5]

    def test_deformed_interior_constants(self, deformed256):
        one = BoundaryFunction.constant(deformed256, 1.0)
        rep = boundary_limit_test(one, "interior", depth=6, r=0.5)
        assert np.all(rep.errors < 1e-6)

    @pytest.mark.parametrize("region", ["inside", "Interior", ""])
    def test_unknown_region_refused(self, circle64, region):
        # any region but the two ran the exterior path and was reported as given
        one = BoundaryFunction.constant(circle64, 1.0)
        with pytest.raises(ValueError, match="region must be 'interior' or 'exterior'"):
            boundary_limit_test(one, region, depth=2, r=0.5)
