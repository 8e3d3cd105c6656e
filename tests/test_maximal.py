import numpy as np
import pytest

from conftest import kernel_blocks, pair_kernel
from plemelj.algebra import algebra, cauchy_kernel
from plemelj.mesh import EmptyBallError, cone_parameters, make_circle, make_deformed_curve, make_sphere
from plemelj.maximal import (
    _family_maximal,
    _family_nontangential,
    _pair_distances,
    band_limited_family,
    bound_diagnostics,
    default_radii,
    maximal_function,
)
from plemelj.operators import (
    BoundaryFunction,
    _transform_blocks,
    _weighted_columns,
    assemble_singular_cauchy,
    l2_norm,
    omega,
)


def _clifford_transform_weights(mesh, values):
    """(n, d, N) array P with sum_jl G_l(u - z_j) P[l, :, j] = sum_j G(u - z_j) n_j f_j sigma_j."""
    alg = algebra(mesh.n)
    nf = np.einsum("jab,jb->ja", alg.left_vector_matrix(mesh.normals), values)
    return np.einsum("lab,jb->laj", alg.generator_left, nf * mesh.sigma[:, None])


def _relative_gap(got, want):
    return np.abs(np.asarray(got) - want).max() / np.abs(want).max()


class TestMaximalFunction:
    def test_constants_exact(self, circle128):
        one = BoundaryFunction.constant(circle128, 1.0)
        M = maximal_function(circle128, one)
        assert np.abs(M - 1.0).max() == 0.0

    def test_spike_decays_like_weight_over_measure(self, circle128):
        vals = np.zeros((circle128.size, 4), dtype=complex)
        vals[0, 0] = 1.0
        f = BoundaryFunction(circle128, vals)
        M = maximal_function(circle128, f)
        # far from the spike only the largest ball sees it
        w0 = circle128.sigma_abs[0]
        assert M[64] <= w0 / (0.5 * circle128.total_measure()) * 1.05
        assert M[0] > 10 * M[64]

    def test_lower_bound_at_smallest_radius(self, circle128):
        f = band_limited_family(circle128, 1, seed=0)[0]
        from plemelj.algebra import algebra

        norms = algebra(2).norm(f.values)
        M = maximal_function(circle128, f)
        # local average at r = 2h is within discretization of the value
        assert np.all(M >= norms - 0.2 * np.abs(norms).max())

    def test_sublinear_and_homogeneous(self, circle128):
        f = band_limited_family(circle128, 1, seed=1)[0]
        g = band_limited_family(circle128, 1, seed=2)[0]
        Mf = maximal_function(circle128, f)
        Mg = maximal_function(circle128, g)
        Mfg = maximal_function(circle128, f + g)
        assert np.all(Mfg <= Mf + Mg + 1e-12)
        assert np.abs(maximal_function(circle128, (2.5j) * f) - 2.5 * Mf).max() < 1e-12

    def test_monotone_under_schedule_extension(self, circle128):
        f = band_limited_family(circle128, 1, seed=3)[0]
        radii = default_radii(circle128)
        M1 = maximal_function(circle128, f, radii[:3])
        M2 = maximal_function(circle128, f, radii)
        assert np.all(M2 >= M1 - 1e-15)

    def test_radius_too_small_rejected(self, circle128):
        one = BoundaryFunction.constant(circle128, 1.0)
        with pytest.raises(ValueError):
            maximal_function(circle128, one, [0.5 * circle128.h])

    def test_empty_schedule_rejected(self, circle128):
        one = BoundaryFunction.constant(circle128, 1.0)
        with pytest.raises(ValueError):
            maximal_function(circle128, one, [])

    @staticmethod
    def _per_function(mesh, f, radii):
        # one function at a time, each radius's mask, measures and sums built afresh
        norms = algebra(mesh.n).norm(f.values)
        dist = _pair_distances(mesh)
        out = np.zeros(mesh.size)
        for r in radii:
            mask = dist < r
            meas = mask @ mesh.sigma_abs
            out = np.maximum(out, (mask @ (norms * mesh.sigma_abs)) / meas)
        return out

    @pytest.mark.parametrize("name", ["circle64", "deformed128"])
    def test_family_rows_equal_per_function_oracle(self, name, request):
        mesh = request.getfixturevalue(name)
        C = assemble_singular_cauchy(mesh)
        family = band_limited_family(mesh, 4, seed=6)
        family += [C.apply(f) for f in family]
        radii = default_radii(mesh)
        got = _family_maximal(mesh, family, radii)
        assert got.shape == (len(family), mesh.size)
        for row, f in zip(got, family):
            assert np.array_equal(row, self._per_function(mesh, f, radii))
        assert np.array_equal(maximal_function(mesh, family[1]), got[1])

    def test_empty_ball_rejected(self):
        # a mesh whose h understates its spacing: the ball of radius 2h holds its center alone
        mesh = make_circle(64)
        mesh.h /= 4
        one = BoundaryFunction.constant(mesh, 1.0)
        with pytest.raises(EmptyBallError):
            maximal_function(mesh, one)
        with pytest.raises(EmptyBallError):
            _family_maximal(mesh, [one, one], default_radii(mesh))


class TestBandLimitedFamily:
    @staticmethod
    def _per_function(mesh, count, seed):
        # one draw of the real and one of the imaginary coefficients per
        # function, and on curves the Fourier matrix evaluated once per function
        rng = np.random.default_rng(seed)
        dim = algebra(mesh.n).dim
        out = []
        for _ in range(count):
            if mesh.theta is None:
                coef = rng.normal(size=(1 + mesh.n, dim)) + 1j * rng.normal(size=(1 + mesh.n, dim))
                out.append(coef[0][None, :] + mesh.nodes.real @ coef[1:])
                continue
            ms = np.arange(-8, 9)
            coef = rng.normal(size=(ms.size, dim)) + 1j * rng.normal(size=(ms.size, dim))
            out.append(np.exp(1j * np.outer(mesh.theta, ms)) @ coef / np.sqrt(ms.size))
        return out

    @pytest.mark.parametrize("name", ["circle64", "deformed128", "sphere42"])
    def test_family_equals_per_function_loop(self, name, request):
        mesh = request.getfixturevalue(name)
        family = band_limited_family(mesh, 5, seed=3)
        want = self._per_function(mesh, 5, 3)
        assert len(family) == 5
        assert all(np.array_equal(f.values, w) for f, w in zip(family, want))


class TestNontangentialMaximal:
    def test_constants(self, circle128):
        one = BoundaryFunction.constant(circle128, 1.0)
        N = _family_nontangential(circle128, [one])[0]
        assert np.abs(N - 1.0).max() < 1e-6

    @pytest.mark.parametrize("name", ["circle64", "deformed128", "sphere42"])
    def test_cone_rows_equal_kernel_blocks(self, name, request):
        # the cone pass takes its rows without the null test that the
        # samples, all Interior, have passed in cone_parameters; on curves
        # the rows are the bare reciprocals, the columns carry the node
        # factors and num(1) is their last column; on the sphere it is the
        # plain sum
        from plemelj.mesh import _cone_samples
        from plemelj.operators import _kernel_rows, _node_factors

        mesh = request.getfixturevalue(name)
        pts = _cone_samples(mesh, np.arange(mesh.size), *cone_parameters(mesh), 64)
        cols = _weighted_columns(mesh, [f.values for f in band_limited_family(mesh, 3, seed=1)])
        folded = cols
        if mesh.n == 2:
            folded = np.concatenate([cols, (_node_factors(mesh) * mesh.sigma)[:, :, None]], axis=-1)
        for rows, vals in _transform_blocks(mesh, pts, cols, interior=True):
            if mesh.n == 2:
                K = np.concatenate([R for _, R in _kernel_rows(mesh, pts[rows])], axis=1)
            else:
                K = kernel_blocks(mesh, pts[rows])
            assert np.array_equal(vals, K @ folded)

    @pytest.mark.parametrize("name", ["circle64", "deformed128", "sphere42"])
    def test_spinor_norms_equal_coefficient_norms(self, name, request):
        # |v|^2 from the real and imaginary parts, and in the interior form
        # each null plane's squares divided by |num(1)|^2, against the norms
        # of the transforms' coefficients (num(g) / num(1) on curves)
        from plemelj.mesh import _cone_samples
        from plemelj.operators import _from_spinor, _spinor_norms

        mesh = request.getfixturevalue(name)
        pts = _cone_samples(mesh, np.arange(mesh.size), *cone_parameters(mesh), 64)
        cols = _weighted_columns(mesh, [f.values for f in band_limited_family(mesh, 3, seed=4)])
        for interior in (False, True):
            for rows, vals in _transform_blocks(mesh, pts, cols, interior=interior):
                got = _spinor_norms(mesh, vals, interior=interior)
                if interior and mesh.n == 2:
                    vals = vals[..., :-1] / vals[..., -1:]
                per_function = vals.reshape(vals.shape[0], vals.shape[1], -1, 3)
                want = np.stack([algebra(mesh.n).norm(_from_spinor(per_function[..., k], mesh)) for k in range(3)])
                assert got.shape == want.shape == (3, rows.stop - rows.start)
                assert np.all(np.abs(got - want) <= 1e-15 * want)

    def test_kernel_trace_peaks_toward_pole(self, circle128):
        pole = np.array([3.0, 0.0])
        f = BoundaryFunction.kernel_trace(circle128, pole)
        N = _family_nontangential(circle128, [f])[0]
        assert N[0] > np.median(N)  # node nearest the segment to the pole

    @pytest.mark.parametrize(
        "build",
        [lambda: make_circle(64), lambda: make_circle(128), lambda: make_deformed_curve(128, 0.1, 2)],
        ids=["circle64", "circle128", "deformed128"],
    )
    def test_cone_transforms_are_exact(self, build):
        # f is G(. - a) plus G(. - b) with a outside and b inside: the
        # transform of f inside is G(p - a), at every cone sample, however
        # near its node; the plain quadrature sum misses it by 1e-7 to 0.7
        from plemelj.mesh import _cone_samples
        from plemelj.operators import _from_spinor, plemelj_projection

        mesh = build()
        a, b = np.array([2.5, 0.3]), np.array([0.2, -0.1])
        f = BoundaryFunction.kernel_trace(mesh, a) + BoundaryFunction.kernel_trace(mesh, b)
        cols = _weighted_columns(mesh, [plemelj_projection(mesh, "+").apply(f).values])
        pts = _cone_samples(mesh, np.arange(mesh.size), *cone_parameters(mesh), 64)
        for rows, vals in _transform_blocks(mesh, pts, cols, interior=True):
            got = _from_spinor(vals[..., :-1] / vals[..., -1:], mesh)  # num(S+ f) / num(1)
            want = algebra(2).embed_vector(cauchy_kernel(pts[rows] - a))
            assert _relative_gap(got, want) <= 1e-12


class TestBoundDiagnostics:
    def test_stability_under_refinement(self, circle64, circle128):
        reps64 = bound_diagnostics(circle64, 20, seed=0)
        reps128 = bound_diagnostics(circle128, 20, seed=0)
        cm = [max(r.c_maximal for r in reps) for reps in (reps64, reps128)]
        cn = [max(r.c_nontangential for r in reps) for reps in (reps64, reps128)]
        assert abs(cm[1] / cm[0] - 1) < 0.2
        assert abs(cn[1] / cn[0] - 1) < 0.2

    def test_cotlar_finite_everywhere(self, circle64):
        reps = bound_diagnostics(circle64, 5, seed=1)
        for r in reps:
            assert np.all(np.isfinite(r.cotlar_ratio))

    def test_sphere_constants_are_finite(self):
        # the sphere's cone pass takes the plain sum (n = 3)
        reps = bound_diagnostics(make_sphere(42), 2)
        assert len(reps) == 2
        for r in reps:
            assert np.isfinite([r.c_maximal, r.c_nontangential]).all() and np.isfinite(r.cotlar_ratio).all()

    def test_family_pass_matches_per_function_transforms(self, circle64):
        # one block product for the whole family against the Clifford kernel
        # contraction of one function at a time, in the barycentric form
        # num(1)^-1 num(S+ f) with num(g) = sum_j G(p - z_j) n_j sigma_j g_j;
        # the summation order differs, so the bound is complex128 rounding
        from plemelj.mesh import _cone_samples
        from plemelj.operators import plemelj_projection

        def per_function(mesh, f):
            pts = _cone_samples(mesh, np.arange(mesh.size), *cone_parameters(mesh), 64)
            G = cauchy_kernel(pts[:, None, :] - mesh.nodes[None, :, :])
            alg = algebra(mesh.n)
            sf = plemelj_projection(mesh, "+").apply(f)
            num = np.einsum("mjl,laj->ma", G, _clifford_transform_weights(mesh, sf.values))
            one = np.einsum("mjl,laj->ma", G, _clifford_transform_weights(mesh, BoundaryFunction.constant(mesh).values))
            vals = np.linalg.solve(alg.left_matrix(one), num[..., None])[..., 0]
            return alg.norm(vals).reshape(mesh.size, 64).max(axis=1)

        reps = bound_diagnostics(circle64, 4, seed=2)
        for rep, f in zip(reps, band_limited_family(circle64, 4, seed=2)):
            want = per_function(circle64, f)
            assert _relative_gap(rep.nontangential, want) <= 1e-13

    def test_truncated_family_pass_matches_per_function(self, circle64, deformed128):
        # radius masks applied to the kernel blocks once for the family, against
        # the Clifford kernel contraction of one function at a time
        from plemelj.maximal import _family_truncated_sup

        def per_function(mesh, f, radii):
            G = pair_kernel(mesh)
            pre = _clifford_transform_weights(mesh, f.values)
            out = np.zeros(mesh.size)
            for eps in radii:
                mask = (_pair_distances(mesh) > eps).astype(float)
                np.fill_diagonal(mask, 0.0)
                vals = np.einsum("ijl,laj,ij->ia", G, pre, mask) / omega(mesh.n)
                out = np.maximum(out, algebra(mesh.n).norm(vals))
            return out

        for mesh in (circle64, deformed128):
            family = band_limited_family(mesh, 5, seed=4)
            radii = default_radii(mesh)
            got = _family_truncated_sup(mesh, family, radii)
            for k, f in enumerate(family):
                assert _relative_gap(got[k], per_function(mesh, f, radii)) <= 1e-13

    def test_accepted_cone_samples_cleared_once(self, monkeypatch):
        # the first entry is rejected at the row block of its first sample of
        # another region, and the accepted second entry's 4096 samples are
        # classified once, in row blocks of PAIR_BLOCK // N rows, by
        # cone_parameters and not again by the nontangential pass; each walk
        # checks the interior seed (1 row) first, and every entry rescales
        # one draw of the Halton sequence
        import plemelj.mesh as mesh_mod
        from plemelj.mesh import Region, _cone_samples, region_membership_many

        classified, draws = [], []
        regions, halton = mesh_mod._regions, mesh_mod._halton

        def counting(*args):
            draws.append(args)
            return halton(*args)

        def spy(points, mesh):
            classified.append(points.shape[0])
            return regions(points, mesh)

        monkeypatch.setattr(mesh_mod, "_regions", spy)
        monkeypatch.setattr(mesh_mod, "_halton", counting)
        mesh = make_circle(64)
        bound_diagnostics(mesh, family_size=2)
        monkeypatch.undo()
        assert len(draws) == 1
        step = mesh_mod.PAIR_BLOCK // mesh.size
        half = mesh.half_diameter()
        assert cone_parameters(mesh) == (mesh_mod._DEFAULT_ALPHAS[0], mesh_mod._DEFAULT_RADIUS_FACTORS[1] * half)
        first = _cone_samples(mesh, np.arange(mesh.size), mesh_mod._DEFAULT_ALPHAS[0], half, 64)
        bad = np.flatnonzero(region_membership_many(first, mesh) != Region.INTERIOR)[0]
        assert classified == [1] + [step] * (bad // step + 1) + [1] + [step] * (64 * mesh.size // step)

    def test_seed_disks_spare_the_winding_sum(self, monkeypatch):
        # a cone sample inside both seed disks takes the seed's region, so
        # only the seed and the first rejected rows of the 5634 rows the walk
        # classifies reach the winding sum
        import plemelj.mesh as mesh_mod

        rows = []  # per call, alternately plane zeta and plane eta
        winding = mesh_mod._winding_numbers

        def counting(d):
            rows.append(d.shape[0])
            return winding(d)

        monkeypatch.setattr(mesh_mod, "_winding_numbers", counting)
        bound_diagnostics(make_circle(64), family_size=2)
        assert 0 < sum(rows[0::2]) <= 10 and 0 < sum(rows[1::2]) <= 10

    def test_constant_diagnostics(self, circle64):
        one = BoundaryFunction.constant(circle64, 1.0)
        M = maximal_function(circle64, one)
        Nf = _family_nontangential(circle64, [one])[0]
        # C_N on constants is 1 up to the cone-sample quadrature floor
        cn = float(np.sqrt(np.sum(Nf**2 * circle64.sigma_abs))) / l2_norm(one)
        assert cn >= 1 - 1e-6
        assert np.abs(M - 1).max() == 0.0
