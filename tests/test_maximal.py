import numpy as np
import pytest

from conftest import band_limited
from plemelj.algebra import algebra, cauchy_kernel
from plemelj.mesh import cone_parameters
from plemelj.maximal import (
    bound_diagnostics,
    default_radii,
    maximal_function,
    nontangential_maximal,
)
from plemelj.operators import BoundaryFunction, l2_norm, omega


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
        f = band_limited(circle128, seed=0)
        from plemelj.algebra import algebra

        norms = algebra(2).norm(f.values)
        M = maximal_function(circle128, f)
        # local average at r = 2h is within discretization of the value
        assert np.all(M >= norms - 0.2 * np.abs(norms).max())

    def test_sublinear_and_homogeneous(self, circle128):
        f = band_limited(circle128, seed=1)
        g = band_limited(circle128, seed=2)
        Mf = maximal_function(circle128, f)
        Mg = maximal_function(circle128, g)
        Mfg = maximal_function(circle128, f + g)
        assert np.all(Mfg <= Mf + Mg + 1e-12)
        assert np.abs(maximal_function(circle128, (2.5j) * f) - 2.5 * Mf).max() < 1e-12

    def test_monotone_under_schedule_extension(self, circle128):
        f = band_limited(circle128, seed=3)
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


class TestNontangentialMaximal:
    def test_constants(self, circle128):
        one = BoundaryFunction.constant(circle128, 1.0)
        N, skipped = nontangential_maximal(circle128, one)
        assert np.abs(N - 1.0).max() < 1e-6
        assert skipped == 0

    def test_kernel_trace_peaks_toward_pole(self, circle128):
        pole = np.array([3.0, 0.0])
        f = BoundaryFunction.kernel_trace(circle128, pole)
        N, _ = nontangential_maximal(circle128, f)
        assert N[0] > np.median(N)  # node nearest the segment to the pole

    def test_monotone_in_sample_count(self, circle128):
        f = band_limited(circle128, seed=4)
        alpha, r = cone_parameters(circle128)
        N1, _ = nontangential_maximal(circle128, f, alpha, r, samples_per_cone=64)
        N2, _ = nontangential_maximal(circle128, f, alpha, r, samples_per_cone=128)
        assert np.all(N2 >= N1 - 1e-12)


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

    def test_family_pass_matches_per_function_transforms(self, circle64):
        # one block product for the whole family against the Clifford kernel
        # contraction of one function at a time; the summation order differs,
        # so the bound is complex128 rounding
        from plemelj.maximal import _usable_cone_samples, band_limited_family

        def per_function(mesh, f):
            alpha, r = cone_parameters(mesh)
            pts, near = _usable_cone_samples(mesh, alpha, r, 64)
            G = cauchy_kernel(pts[:, None, :] - mesh.nodes[None, :, :])
            vals = np.einsum("mjl,laj->ma", G, _clifford_transform_weights(mesh, f.values))
            norms = algebra(mesh.n).norm(vals / omega(mesh.n)).reshape(near.shape)
            out = np.where(near, -np.inf, norms).max(axis=1)
            out[~np.isfinite(out)] = 0.0
            return out, int(near.sum())

        reps = bound_diagnostics(circle64, 4, seed=2)
        for rep, f in zip(reps, band_limited_family(circle64, 4, seed=2)):
            want, skipped = per_function(circle64, f)
            assert _relative_gap(rep.nontangential, want) <= 1e-13
            assert _relative_gap(nontangential_maximal(circle64, f)[0], want) <= 1e-13
            assert rep.skipped_cone_samples == skipped

    def test_truncated_family_pass_matches_per_function(self, circle64, deformed128):
        # radius masks applied to the kernel blocks once for the family, against
        # the Clifford kernel contraction of one function at a time
        from plemelj.maximal import _family_truncated_sup, _pair_distances, band_limited_family
        from plemelj.operators import _pair_kernel

        def per_function(mesh, f, radii):
            G = _pair_kernel(mesh)
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
        # 8 schedule entries rejected at their first or second block of 512
        # rows, and the accepted entry's 4096 samples cleared once for both
        # cone_parameters and the nontangential pass
        import plemelj.mesh as mesh_mod
        from plemelj.mesh import make_circle

        calls = []
        blocks = mesh_mod._clearance_blocks

        def spy(points, mesh):
            calls.append([])
            for rows, clearance in blocks(points, mesh):
                calls[-1].append(rows.stop - rows.start)
                yield rows, clearance

        monkeypatch.setattr(mesh_mod, "_clearance_blocks", spy)
        bound_diagnostics(make_circle(64), family_size=2)
        assert sum(map(sum, calls)) == 8704
        assert sorted(len(c) for c in calls) == [1] * 7 + [2, 8]
        assert [sum(c) for c in calls].count(64 * 64) == 1

    def test_constant_diagnostics(self, circle64):
        one = BoundaryFunction.constant(circle64, 1.0)
        M = maximal_function(circle64, one)
        Nf, _ = nontangential_maximal(circle64, one)
        # C_N on constants is 1 up to the cone-sample quadrature floor
        cn = float(np.sqrt(np.sum(Nf**2 * circle64.sigma_abs))) / l2_norm(one)
        assert cn >= 1 - 1e-6
        assert np.abs(M - 1).max() == 0.0
