import json
import warnings

import numpy as np
import pytest

from conftest import kernel_blocks, make_flat_patch
from plemelj.mesh import (
    NoValidConeError,
    Region,
    ValidationFailedError,
    ValidationReport,
    _curve,
    cone_parameters,
    make_circle,
    make_deformed_curve,
    make_sphere,
    region_membership_many,
    save_mesh,
    validate_domain_manifold,
)


class TestCircle:
    def test_nodes_and_weights(self):
        m = make_circle(8, radius=1.0)
        assert m.size == 8
        assert np.allclose(m.nodes[0], [1.0, 0.0])
        assert np.allclose(m.sigma, 2 * np.pi / 8)
        assert np.allclose(m.sigma_abs, np.abs(m.sigma))

    def test_total_measure_exact(self):
        m = make_circle(64)
        assert abs(m.total_measure() - 2 * np.pi) < 1e-12

    def test_normals(self):
        m = make_circle(32, radius=2.0)
        assert np.abs(m.normals - m.nodes / 2.0).max() < 1e-14

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            make_circle(6)

    def test_refinement_halves_h(self):
        m, m2 = make_circle(64), make_circle(128)
        assert abs(m2.h / m.h - 0.5) < 1e-3


class TestSphere:
    def test_area_exact(self, sphere162):
        assert abs(sphere162.total_measure() - 4 * np.pi) < 1e-10

    def test_area_at_2562(self):
        s = make_sphere(2562)
        assert s.size == 2562
        assert abs(s.total_measure() - 4 * np.pi) < 1e-3

    def test_first_moment_vanishes(self, sphere162):
        mom = np.sum(sphere162.nodes[:, 0] * sphere162.sigma_abs)
        assert abs(mom) < 1e-10

    def test_normals(self, sphere162):
        assert np.abs(sphere162.normals - sphere162.nodes).max() < 1e-12

    def test_too_few(self):
        with pytest.raises(ValueError):
            make_sphere(11)

    @pytest.mark.parametrize("N", [42, 162, 642])
    def test_face_built_weights_are_the_spherical_voronoi_areas(self, N):
        # the kites of the faces sum to the cells scipy's convex hull finds,
        # and the cells tile the sphere
        from scipy.spatial import SphericalVoronoi

        mesh = make_sphere(N)
        want = SphericalVoronoi(np.real(mesh.nodes)).calculate_areas()
        assert np.abs(mesh.sigma_abs / want - 1).max() <= 1e-12
        assert abs(mesh.total_measure() - 4 * np.pi) <= 1e-13 * 4 * np.pi
        assert np.array_equal(mesh.sigma, mesh.sigma_abs)


class TestDeformedCurve:
    def test_zero_deformation_is_circle(self):
        # the circle and the deformed curve are one map, so eps = 0 gives the circle bit for bit
        d = make_deformed_curve(64, 0.0, 2)
        c = make_circle(64)
        assert np.array_equal(d.nodes, c.nodes)
        assert np.array_equal(d.sigma, c.sigma)
        assert np.array_equal(d.normals, c.normals)
        assert d.h == c.h

    def test_small_deformation_validates(self, deformed128):
        report = validate_domain_manifold(deformed128)
        assert report.passed
        assert report.pair_margin > 0.9

    def test_large_deformation_rejected(self):
        with pytest.raises(ValidationFailedError):
            make_deformed_curve(128, 0.9, 2)

    def test_normal_bilinear_orthogonal_to_tangent(self, deformed128):
        m = deformed128
        t = np.roll(m.nodes, -1, axis=0) - np.roll(m.nodes, 1, axis=0)
        inner = np.sum(m.normals * t, axis=1)  # bilinear pairing
        assert np.abs(inner).max() < 5e-3  # O(h^2) discrete tangent

    def test_measure_converges_second_order(self):
        exact = make_deformed_curve(2048, 0.05, 2).total_measure()
        e1 = abs(make_deformed_curve(128, 0.05, 2).total_measure() - exact)
        e2 = abs(make_deformed_curve(256, 0.05, 2).total_measure() - exact)
        assert e2 < 0.3 * e1 or e1 < 1e-12


class TestPushforward:
    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), float("inf"), "1"])
    @pytest.mark.parametrize("build", [make_circle, make_sphere], ids=["circle", "sphere"])
    def test_radius_must_be_finite_and_positive(self, build, radius):
        # a negative radius would turn the normals inwards, and 0 would divide by 0
        with pytest.raises(ValueError, match="radius"):
            build(16, radius)

    def test_sphere_refinement_keeps_old_vertices_first(self):
        assert np.array_equal(make_sphere(642).nodes[:162], make_sphere(162).nodes)

    def test_curve_refinement_keeps_every_other_node(self):
        assert np.array_equal(make_deformed_curve(256, 0.1, 2).nodes[::2], make_deformed_curve(128, 0.1, 2).nodes)

    def test_sphere_radius_scales_the_unit_sphere(self):
        unit, big = make_sphere(42), make_sphere(42, 2.0)
        assert np.array_equal(big.nodes, 2.0 * unit.nodes)
        assert np.array_equal(big.normals, unit.normals)
        assert np.abs(big.sigma - 4.0 * unit.sigma).max() < 1e-15

    def test_flat_patch_h_is_the_node_spacing(self):
        m = make_flat_patch(64)
        assert abs(m.h - 2 * np.pi / 64) < 1e-15
        assert m.edge_list().shape == (63, 2)


class TestValidation:
    def test_circle_margin_one(self, circle128):
        rep = validate_domain_manifold(circle128)
        assert rep.passed
        assert abs(rep.pair_margin - 1.0) < 1e-12
        assert abs(rep.tangent_margin - 1.0) < 1e-12

    def test_null_separated_pair_rejected(self, circle128):
        m = circle128
        bad = m.nodes.copy()
        bad[5] = bad[4] + 0.7 * np.array([1.0, 1j])
        from plemelj.mesh import BoundaryMesh

        mesh = BoundaryMesh(
            n=2, nodes=bad, normals=m.normals, sigma=m.sigma, sigma_abs=m.sigma_abs,
            interior_seed=m.interior_seed, exterior_seed=m.exterior_seed, h=m.h,
        )
        rep = validate_domain_manifold(mesh)
        assert not rep.passed
        assert rep.witness is not None
        assert 4 in rep.witness or 5 in rep.witness

    @staticmethod
    def _one_shot(mesh, null, margin=0.1):
        # the whole (N, N) ratio array at once, |square(u)| / |u|^2 of the pairs
        # either from the null coordinates zeta = u1 + i u2, eta = u1 - i u2
        # (null=True, as validation forms it on curves) or from the Euclidean
        # components; the tangents always from the Euclidean components.  The
        # null record is the kernel's null test on every pair i != j
        from plemelj.algebra import NULL_TOL

        def euclidean(u):
            return np.abs(-np.sum(u * u, axis=-1)), np.sum(np.abs(u) ** 2, axis=-1)

        z = mesh.nodes
        edges = mesh.edge_list()
        tsq, tr2 = euclidean(z[edges[:, 1]] - z[edges[:, 0]])
        if null:
            zeta, eta = z[:, 0] + 1j * z[:, 1], z[:, 0] - 1j * z[:, 1]
            dzeta, deta = zeta[:, None] - zeta[None, :], eta[:, None] - eta[None, :]
            sq, r2 = np.abs(dzeta * deta), 0.5 * (np.abs(dzeta) ** 2 + np.abs(deta) ** 2)
        else:
            sq, r2 = euclidean(z[:, None, :] - z[None, :, :])
        np.fill_diagonal(sq, np.inf)
        np.fill_diagonal(r2, 1.0)
        ratios = sq / r2
        null_pair = bool(np.any(sq <= NULL_TOL * (1.0 + r2)))
        imin = np.unravel_index(np.argmin(ratios), ratios.shape)
        pair_margin = float(ratios[imin])
        if pair_margin <= margin:
            return ValidationReport(
                False,
                f"node pair violates the null-cone separation (ratio {pair_margin:.3g} <= {margin})",
                (int(imin[0]), int(imin[1])),
                pair_margin,
                float("nan"),
                null_pair,
            )
        return ValidationReport(True, "ok", None, pair_margin, float((tsq / tr2).min()), null_pair)

    @staticmethod
    def _planted(mesh, i=767):
        # node i + 1 moved onto the null cone of node i, along (1, i)
        import dataclasses

        nodes = mesh.nodes.copy()
        nodes[(i + 1) % mesh.size] = nodes[i % mesh.size] + 0.7 * np.array([1.0, 1j])
        return dataclasses.replace(mesh, nodes=nodes, cache={})

    def test_blocked_pair_check_matches_one_shot(self, deformed1024):
        # N = 1024 walks 32 row blocks of 32 rows; the failing mesh plants a
        # null pair across the boundary of the 24th and 25th (768 = 24 * 32),
        # so the witness must be the first minimum in row-major order
        bad = self._planted(deformed1024)
        for mesh in (deformed1024, bad):
            assert repr(validate_domain_manifold(mesh)) == repr(self._one_shot(mesh, null=True))
        assert validate_domain_manifold(bad).witness == (767, 768)

    @pytest.mark.parametrize("name", ["circle128", "deformed128", "deformed1024"])
    def test_null_ratio_matches_euclidean_ratio(self, name, request):
        # on curves the ratio comes from null coordinates; it is the Euclidean
        # |square(u)| / |u|^2 to rounding, with the same verdict and witness.
        # The planted pair's ratio is rounding noise in both forms.
        mesh = request.getfixturevalue(name)
        for m in (mesh, self._planted(mesh)):
            got, want = validate_domain_manifold(m), self._one_shot(m, null=False)
            assert (got.passed, got.witness) == (want.passed, want.witness)
            if got.passed:
                assert abs(got.pair_margin - want.pair_margin) <= 1e-14 * want.pair_margin
                assert got.tangent_margin == want.tangent_margin
            else:
                assert max(got.pair_margin, want.pair_margin) <= 1e-15

    @pytest.mark.parametrize("name", ["sphere42", "sphere162"])
    def test_surface_pair_check_matches_one_shot(self, name, request):
        # n = 3 takes |square(u)| and |u|^2 from the component-first differences;
        # the ratios, margins and witness are those of the (N, N, 3) array, bit
        # for bit, on the real sphere (every ratio 1, so margin 2 makes the first
        # pair the witness) and on a complex copy that passes at the default margin
        import dataclasses

        mesh = request.getfixturevalue(name)
        shifted = mesh.nodes + 0.02j * np.random.default_rng(5).normal(size=mesh.nodes.shape)
        for m in (mesh, dataclasses.replace(mesh, nodes=shifted, cache={})):
            for margin in (0.1, 2.0):
                got = validate_domain_manifold(m, margin)
                assert repr(got) == repr(self._one_shot(m, null=False, margin=margin))
        assert repr(validate_domain_manifold(mesh)) == repr(ValidationReport(True, "ok", None, 1.0, 1.0))
        assert validate_domain_manifold(mesh, 2.0).witness == (0, 1)

    @pytest.mark.parametrize("name", ["deformed1024", "sphere162"])
    def test_pairs_above_the_diagonal_keep_the_row_major_witness(self, name, request):
        # each row block takes the pairs j >= i only; coincident nodes far
        # apart make a NaN pair in two row blocks, and the witness is still
        # the first in row-major order of the whole array
        import dataclasses

        mesh = request.getfixturevalue(name)
        nodes = mesh.nodes.copy()
        nodes[mesh.size - 2] = nodes[mesh.size - 60] = nodes[7]
        bad = dataclasses.replace(mesh, nodes=nodes, cache={})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = validate_domain_manifold(bad)
        # the NaN pairs are (7, N - 60), (7, N - 2), (N - 60, N - 2) and their mirrors
        assert not rep.passed and rep.witness == (7, mesh.size - 60) and np.isnan(rep.pair_margin)

    def test_flat_patch_tangent_margin_one(self):
        rep = validate_domain_manifold(make_flat_patch(64))
        assert rep.passed
        assert abs(rep.tangent_margin - 1.0) < 1e-12

    def test_assemblers_reject_an_invalid_mesh_every_time(self, circle128):
        # only a passing report is kept, so a failing mesh fails on every call
        from plemelj.mesh import BoundaryMesh
        from plemelj.operators import assemble_kerzman_stein, assemble_singular_cauchy

        m = circle128
        bad = m.nodes.copy()
        bad[5] = bad[4] + 0.7 * np.array([1.0, 1j])
        mesh = BoundaryMesh(
            n=2, nodes=bad, normals=m.normals, sigma=m.sigma, sigma_abs=m.sigma_abs,
            interior_seed=m.interior_seed, exterior_seed=m.exterior_seed, h=m.h,
        )
        for assemble in (assemble_singular_cauchy, assemble_kerzman_stein, assemble_singular_cauchy):
            with pytest.raises(ValidationFailedError):
                assemble(mesh)

    @pytest.mark.parametrize(
        "build",
        [lambda: make_circle(16), lambda: _curve(16, 0.05, 2), lambda: make_sphere(42)],
        ids=["circle16", "deformed16", "sphere42"],
    )
    def test_coincident_nodes_rejected(self, build):
        # 0 / 0 makes a NaN ratio; it fails the check, names the pair and
        # warns not, so no assembler meets the pair
        from plemelj.operators import assemble_singular_cauchy

        m = build()
        m.nodes[3] = m.nodes[2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = validate_domain_manifold(m)
        assert not rep.passed and rep.witness == (2, 3) and np.isnan(rep.pair_margin)
        with pytest.raises(ValidationFailedError):
            assemble_singular_cauchy(m)

    def test_zero_tangent_rejected(self, circle128):
        # an edge from a node to itself has tangent 0 and ratio 0 / 0
        import dataclasses

        m = dataclasses.replace(circle128, edges=np.array([[0, 1], [5, 5], [1, 2]]), cache={})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = validate_domain_manifold(m)
        assert not rep.passed and rep.witness == (5, 5) and np.isnan(rep.tangent_margin)

    def test_pass_implies_kernel_finite(self, deformed128):
        from plemelj.algebra import cauchy_kernel

        m = deformed128
        D = m.nodes[:, None, :] - m.nodes[None, :, :]
        idx = np.arange(m.size)
        D[idx, idx, 0] = 1.0
        assert np.all(np.isfinite(cauchy_kernel(D)))


def _boundary_distance(points, mesh):
    """Distance of each point to the nodes: in the nearer null plane on curves, in R^3 on the sphere."""
    from plemelj.algebra import null_differences

    if mesh.n == 2:
        return np.abs(null_differences(points, mesh.nodes)).min(axis=(0, 2))
    return np.linalg.norm(points[:, None, :] - mesh.nodes[None, :, :], axis=-1).min(axis=1)


class TestRegionMembership:
    def test_seeds_and_nodes(self, circle128):
        m = circle128
        assert region_membership_many(np.zeros(2), m)[0] is Region.INTERIOR
        assert region_membership_many(np.array([3.0, 0.0]), m)[0] is Region.EXTERIOR
        assert region_membership_many(m.nodes[1], m)[0] is Region.NEAR_BOUNDARY

    def test_random_ring_points(self, circle512):
        rng = np.random.default_rng(3)
        ang = rng.uniform(0, 2 * np.pi, 100)
        rad = rng.uniform(0.3, 2.5, 100)
        pts = (rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)).astype(complex)
        regs = region_membership_many(pts, circle512)
        for r, reg in zip(rad, regs):
            if abs(r - 1) > circle512.h:
                assert reg is (Region.INTERIOR if r < 1 else Region.EXTERIOR)

    def test_near_boundary_both_sides(self, circle256):
        m = circle256
        for s in (0.05, 1e-3, 1e-5):
            assert region_membership_many(m.nodes[10] * (1 - s), m)[0] is Region.INTERIOR
            assert region_membership_many(m.nodes[10] * (1 + s), m)[0] is Region.EXTERIOR

    def test_sphere(self, sphere162):
        assert region_membership_many(np.zeros(3), sphere162)[0] is Region.INTERIOR
        assert region_membership_many(np.array([3.0, 0, 0]), sphere162)[0] is Region.EXTERIOR

    @pytest.mark.parametrize("fixture", ["circle128", "deformed128"])
    def test_mixed_points(self, fixture, request):
        # zeta = 0 is inside the zeta-curve and eta = 3 outside the eta-curve
        # (or the reverse): the transform of 1 there is (1 +- i e12)/2
        from plemelj.operators import BoundaryFunction, cauchy_transform

        m = request.getfixturevalue(fixture)
        pts = np.array([[1.5, 1.5j], [1.5, -1.5j]])
        assert list(region_membership_many(pts, m)) == [Region.MIXED, Region.MIXED]
        # the transform is still evaluated there
        one = BoundaryFunction.constant(m)
        assert np.allclose(cauchy_transform(m, one, pts[0]), [0.5, 0, 0, 0.5j], atol=1e-8)

    @pytest.mark.parametrize("fixture", ["circle128", "deformed128", "sphere162"])
    def test_index_matches_transform_of_one(self, fixture, request):
        from plemelj.operators import BoundaryFunction, cauchy_transform_points

        m = request.getfixturevalue(fixture)
        rng = np.random.default_rng(5)
        if m.n == 2:
            pts = rng.uniform(-1.6, 1.6, (600, 2)) + 1j * rng.normal(scale=0.5, size=(600, 2))
            pts[:150] = pts[:150].real  # real points too
        else:
            ball = rng.normal(size=(300, 3))
            ball *= rng.uniform(0.0, 0.15, 300)[:, None] / np.linalg.norm(ball, axis=1)[:, None]
            pts = np.concatenate([ball, rng.uniform(-2.5, 2.5, (300, 3))])
        pts = pts[_boundary_distance(pts, m) >= 2 * m.h]
        one = cauchy_transform_points(m, BoundaryFunction.constant(m), pts)
        if m.n == 2:
            # rounded transform of 1: 1, 0 or the idempotents (1 +- i e12)/2
            half = np.round(2 * one) / 2
            assert np.abs(one - half).max() < 1e-3
            expected = np.where(
                np.all(half == [1, 0, 0, 0], axis=1), Region.INTERIOR,
                np.where(np.all(half == 0, axis=1), Region.EXTERIOR, Region.MIXED),
            )
            mixed = expected == Region.MIXED
            assert np.all(np.abs(half[mixed] - [0.5, 0, 0, 0]) == [0, 0, 0, 0.5])
        else:
            scalar = np.round(one[:, 0].real)
            assert np.abs(one[:, 0] - scalar).max() < 1e-2
            expected = np.where(scalar == 1, Region.INTERIOR, Region.EXTERIOR)
        regs = region_membership_many(pts, m)
        assert set(expected) >= {Region.INTERIOR, Region.EXTERIOR}
        assert m.n == 3 or Region.MIXED in set(expected)
        assert np.array_equal(regs, expected)

    @pytest.mark.parametrize("fixture", ["circle128", "deformed128", "sphere162"])
    def test_near_boundary_exactly_where_the_kernel_refuses(self, fixture, request):
        from plemelj.algebra import NullVectorError

        m = request.getfixturevalue(fixture)
        rng = np.random.default_rng(11)
        j = rng.integers(0, m.size, 200)
        if m.n == 2:
            pts = rng.uniform(-1.6, 1.6, (100, 2)) + 1j * rng.normal(scale=0.5, size=(100, 2))
            # planted on the null cone of a node, t (1, i) away from it, then
            # moved off it by delta (1, -i): |square| = 4 |delta t| against the
            # tolerance 1e-12 (1 + |u|^2), so the plants straddle the test
            t = rng.uniform(0.01, 2.0, 200) * np.exp(2j * np.pi * rng.uniform(size=200))
            delta = 10.0 ** rng.uniform(-15, -10, 200)
            planted = m.nodes[j] + t[:, None] * np.array([1, 1j]) + delta[:, None] * np.array([1, -1j])
            far = np.array([[1e12, 0.3 + 1e12j]])  # far out along a null direction
        else:
            pts = rng.uniform(-1.6, 1.6, (100, 3))
            # planted r = 1e-7 ... 1e-5 from a node: r^2 against the origin
            # test's tolerance 1e-12 (1 + r^2), so the plants straddle it
            u = rng.normal(size=(200, 3))
            u *= (10.0 ** rng.uniform(-7, -5, 200) / np.linalg.norm(u, axis=1))[:, None]
            planted = m.nodes[j] + u
            far = np.empty((0, 3))  # a real direction is never null
        pts = np.concatenate([pts, planted, m.nodes[:5], far])
        refused = []
        for p in pts:
            try:
                kernel_blocks(m, p[None, :])
                refused.append(False)
            except NullVectorError:
                refused.append(True)
        near = region_membership_many(pts, m) == Region.NEAR_BOUNDARY
        assert np.array_equal(near, refused)
        assert 20 < near[100:300].sum() < 180 and near[300:].all() and not near[:100].any()

    def test_odd_n_regions_and_transforms_take_the_kernels_real_test(self, sphere42):
        # a point the kernel takes as real has a region and a transform, and
        # one it refuses has neither
        from plemelj.algebra import OddDimensionComplexError
        from plemelj.operators import BoundaryFunction, cauchy_transform, cauchy_transform_points

        one = BoundaryFunction.constant(sphere42)
        p = np.array([0.1, 0.0, 1e-20j])
        assert region_membership_many(p, sphere42)[0] is Region.INTERIOR
        assert np.array_equal(cauchy_transform(sphere42, one, p), cauchy_transform_points(sphere42, one, p)[0])
        q = np.array([0.1j, 0.0, 0.0])
        with pytest.raises(OddDimensionComplexError):
            region_membership_many(q, sphere42)
        with pytest.raises(OddDimensionComplexError):
            cauchy_transform(sphere42, one, q)

    def test_odd_n_real_test_is_taken_point_by_point(self, sphere42):
        # a real point far away in the same call does not make a complex one real
        from plemelj.algebra import OddDimensionComplexError
        from plemelj.operators import BoundaryFunction, cauchy_transform_points

        one = BoundaryFunction.constant(sphere42)
        p = np.array([0.1, 0.0, 3e-14j])
        for points in (p[None, :], np.array([p, [100.0, 0.0, 0.0]])):
            with pytest.raises(OddDimensionComplexError):
                region_membership_many(points, sphere42)
            with pytest.raises(OddDimensionComplexError):
                cauchy_transform_points(sphere42, one, points)

    def test_undefined_regions_raise(self, sphere162):
        from plemelj.algebra import OddDimensionComplexError

        with pytest.raises(ValueError, match="interior seed"):
            region_membership_many(np.array([3.0, 0.0]), make_flat_patch(64))
        with pytest.raises(OddDimensionComplexError):
            region_membership_many(np.array([0.1j, 0.0, 0.0]), sphere162)


class TestCones:
    def test_circle_cone_parameters(self, circle128):
        alpha, r = cone_parameters(circle128)
        assert alpha > 0 and r > 0
        # the checker's own contract: the accepted samples classify Interior
        from plemelj.mesh import _cone_samples

        pts = _cone_samples(circle128, 7, alpha, r, 32)
        assert np.all(region_membership_many(pts, circle128) == Region.INTERIOR)

    def test_deformed_cone_parameters(self, deformed128):
        alpha, r = cone_parameters(deformed128)
        assert alpha > 0 and r > 0

    @pytest.mark.parametrize(
        "fixture, alpha, factor",
        [("circle64", np.pi / 4, 0.5), ("circle128", np.pi / 4, 0.5), ("deformed128", np.pi / 6, 1.0)],
        ids=["circle64", "circle128", "deformed128"],
    )
    def test_cone_parameters_pinned(self, fixture, alpha, factor, request):
        # every circle from N = 16 to 256 gets the same cone
        m = request.getfixturevalue(fixture)
        assert cone_parameters(m) == (alpha, factor * m.half_diameter())

    @pytest.mark.parametrize("fixture", ["circle64", "deformed128", "sphere42"])
    def test_cone_samples_match_per_node_loop(self, fixture, request):
        from plemelj.mesh import _cone_samples

        m = request.getfixturevalue(fixture)
        nodes = np.arange(m.size)
        loop = np.concatenate([_cone_samples(m, i, np.pi / 6, 0.4, 48) for i in nodes])
        assert np.array_equal(_cone_samples(m, nodes, np.pi / 6, 0.4, 48), loop)

    def test_degenerate_mesh_has_no_valid_cone(self):
        # sixteen complex bulges: every schedule entry has samples outside
        with pytest.raises(NoValidConeError):
            cone_parameters(make_deformed_curve(64, 0.4, 16))


def _schedule_oracle(mesh, samples_per_cone=64):
    """cone_parameters' schedule walked with one exact-path call per entry.

    On curves the exact path is _planar_regions (the null test and the
    winding numbers, without the seed disks), on the sphere
    region_membership_many.  Returns the number of entries tried and the
    accepted (alpha, r), or None.
    """
    from plemelj.mesh import _DEFAULT_ALPHAS, _DEFAULT_RADIUS_FACTORS, _cone_samples, _planar_regions

    classify = _planar_regions if mesh.n == 2 else region_membership_many
    tried = 0
    for alpha in _DEFAULT_ALPHAS:
        for fac in _DEFAULT_RADIUS_FACTORS:
            r = fac * mesh.half_diameter()
            pts = _cone_samples(mesh, np.arange(mesh.size), alpha, r, samples_per_cone)
            tried += 1
            if np.all(classify(pts, mesh) == Region.INTERIOR):
                return tried, (float(alpha), float(r))
    return tried, None


class TestConeSchedule:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_circle(16),
            lambda: make_circle(64),
            lambda: make_circle(128),
            lambda: make_deformed_curve(128, 0.05, 2),
            lambda: make_deformed_curve(64, 0.4, 16),
            lambda: make_sphere(42),
        ],
        ids=["circle16", "circle64", "circle128", "deformed128", "bulged64", "sphere42"],
    )
    def test_early_rejection_matches_full_region_oracle(self, build, monkeypatch):
        # the walk accepts what full region_membership_many calls accept, and
        # stops each rejected entry at its first row block with a sample of
        # another region
        import plemelj.mesh as mesh_mod

        mesh = build()
        walks = []  # per entry tried, whether each block it classified was all interior
        region_blocks = mesh_mod._region_blocks

        def spy(points, m):
            walks.append([])
            for rows, regions in region_blocks(points, m):
                walks[-1].append(bool(np.all(regions == Region.INTERIOR)))
                yield rows, regions

        monkeypatch.setattr(mesh_mod, "_region_blocks", spy)
        try:
            got = cone_parameters(mesh)
        except NoValidConeError:
            got = None
        monkeypatch.undo()
        tried, want = _schedule_oracle(mesh)
        assert got == want
        assert len(walks) == tried
        rejected = walks[:-1] if want is not None else walks
        assert all(not walk[-1] and all(walk[:-1]) for walk in rejected)
        if want is not None:
            blocks = len(list(mesh_mod.row_blocks(64 * mesh.size, mesh.size)))
            assert walks[-1] == [True] * blocks


def _region_families(mesh, count=8):
    """Points on which the seed disks must agree with the exact path.

    Cone samples of four schedule entries, their mirror images through the
    nodes and their turns into imaginary directions, box points (a quarter
    real), points planted 1e-3 ... 1e-12 off the edge midpoints on both
    sides, the nodes, points near the seed and a far point on a null
    direction.
    """
    from plemelj.mesh import _cone_samples

    rng = np.random.default_rng(17)
    size = mesh.half_diameter()
    entries = [(np.pi / 4, 1.0), (np.pi / 4, 0.5), (np.pi / 6, 1.0), (np.pi / 12, 0.1)]
    cones = np.concatenate([_cone_samples(mesh, np.arange(mesh.size), a, f * size, count) for a, f in entries])
    apex = np.tile(np.repeat(mesh.nodes, count, axis=0), (len(entries), 1))
    box = size * (rng.uniform(-2, 2, (20000, 2)) + 1j * rng.normal(scale=0.5, size=(20000, 2)))
    box[:5000] = box[:5000].real
    mid = (mesh.nodes + np.roll(mesh.nodes, -1, axis=0)) / 2
    offset = np.concatenate([10.0 ** -np.arange(3, 13), -(10.0 ** -np.arange(3, 13))])
    planted = (mid[None] + offset[:, None, None] * mesh.normals[None]).reshape(-1, 2)
    near_seed = mesh.interior_seed + 1e-3 * size * (rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2)))
    far = np.array([[1e12, 0.3 + 1e12j]])
    return np.concatenate(
        [cones, 2 * apex - cones, apex + 1j * (cones - apex), box, planted, mesh.nodes, near_seed, far]
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_circle(16),
        lambda: make_circle(64, 0.8),
        lambda: make_circle(256, 1.25),
        lambda: make_deformed_curve(128, 0.05, 2),
        lambda: make_deformed_curve(512, 0.05, 2),
        lambda: make_deformed_curve(256, 0.3, 3),
        lambda: make_deformed_curve(64, 0.4, 16),
    ],
    ids=["circle16", "circle64r0.8", "circle256r1.25", "deformed128", "deformed512", "twisted256", "bulged64"],
)
def test_seed_disks_agree_with_the_exact_path(build):
    from plemelj.mesh import _planar_regions, _regions, row_blocks

    mesh = build()
    pts = _region_families(mesh)
    got, want = np.empty(len(pts), dtype=object), np.empty(len(pts), dtype=object)
    for rows in row_blocks(len(pts), mesh.size):
        got[rows], want[rows] = _regions(pts[rows], mesh), _planar_regions(pts[rows], mesh)
    assert set(want) == set(Region)
    assert np.array_equal(got, want)


def test_seed_disks_of_a_repeated_node():
    # a zero-length edge counts as its endpoint: a finite radius, no warning
    from dataclasses import replace

    from plemelj.mesh import _planar_regions, _regions, _seed_disks

    circle = make_circle(64)
    mesh = replace(circle, nodes=np.insert(circle.nodes, 5, circle.nodes[5], axis=0), cache={})
    pts = _region_families(circle)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rad = _seed_disks(mesh)[1]
        got = _regions(pts, mesh)
    assert np.all((0.99 < rad) & (rad < 1))
    assert np.array_equal(got, _planar_regions(pts, mesh))


def test_seed_disks_defer_points_near_a_notch():
    # node 10 pulled halfway to the seed is the nearest point of both null
    # polygons, so points just inside it lie in both disks; those near its
    # null cone must go to the exact path, which finds them NearBoundary
    from dataclasses import replace

    from plemelj.mesh import _planar_regions, _regions

    circle = make_circle(64)
    mesh = replace(circle, nodes=circle.nodes.copy(), cache={})
    mesh.nodes[10] *= 0.5
    pts = mesh.nodes[10] * (1 - 10.0 ** -np.arange(1, 13))[:, None]
    want = _planar_regions(pts, mesh)
    assert Region.NEAR_BOUNDARY in set(want) and Region.INTERIOR in set(want)
    assert np.array_equal(_regions(pts, mesh), want)


@pytest.mark.parametrize("dim", [5, 7])
def test_halton_matches_scipy(dim):
    # the cone frames' draw for n = 2 and n = 3: points 1..count of the
    # unscrambled sequence, bit for bit
    from scipy.stats import qmc

    import plemelj.mesh as mesh_mod

    sampler = qmc.Halton(d=dim, scramble=False, seed=7)
    sampler.fast_forward(1)
    assert np.array_equal(mesh_mod._halton(1000, dim), sampler.random(1000))


class TestApproachPath:
    # the dyadic paths w -+ s_k n(w), s_k = 2^-k, of boundary_limit_test
    def test_interior_and_exterior(self, circle128):
        s = 0.5 ** np.arange(9)
        for node in (0, 40, 64, 100):
            w, n = circle128.nodes[node], circle128.normals[node]
            assert np.all(region_membership_many(w - s[:, None] * n, circle128) == Region.INTERIOR)
            assert np.all(region_membership_many(w + s[:, None] * n, circle128) == Region.EXTERIOR)

    def test_deep_interior_path(self, circle256):
        s = 0.5 ** np.arange(15)
        w, n = circle256.nodes[3], circle256.normals[3]
        assert s[-1] < 1e-4
        assert np.all(region_membership_many(w - s[:, None] * n, circle256) == Region.INTERIOR)


def _read_mesh_json(mesh, tmp_path):
    """save_mesh's file, read back with json, with its [re, im] pairs as complex arrays."""
    path = str(tmp_path / "mesh.json")
    save_mesh(mesh, path)
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("nodes", "normals", "sigma", "interior_seed", "exterior_seed"):
        pairs = np.asarray(doc[key])
        doc[key] = pairs[..., 0] + 1j * pairs[..., 1]
    return doc


class TestSerialization:
    def test_round_trip(self, deformed128, tmp_path):
        doc = _read_mesh_json(deformed128, tmp_path)
        assert doc["n"] == deformed128.n
        for key in ("nodes", "normals", "sigma", "sigma_abs", "interior_seed", "exterior_seed"):
            assert np.array_equal(doc[key], getattr(deformed128, key)), key
        assert doc["h"] == deformed128.h

    def test_field_order(self, circle128, tmp_path):
        path = str(tmp_path / "mesh.json")
        save_mesh(circle128, path)
        with open(path) as fh:
            doc = json.load(fh)
        assert list(doc.keys()) == [
            "n", "nodes", "normals", "sigma", "sigma_abs",
            "interior_seed", "exterior_seed", "h",
        ]

    def test_sphere_round_trip_keeps_edges(self, sphere42, tmp_path):
        doc = _read_mesh_json(sphere42, tmp_path)
        assert np.array_equal(doc["edges"], sphere42.edge_list())
        assert np.array_equal(doc["nodes"], sphere42.nodes)
