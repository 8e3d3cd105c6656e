import numpy as np
import pytest

from plemelj.mesh import (
    Cone,
    NoValidConeError,
    Region,
    ValidationFailedError,
    ValidationReport,
    approach_path,
    barrier_clearance,
    barrier_clearance_floor,
    cone_parameters,
    load_mesh,
    make_circle,
    make_deformed_curve,
    make_flat_patch,
    make_sphere,
    region_membership,
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


class TestDeformedCurve:
    def test_zero_deformation_is_circle(self):
        d = make_deformed_curve(64, 0.0, 2)
        c = make_circle(64)
        assert np.abs(d.nodes - c.nodes).max() < 1e-14
        assert np.abs(d.sigma - c.sigma).max() < 1e-14
        assert np.abs(d.normals - c.normals).max() < 1e-14

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

    def test_blocked_pair_check_matches_one_shot(self):
        # N = 1024 walks four row blocks; the failing mesh plants a null pair
        # across the boundary of the third and fourth, so the witness must be
        # the first minimum in row-major order
        import dataclasses

        def one_shot(mesh, margin=0.1):
            z = mesh.nodes
            D = z[:, None, :] - z[None, :, :]
            sq = np.abs(-np.sum(D * D, axis=-1))
            r2 = np.sum(np.abs(D) ** 2, axis=-1)
            np.fill_diagonal(sq, np.inf)
            np.fill_diagonal(r2, 1.0)
            ratios = sq / r2
            imin = np.unravel_index(np.argmin(ratios), ratios.shape)
            pair_margin = float(ratios[imin])
            if pair_margin <= margin:
                return ValidationReport(
                    False,
                    f"node pair violates the null-cone separation (ratio {pair_margin:.3g} <= {margin})",
                    (int(imin[0]), int(imin[1])),
                    pair_margin,
                    float("nan"),
                )
            edges = mesh.edge_list()
            t = z[edges[:, 1]] - z[edges[:, 0]]
            tratios = np.abs(-np.sum(t * t, axis=-1)) / np.sum(np.abs(t) ** 2, axis=-1)
            return ValidationReport(True, "ok", None, pair_margin, float(tratios.min()))

        good = make_deformed_curve(1024, 0.05, 2)
        nodes = good.nodes.copy()
        nodes[768] = nodes[767] + 0.7 * np.array([1.0, 1j])
        bad = dataclasses.replace(good, nodes=nodes, cache={})
        for mesh in (good, bad):
            assert repr(validate_domain_manifold(mesh)) == repr(one_shot(mesh))
        assert validate_domain_manifold(bad).witness == (767, 768)

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

    def test_pass_implies_kernel_finite(self, deformed128):
        from plemelj.algebra import cauchy_kernel

        m = deformed128
        D = m.nodes[:, None, :] - m.nodes[None, :, :]
        idx = np.arange(m.size)
        D[idx, idx, 0] = 1.0
        assert np.all(np.isfinite(cauchy_kernel(D)))


class TestRegionMembership:
    def test_seeds_and_nodes(self, circle128):
        m = circle128
        assert region_membership(np.zeros(2), m) is Region.INTERIOR
        assert region_membership(np.array([3.0, 0.0]), m) is Region.EXTERIOR
        assert region_membership(m.nodes[1], m) is Region.NEAR_BOUNDARY

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
            assert region_membership(m.nodes[10] * (1 - s), m) is Region.INTERIOR
            assert region_membership(m.nodes[10] * (1 + s), m) is Region.EXTERIOR

    def test_sphere(self, sphere162):
        assert region_membership(np.zeros(3), sphere162) is Region.INTERIOR
        assert region_membership(np.array([3.0, 0, 0]), sphere162) is Region.EXTERIOR

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
        assert np.allclose(cauchy_transform(m, one, pts[0]).coeffs, [0.5, 0, 0, 0.5j], atol=1e-8)

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
        pts = pts[barrier_clearance(pts, m) >= barrier_clearance_floor(m)]
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

    def test_undefined_regions_raise(self, sphere162):
        from plemelj.algebra import OddDimensionComplexError

        with pytest.raises(ValueError, match="interior seed"):
            region_membership(np.array([3.0, 0.0]), make_flat_patch(64))
        with pytest.raises(OddDimensionComplexError):
            region_membership(np.array([0.1j, 0.0, 0.0]), sphere162)


class TestCones:
    def test_cone_membership_formula(self):
        cone = Cone(apex=np.zeros(2, dtype=complex), axis=np.array([1.0, 0.0], dtype=complex),
                    alpha=np.pi / 6, r=1.0)
        assert cone.contains(np.array([0.5, 0.05]))
        assert not cone.contains(np.array([0.5, 0.4]))   # angle too wide
        assert not cone.contains(np.array([1.5, 0.0]))   # beyond truncation
        assert not cone.contains(np.zeros(2))            # apex excluded

    def test_membership_invariant_under_axis_rescaling(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 2)) + 0.1j * rng.normal(size=(50, 2))
        c1 = Cone(np.zeros(2, dtype=complex), np.array([1.0, 0.5 + 0.2j]), np.pi / 5, 2.0)
        c2 = Cone(np.zeros(2, dtype=complex), 7.3 * np.array([1.0, 0.5 + 0.2j]), np.pi / 5, 2.0)
        assert np.array_equal(c1.contains(pts), c2.contains(pts))

    def test_circle_cone_parameters(self, circle128):
        alpha, r = cone_parameters(circle128)
        assert alpha > 0 and r > 0
        # the checker's own contract: the accepted samples classify Interior
        from plemelj.mesh import _cone_samples

        pts = _cone_samples(circle128, 7, alpha, r, 32, 7)
        assert np.all(region_membership_many(pts, circle128) == Region.INTERIOR)

    def test_deformed_cone_parameters(self, deformed128):
        alpha, r = cone_parameters(deformed128)
        assert alpha > 0 and r > 0

    @pytest.mark.parametrize(
        "fixture, alpha", [("circle64", np.pi / 8), ("circle128", np.pi / 6), ("deformed128", np.pi / 6)]
    )
    def test_cone_parameters_pinned(self, fixture, alpha, request):
        m = request.getfixturevalue(fixture)
        assert cone_parameters(m) == (alpha, m.half_diameter())

    @pytest.mark.parametrize("fixture", ["circle64", "deformed128", "sphere42"])
    def test_cone_samples_match_per_node_loop(self, fixture, request):
        from plemelj.mesh import _cone_samples

        m = request.getfixturevalue(fixture)
        nodes = np.arange(m.size)
        loop = np.concatenate([_cone_samples(m, i, np.pi / 6, 0.4, 48, 7) for i in nodes])
        assert np.array_equal(_cone_samples(m, nodes, np.pi / 6, 0.4, 48, 7), loop)

    def test_degenerate_mesh_has_no_valid_cone(self):
        with pytest.raises(NoValidConeError):
            cone_parameters(make_circle(8))

    def test_accepted_samples_clear_the_barrier(self, circle128):
        from plemelj.mesh import _cone_samples, barrier_clearance_floor

        alpha, r = cone_parameters(circle128)
        pts = np.concatenate(
            [_cone_samples(circle128, i, alpha, r, 64, 7) for i in range(circle128.size)]
        )
        assert barrier_clearance(pts, circle128).min() >= barrier_clearance_floor(circle128)


def _schedule_oracle(mesh, samples_per_cone=64, seed=7):
    """cone_parameters' schedule walked with full barrier_clearance and region_membership_many calls.

    Returns the entries tried, each as (alpha, r, rejected by clearance), their
    samples with the full call's clearance, and the accepted (alpha, r) or None.
    """
    from plemelj.mesh import _DEFAULT_ALPHAS, _DEFAULT_RADIUS_FACTORS, _cone_samples

    tau = barrier_clearance_floor(mesh)
    tried, cleared = [], []
    for alpha in _DEFAULT_ALPHAS:
        for fac in _DEFAULT_RADIUS_FACTORS:
            r = fac * mesh.half_diameter()
            pts = _cone_samples(mesh, np.arange(mesh.size), alpha, r, samples_per_cone, seed)
            clearance = barrier_clearance(pts, mesh)
            unresolved = clearance.min() < tau
            tried.append((alpha, r, bool(unresolved)))
            cleared.append((pts, clearance))
            if not unresolved and np.all(region_membership_many(pts, mesh) == Region.INTERIOR):
                return tried, cleared, (float(alpha), float(r))
    return tried, cleared, None


class TestConeSchedule:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_circle(64),
            lambda: make_circle(128),
            lambda: make_deformed_curve(128, 0.05, 2),
            lambda: make_sphere(42),
        ],
        ids=["circle64", "circle128", "deformed128", "sphere42"],
    )
    def test_early_rejection_matches_full_clearance_oracle(self, build, monkeypatch):
        import plemelj.mesh as mesh_mod

        mesh = build()
        tried = []
        sample_set = mesh_mod._cone_sample_set

        def spy(m, alpha, r, count, seed):
            out = sample_set(m, alpha, r, count, seed)
            tried.append((alpha, r, out is None))
            return out

        monkeypatch.setattr(mesh_mod, "_cone_sample_set", spy)
        try:
            got = cone_parameters(mesh)
        except NoValidConeError:
            got = None
        monkeypatch.undo()
        want_tried, cleared, want = _schedule_oracle(mesh)
        assert tried == want_tried
        assert got == want
        # the blocks cover the rows in order and hold the full call's values
        chunk = (1 << 18) // mesh.barrier_nodes().shape[0]
        for pts, clearance in cleared:
            rows, blocks = zip(*mesh_mod._clearance_blocks(pts, mesh))
            assert [(b.start, b.stop) for b in rows] == [
                (s0, min(s0 + chunk, pts.shape[0])) for s0 in range(0, pts.shape[0], chunk)
            ]
            assert np.array_equal(np.concatenate(blocks), clearance)


class TestApproachPath:
    def test_interior_and_exterior(self, circle128):
        for node in (0, 40, 64, 100):
            p = approach_path(circle128, node, "interior", depth=8, r=1.0)
            assert p.s_values[-1] == 1.0 * 2.0**-8
            q = approach_path(circle128, node, "exterior", depth=8, r=1.0)
            assert np.allclose(q.points[-1], circle128.nodes[node] + q.s_values[-1] * q.direction)

    def test_deep_interior_path(self, circle256):
        p = approach_path(circle256, 3, "interior", depth=14, r=1.0)
        assert p.s_values[-1] < 1e-4


class TestSerialization:
    def test_round_trip(self, deformed128, tmp_path):
        path = str(tmp_path / "mesh.json")
        save_mesh(deformed128, path)
        m2 = load_mesh(path)
        assert m2.n == deformed128.n
        assert np.abs(m2.nodes - deformed128.nodes).max() == 0.0
        assert np.abs(m2.normals - deformed128.normals).max() == 0.0
        assert np.abs(m2.sigma - deformed128.sigma).max() == 0.0
        assert np.abs(m2.sigma_abs - deformed128.sigma_abs).max() == 0.0
        assert m2.h == deformed128.h

    def test_field_order(self, circle128, tmp_path):
        import json

        path = str(tmp_path / "mesh.json")
        save_mesh(circle128, path)
        with open(path) as fh:
            doc = json.load(fh)
        assert list(doc.keys()) == [
            "n", "nodes", "normals", "sigma", "sigma_abs",
            "interior_seed", "exterior_seed", "h",
        ]
