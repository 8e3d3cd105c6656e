"""Row blocks of PAIR_BLOCK pairs: the results do not depend on the budget, and the memory stays small."""

import tracemalloc

import numpy as np
import pytest

import plemelj.mesh as mesh_mod
from plemelj.hardy import verify_identities
from plemelj.maximal import (
    _family_nontangential,
    _family_truncated_sup,
    band_limited_family,
    bound_diagnostics,
    default_radii,
)
from plemelj.mesh import (
    BoundaryMesh,
    Region,
    _cone_samples,
    cone_parameters,
    make_circle,
    make_deformed_curve,
    make_sphere,
    region_membership_many,
    validate_domain_manifold,
)
from plemelj.operators import (
    _kernel_rows,
    assemble_kerzman_stein,
    assemble_singular_cauchy,
    cauchy_transform_points,
)

BUILDS = {
    "circle128": lambda: make_circle(128),
    "deformed128": lambda: make_deformed_curve(128, 0.05, 2),
}


def _outputs(mesh):
    """Everything a row-blocked pass computes on the mesh, from fresh caches."""
    # the widest schedule cone's samples, their mirror images through the
    # nodes and their turns into the imaginary directions: interior,
    # exterior and mixed points
    idx = np.arange(mesh.size)
    wide = _cone_samples(mesh, idx, np.pi / 4, mesh.half_diameter(), 64)
    z = np.repeat(mesh.nodes, 64, axis=0)
    points = np.concatenate([wide, 2 * z - wide, z + 1j * (wide - z)])
    family = band_limited_family(mesh, 3, seed=5)
    cone = _cone_samples(mesh, idx, *cone_parameters(mesh), 64)
    return {
        "report": repr(validate_domain_manifold(mesh)),
        "regions": region_membership_many(points, mesh),
        "cone": cone_parameters(mesh),
        "R": np.concatenate([R for _, R in _kernel_rows(mesh, mesh.nodes, idx)], axis=1),
        "C": assemble_singular_cauchy(mesh).matrix,
        "A": assemble_kerzman_stein(mesh).matrix,
        "nontangential": _family_nontangential(mesh, family),
        "truncated": _family_truncated_sup(mesh, family, default_radii(mesh)),
        "subtracted": cauchy_transform_points(mesh, family[0], cone, subtract_node=np.repeat(idx, 64)),
    }


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_results_do_not_depend_on_the_block_budget(name, monkeypatch):
    # 5000 pairs: 39-row blocks of 128 nodes (128 = 3 * 39 + 11)
    want = _outputs(BUILDS[name]())
    monkeypatch.setattr(mesh_mod, "PAIR_BLOCK", 5000)
    got = _outputs(BUILDS[name]())
    assert set(want["regions"]) == {Region.INTERIOR, Region.EXTERIOR, Region.MIXED}
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(got[key], value), key
        else:
            assert got[key] == value, key


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_bound_diagnostics_memory():
    # the family's cone transforms are reduced to norms block by block;
    # keeping every transform value took 29.9 MiB (55.6 MiB counting the
    # import of scipy.stats for the Halton draw)
    mesh = make_circle(64)
    assert _peak_mib(lambda: bound_diagnostics(mesh, family_size=20)) <= 8.0


def test_cone_walk_memory():
    # 15.4 MiB with blocks of 1 << 18 pairs (41.1 MiB counting the import
    # of scipy.stats)
    mesh = make_circle(256)
    assert _peak_mib(lambda: cone_parameters(mesh)) <= 8.0


def test_verify_memory():
    # C, A and the LU factors of I + A take 8 MiB each; keeping the (2, N, N)
    # reciprocal null pairs beside them took 37.1 MiB
    assert _peak_mib(lambda: verify_identities(make_deformed_curve(512, 0.05, 2), refine=False)) <= 31.0


def _cached_arrays(value, seen):
    """Every array a cached value holds, without looking into meshes."""
    if id(value) in seen or isinstance(value, BoundaryMesh):
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
        return
    if isinstance(value, dict):
        value = list(value.values())
    elif hasattr(value, "__dict__"):
        value = list(vars(value).values())
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _cached_arrays(item, seen)


def test_verify_caches_no_pair_array_beside_c_and_a():
    # the kernel (R for n = 2, G for n = 3) lives one row block at a time;
    # the LU factors of I + A are one array per spinor block
    for mesh in (make_deformed_curve(128, 0.05, 2), make_sphere(42)):
        verify_identities(mesh)
        C, A = assemble_singular_cauchy(mesh).matrix, assemble_kerzman_stein(mesh).matrix
        pairs = [a for a in _cached_arrays(mesh.cache, set()) if a.shape == C.shape]
        assert any(a is C for a in pairs) and any(a is A for a in pairs)
        assert all(np.shares_memory(a, C) or np.shares_memory(a, A) for a in pairs)
