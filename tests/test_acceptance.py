"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Decrease checks treat residual pairs below RESIDUAL_FLOOR (1e-10) as
converged-to-rounding; a numerically zero Kerzman-Stein operator passes the
spectral-decay proxy vacuously (a zero operator is compact).
"""

import time

import numpy as np
import pytest

from conftest import monogenic_linear
from plemelj.algebra import algebra, cauchy_kernel
from plemelj.hardy import (
    RESIDUAL_FLOOR,
    boundary_limit_test,
    decompose,
    szego_matrix,
)
from plemelj.linsolve import factor
from plemelj.maximal import band_limited_family, bound_diagnostics, maximal_function
from plemelj.mesh import (
    BoundaryMesh,
    make_circle,
    make_deformed_curve,
    validate_domain_manifold,
)
from plemelj.operators import (
    BoundaryFunction,
    assemble_kerzman_stein,
    assemble_singular_cauchy,
    l2_norm,
    plemelj_projection,
    smooth_matrix_norm,
)


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _decreases(r1, r2):
    return r2 < r1 or max(r1, r2) <= RESIDUAL_FLOOR


def test_criterion_1_clifford_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 5):
        alg = algebra(n)
        for i in range(n):
            for j in range(n):
                ei, ej = alg.embed_vector(np.eye(n)[i]), alg.embed_vector(np.eye(n)[j])
                rel = alg.product(ei, ej) + alg.product(ej, ei)
                want = np.zeros(alg.dim)
                want[0] = -2.0 * (i == j)
                worst = max(worst, np.abs(rel - want).max())
    rng = np.random.default_rng(0)
    alg = algebra(3)
    A = rng.normal(size=(1000, alg.dim)) + 1j * rng.normal(size=(1000, alg.dim))
    B = rng.normal(size=(1000, alg.dim)) + 1j * rng.normal(size=(1000, alg.dim))
    C = rng.normal(size=(1000, alg.dim)) + 1j * rng.normal(size=(1000, alg.dim))
    scale = np.abs(A).max() * np.abs(B).max() * np.abs(C).max()
    assoc = np.abs(
        alg.product(alg.product(A, B), C) - alg.product(A, alg.product(B, C))
    ).max() / scale
    anti = np.abs(
        alg.bar(alg.product(A, B)) - alg.product(alg.bar(B), alg.bar(A))
    ).max() / np.abs(alg.product(A, B)).max()
    elapsed = time.perf_counter() - t0
    ok = worst == 0.0 and assoc <= 1e-12 and anti <= 1e-12 and elapsed < 1.0
    _verdict(1, ok, f"relations exact, assoc {assoc:.1e}, bar law {anti:.1e}, {elapsed:.2f}s")


def test_criterion_2_cauchy_reproduction(circle256):
    t0 = time.perf_counter()
    mesh = circle256
    rng = np.random.default_rng(1)
    ang = rng.uniform(0, 2 * np.pi, 50)
    rad = rng.uniform(0.05, 0.7, 50)
    probes = (rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)).astype(complex)
    pole = np.array([3.0, 0.0])
    alg = algebra(2)

    cases = {
        "constant": (BoundaryFunction.constant(mesh, 1.0),
                     np.tile(np.eye(4)[0], (50, 1)).astype(complex)),
        "monogenic linear": (monogenic_linear(mesh), None),
        "kernel trace": (BoundaryFunction.kernel_trace(mesh, pole),
                         alg.embed_vector(cauchy_kernel(probes - pole))),
    }
    lin = np.zeros((50, 4), dtype=complex)
    lin[:, 1] = probes[:, 1]
    lin[:, 2] = probes[:, 0]
    cases["monogenic linear"] = (cases["monogenic linear"][0], lin)

    from plemelj.operators import _transform_points

    worst = 0.0
    for name, (f, want) in cases.items():
        got = _transform_points(mesh, f.values, probes)
        worst = max(worst, np.abs(got - want).max())

    ext_ang = rng.uniform(0, 2 * np.pi, 50)
    ext_rad = rng.uniform(1.4, 2.5, 50)
    ext = (ext_rad[:, None] * np.stack([np.cos(ext_ang), np.sin(ext_ang)], axis=1)).astype(complex)
    one = BoundaryFunction.constant(mesh, 1.0)
    ext_err = np.abs(_transform_points(mesh, one.values, ext)).max()
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and ext_err <= 1e-8 and elapsed < 5.0
    _verdict(2, ok, f"interior max err {worst:.1e}, exterior {ext_err:.1e}, {elapsed:.2f}s")


def test_criterion_3_projection_algebra():
    t0 = time.perf_counter()
    results = []
    for make, caps in ((make_circle, 1e-3), (lambda N: make_deformed_curve(N, 0.05, 2), 1e-2)):
        res = {}
        for N in (128, 256):
            mesh = make(N)
            C = assemble_singular_cauchy(mesh)
            Sp = plemelj_projection(mesh, "+")
            Sm = plemelj_projection(mesh, "-")
            eye = np.eye(C.dense().shape[0])
            res[N] = {
                "S+^2-S+": smooth_matrix_norm((Sp @ Sp).dense() - Sp.dense(), mesh),
                "C^2-I/4": smooth_matrix_norm((C @ C).dense() - 0.25 * eye, mesh),
                "S+S-": smooth_matrix_norm((Sp @ Sm).dense(), mesh),
            }
        for name in res[128]:
            r1, r2 = res[128][name], res[256][name]
            results.append((name, caps, r1, r2, r1 <= caps and _decreases(r1, r2)))
    elapsed = time.perf_counter() - t0
    ok = all(row[-1] for row in results) and elapsed < 30.0
    worst = max(row[2] for row in results)
    _verdict(3, ok, f"all residuals within caps (worst {worst:.1e}), decreasing-or-floor, {elapsed:.1f}s")


def test_criterion_4_hardy_decomposition(circle256):
    Sm = plemelj_projection(circle256, "-")
    worst_recon, worst_cross = 0.0, 0.0
    for f in band_limited_family(circle256, 20, seed=4):
        dec = decompose(f)
        worst_recon = max(worst_recon, dec.residual)
        worst_cross = max(worst_cross, l2_norm(Sm.apply(dec.f_plus)) / l2_norm(f))
    ok = worst_recon <= 1e-12 and worst_cross <= 1e-3
    _verdict(4, ok, f"reconstruction {worst_recon:.1e}, cross-term {worst_cross:.1e}")


def test_criterion_5_szego(circle128, deformed128, sphere162):
    mesh = circle128
    P = szego_matrix(mesh, "+")
    Sp = plemelj_projection(mesh, "+")
    idem = smooth_matrix_norm(P.dense() @ P.dense() - P.dense(), mesh)
    fix = smooth_matrix_norm(P.dense() @ Sp.dense() - Sp.dense(), mesh)

    # independent QR-basis orthogonal projector on scalar data
    rng = np.random.default_rng(5)
    ms = np.arange(-8, 9)
    fv = np.zeros((mesh.size, 4), dtype=complex)
    fv[:, 0] = np.exp(1j * np.outer(mesh.theta, ms)) @ (
        rng.normal(size=ms.size) + 1j * rng.normal(size=ms.size)
    )
    f = BoundaryFunction(mesh, fv)
    cols = []
    for k in range(13):
        for sgn in (1.0, -1.0):
            v = np.zeros((mesh.size, 4), dtype=complex)
            v[:, 0] = np.exp(sgn * 1j * k * mesh.theta) / 2
            v[:, 3] = sgn * 1j * np.exp(sgn * 1j * k * mesh.theta) / 2
            cols.append(v.reshape(-1))
    basis = np.array(cols).T
    w = np.repeat(np.sqrt(mesh.sigma_abs), 4)
    q, _ = np.linalg.qr(w[:, None] * basis)
    oracle = (q @ (q.conj().T @ (w * f.flat()))) / w
    qr_gap = np.abs(P.dense() @ f.flat() - oracle).max()

    conds = {}
    for name, m in (("circle", circle128), ("deformed", deformed128), ("sphere", sphere162)):
        A = assemble_kerzman_stein(m).dense()
        conds[name] = factor([np.eye(A.shape[0]) + A]).cond
    ok = idem <= 1e-3 and fix <= 1e-3 and qr_gap <= 1e-4 and all(c <= 100 for c in conds.values())
    _verdict(
        5,
        ok,
        f"P+^2-P+ {idem:.1e}, P+S+-S+ {fix:.1e}, QR oracle gap {qr_gap:.1e}, "
        f"cond {max(conds.values()):.2f}",
    )


def test_criterion_6_boundary_limits(circle256):
    f = monogenic_linear(circle256)
    rep = boundary_limit_test(f, "interior", depth=16)
    e = rep.errors
    decreasing = bool(np.all(np.diff(e[2:7]) < 0))
    reached = float(e.min())
    one = BoundaryFunction.constant(circle256, 1.0)
    ext = boundary_limit_test(one, "exterior", depth=8)
    ok = decreasing and reached <= 1e-4 and np.all(ext.errors <= 1e-6)
    _verdict(
        6,
        ok,
        f"interior errors decrease (e2={e[2]:.1e} .. e6={e[6]:.1e}), reach {reached:.1e}, "
        f"exterior consts {ext.errors.max():.1e}",
    )


def test_criterion_7_kerzman_stein_compactness(circle128, circle512, deformed128, deformed256):
    A128 = assemble_kerzman_stein(circle128)
    C = assemble_singular_cauchy(circle128)
    zero_floor = 1e-10 * max(1.0, C.operator_norm())
    sv = A128.singular_values()
    if sv[0] <= zero_floor:
        spectral_ok = True
        spectral_note = f"A numerically zero (sigma_1 {sv[0]:.1e}); compact vacuously"
    else:
        spectral_ok = bool(np.all(sv[10:] <= 0.1 * sv[0]))
        spectral_note = f"sigma_10/sigma_1 {sv[10] / sv[0]:.1e}"
    e128 = A128.max_block_norm()
    e512 = assemble_kerzman_stein(circle512).max_block_norm()
    entry_ok = e512 <= 2.0 * e128 + 1e-12

    # non-degenerate supplement: genuine spectral collapse on the deformed
    # curve, with the collapse index growing slower than N
    def decay_index(mesh):
        s = assemble_kerzman_stein(mesh).singular_values()
        return int(np.argmax(s / s[0] <= 0.1))

    k1, k2 = decay_index(deformed128), decay_index(deformed256)
    supp_ok = 0 < k1 and k2 < 2 * k1
    ok = spectral_ok and entry_ok and supp_ok
    _verdict(
        7,
        ok,
        f"{spectral_note}; max entry {e128:.1e} -> {e512:.1e}; deformed collapse "
        f"index {k1} -> {k2}",
    )


def test_criterion_8_maximal_diagnostics(circle64, circle128):
    reps64 = bound_diagnostics(circle64, 20, seed=0)
    reps128 = bound_diagnostics(circle128, 20, seed=0)
    cm = [max(r.c_maximal for r in reps) for reps in (reps64, reps128)]
    cn = [max(r.c_nontangential for r in reps) for reps in (reps64, reps128)]
    stable = abs(cm[1] / cm[0] - 1) <= 0.2 and abs(cn[1] / cn[0] - 1) <= 0.2
    one = BoundaryFunction.constant(circle128, 1.0)
    m_exact = np.abs(maximal_function(circle128, one) - 1.0).max() == 0.0
    cotlar = all(np.all(np.isfinite(r.cotlar_ratio)) for r in reps64 + reps128)
    ok = stable and m_exact and cotlar
    _verdict(
        8,
        ok,
        f"C_M {cm[0]:.3f}->{cm[1]:.3f}, C_N {cn[0]:.3f}->{cn[1]:.3f}, M(1)=1 exact, "
        f"Cotlar finite",
    )


def test_criterion_9_mobius(circle256, circle512):
    from plemelj.mobius import covariance_check, isometry_check, kelvin_map, kernel_intertwining_check

    a = np.array([2.0, 0.0])
    gaps = []
    for m in (circle256, circle512):
        km = kelvin_map(m, a)
        g = band_limited_family(m, 1, seed=9)[0]
        gaps.append(isometry_check(g, km)["relative_gap"])
    km = kelvin_map(circle256, a)
    f = band_limited_family(circle256, 1, seed=10)[0]
    g = band_limited_family(circle256, 1, seed=11)[0]
    f = (1.0 / l2_norm(f)) * f
    g = (1.0 / l2_norm(g)) * g
    _, _, cov = covariance_check(f, g, km)
    inter = kernel_intertwining_check(2, np.zeros(2), num_samples=100)
    ok = (
        gaps[0] <= 1e-3
        and gaps[1] <= 0.5 * gaps[0]
        and cov <= 1e-3
        and inter["operative_reading"] is not None
        and min(inter["gaps"].values()) <= 1e-10
    )
    _verdict(
        9,
        ok,
        f"isometry {gaps[0]:.1e}->{gaps[1]:.1e}, covariance {cov:.1e}, "
        f"operative reading {inter['operative_reading']} ({min(inter['gaps'].values()):.1e})",
    )


def test_criterion_10_domain_manifold_checker(circle128, sphere162, deformed128):
    ok_accept = (
        validate_domain_manifold(circle128).passed
        and validate_domain_manifold(sphere162).passed
        and validate_domain_manifold(deformed128).passed
    )
    bad_nodes = circle128.nodes.copy()
    bad_nodes[10] = bad_nodes[9] + 0.5 * np.array([1.0, 1j])
    bad = BoundaryMesh(
        n=2, nodes=bad_nodes, normals=circle128.normals, sigma=circle128.sigma,
        sigma_abs=circle128.sigma_abs, interior_seed=circle128.interior_seed,
        exterior_seed=circle128.exterior_seed, h=circle128.h,
    )
    rep = validate_domain_manifold(bad)
    ok_reject = not rep.passed and rep.witness is not None
    m512 = make_circle(512)
    t0 = time.perf_counter()
    validate_domain_manifold(m512)
    elapsed = time.perf_counter() - t0
    ok = ok_accept and ok_reject and elapsed < 5.0
    _verdict(
        10,
        ok,
        f"accepts circle/sphere/deformed, rejects null pair (witness {rep.witness}), "
        f"N=512 checker {elapsed:.2f}s",
    )
