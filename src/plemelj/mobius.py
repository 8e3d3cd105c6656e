"""Kelvin/Moebius transformation machinery and covariance checks.

The map is psi(z) = (z + a)^{-1} for a constant vector a; a boundary
function g on dM transplants to G(z + a) g(psi(z)) on the pulled-back
boundary.  The pulled-back mesh is built like every other closed curve
(mesh._closed_curve), but its tangents are central differences of the
transported nodes, not the map's exact Jacobian, so isometry and covariance
gaps measure honest two-sided quadrature convergence (O(h^2) from the
differencing) rather than an algebraic identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import algebra, cauchy_kernel, vector_inverse
from .mesh import BoundaryMesh, _closed_curve
from .operators import BoundaryFunction, l2_norm

__all__ = [
    "KelvinMap",
    "covariance_check",
    "isometry_check",
    "kelvin_map",
    "kernel_intertwining_check",
    "transplant",
]


@dataclass
class KelvinMap:
    a: np.ndarray
    image_mesh: BoundaryMesh    # dM, where g lives (u-space)
    domain_mesh: BoundaryMesh   # d psi^{-1}(M) (z-space)


def kelvin_map(mesh: BoundaryMesh, a) -> KelvinMap:
    """Build the map data for psi(z) = (z + a)^{-1} with image boundary dM.

    The pulled-back nodes are z_i = u_i^{-1} - a, a of n components; raises
    NullVectorError when some u_i is on the null cone (the map is invalid there).
    """
    if mesh.n != 2 or mesh.theta is None:
        raise ValueError("Kelvin maps are implemented for closed curves in C^2")
    a = np.asarray(a, dtype=complex)
    if a.shape != (mesh.n,):
        raise ValueError(f"translation must have {mesh.n} components, not {a.size}")
    builder = (lambda m: kelvin_map(mesh.builder(m), a).domain_mesh) if mesh.builder else None
    z = vector_inverse(mesh.nodes) - a
    tang = (np.roll(z, -1, axis=0) - np.roll(z, 1, axis=0)) / (2 * (2 * np.pi / mesh.size))  # central differences
    domain = _closed_curve(z, tang, mesh.theta, np.mean(z.real, axis=0).astype(complex), builder)
    return KelvinMap(a=a, image_mesh=mesh, domain_mesh=domain)


def transplant(g: BoundaryFunction, kmap: KelvinMap) -> BoundaryFunction:
    """G(z + a) g(psi(z)) on the pulled-back boundary, node by node."""
    if g.mesh is not kmap.image_mesh and g.mesh.size != kmap.image_mesh.size:
        raise ValueError("function does not live on the map's image mesh")
    alg = algebra(g.mesh.n)
    Gv = cauchy_kernel(kmap.domain_mesh.nodes + kmap.a)
    vals = np.einsum("jab,jb->ja", alg.left_vector_matrix(Gv), g.values)
    return BoundaryFunction(kmap.domain_mesh, vals)


def isometry_check(g: BoundaryFunction, kmap: KelvinMap):
    """Compare ||g|| on dM with ||transplant(g)|| on the pulled-back mesh."""
    norm_g = l2_norm(g)
    norm_t = l2_norm(transplant(g, kmap))
    gap = abs(norm_t - norm_g) / max(norm_g, 1e-300)
    return {"norm_image": norm_g, "norm_domain": norm_t, "relative_gap": gap}


def covariance_check(f: BoundaryFunction, g: BoundaryFunction, kmap: KelvinMap):
    """Two-sided evaluation of the transformation rule for integral f n g dsigma.

    Returns both sides as coefficient arrays (d,) and the norm of their gap.
    """
    mesh = kmap.image_mesh
    dom = kmap.domain_mesh
    alg = algebra(mesh.n)
    n_img = alg.embed_vector(mesh.normals)
    lhs_terms = alg.product(f.values, alg.product(n_img, g.values))
    lhs = np.sum(lhs_terms * mesh.sigma[:, None], axis=0)

    Gv = alg.embed_vector(cauchy_kernel(dom.nodes + kmap.a))
    n_dom = alg.embed_vector(dom.normals)
    inner = alg.product(Gv, alg.product(n_dom, alg.product(Gv, g.values)))
    rhs_terms = alg.product(f.values, inner)
    rhs = np.sum(rhs_terms * dom.sigma[:, None], axis=0)
    gap = float(np.sqrt(np.sum(np.abs(lhs - rhs) ** 2)))
    return lhs, rhs, gap


def kernel_intertwining_check(n: int = 2, a=None, num_samples: int = 100, seed: int = 2):
    """Gaps of the four candidate readings of the kernel intertwining rule.

    The displayed rule relates G(psi(w) - psi(z)) to G(.)^{-1} G(w - z)
    G(.)^{-1} with outer arguments read either literally (w, z) or shifted
    (w + a, z + a), and with either orientation of the left-hand
    difference.  All four gaps are reported; the reading that holds to
    1e-10 on every sample is recorded as operative, never assumed.

    The pairs (w, z) come from one Generator in batches of shape (pairs, 2,
    n), which numpy fills in the stream order w1, z1, w2, z2, ...  A pair
    is rejected when w, z, w + a, z + a or w - z lies within 1e-3 of the
    null cone, or psi(w) - psi(z) within 1e-12; the first num_samples
    accepted pairs are evaluated in one array pass.  cauchy_kernel decides
    real or complex once per batch, which for a real a (every CLI run) is
    each sample's decision, so at n = 2 the gaps are a per-sample loop's
    bit for bit.
    """
    if n % 2:
        raise ValueError("even n required for the complex kernel")
    a = np.asarray(2.0 * np.eye(n)[0] if a is None else a, dtype=complex)
    alg = algebra(n)
    rng = np.random.default_rng(seed)
    w = z = np.empty((0, n))
    while len(w) < num_samples:
        bw, bz = np.moveaxis(rng.normal(size=(num_samples - len(w), 2, n)) * 1.5, 1, 0)
        keep = np.min([np.abs(np.sum(x * x, axis=-1)) for x in (bw, bz, bw + a, bz + a, bw - bz)], axis=0) >= 1e-3
        bw, bz = bw[keep], bz[keep]  # vector_inverse refuses a null entry
        d = vector_inverse(bw + a) - vector_inverse(bz + a)
        keep = np.abs(np.sum(d * d, axis=-1)) >= 1e-12
        w, z = np.concatenate([w, bw[keep]]), np.concatenate([z, bz[keep]])
    d = vector_inverse(w + a) - vector_inverse(z + a)  # psi(w) - psi(z)

    def kernel(x, inverse=False):  # G(x) or G(x)^{-1}, as multivectors
        return alg.embed_vector(vector_inverse(cauchy_kernel(x)) if inverse else cauchy_kernel(x))

    lhs = {"": kernel(d), "_reversed": kernel(-d)}
    mid = kernel(w - z)
    rhs = {  # G(x)^{-1} G(w - z) G(y)^{-1}
        reading: alg.product(kernel(x, True), alg.product(mid, kernel(y, True)))
        for reading, x, y in (("literal", w, z), ("shifted", w + a, z + a))
    }
    scale = np.maximum(alg.norm(lhs[""]), 1e-300)
    gaps = {
        reading + side: float(np.max(alg.norm(lhs[side] - rhs[reading]) / scale, initial=0.0))
        for side in ("", "_reversed")
        for reading in ("literal", "shifted")
    }
    best = min(gaps, key=gaps.get)
    return {"gaps": gaps, "operative_reading": best if gaps[best] <= 1e-10 else None}
