import numpy as np
import pytest

from plemelj.algebra import algebra, cauchy_kernel
from plemelj.mesh import _pushforward, make_circle, make_deformed_curve, make_sphere
from plemelj.operators import BoundaryFunction, _kernel_rows, _node_factors


@pytest.fixture(scope="session")
def circle64():
    return make_circle(64)


@pytest.fixture(scope="session")
def circle128():
    return make_circle(128)


@pytest.fixture(scope="session")
def circle256():
    return make_circle(256)


@pytest.fixture(scope="session")
def circle512():
    return make_circle(512)


@pytest.fixture(scope="session")
def deformed128():
    return make_deformed_curve(128, 0.05, 2)


@pytest.fixture(scope="session")
def deformed256():
    return make_deformed_curve(256, 0.05, 2)


@pytest.fixture(scope="session")
def deformed1024():
    return make_deformed_curve(1024, 0.05, 2)


@pytest.fixture(scope="session")
def sphere42():
    return make_sphere(42)


@pytest.fixture(scope="session")
def sphere162():
    return make_sphere(162)


def monogenic_linear(mesh):
    """Trace of x1 e2 + x2 e1, a two-sided monogenic polynomial (n = 2)."""
    vals = np.zeros((mesh.size, 4), dtype=complex)
    vals[:, 1] = mesh.nodes[:, 1]
    vals[:, 2] = mesh.nodes[:, 0]
    return BoundaryFunction(mesh, vals)


def pair_kernel(mesh):
    """Oracle: cauchy_kernel(z_i - z_j) components (N, N, n) for every node pair, 0 on the diagonal."""
    diffs = mesh.nodes[:, None, :] - mesh.nodes[None, :, :]
    idx = np.arange(mesh.size)
    diffs[idx, idx] = np.eye(mesh.n)[0]  # placeholder off the null cone
    G = cauchy_kernel(diffs)
    G[idx, idx] = 0.0
    return G


def kernel_blocks(mesh, points, skip=None):
    """The spinor blocks (blocks, M s, N s) of (1/omega) G(p_m - z_j) n_j at (M, n) points, 0 at (m, skip[m]).

    The row blocks of operators._kernel_rows joined; for n = 2 those are the
    bare reciprocals R_rho, times the node factors the columns carry.
    """
    K = np.concatenate([K for _, K in _kernel_rows(mesh, points, skip)], axis=1)
    return K * _node_factors(mesh)[:, None, :] if mesh.n == 2 else K


def quad_weights(mesh):
    """Oracle: (N, N) singular quadrature weights w_ij.

    Closed curves with even N take odd offsets i - j with weights 2 sigma_j;
    other meshes take the punctured rule, sigma_j off the diagonal.
    """
    N = mesh.size
    idx = np.arange(N)
    if mesh.theta is not None and N % 2 == 0:
        return ((idx[:, None] - idx[None, :]) % 2) * (2.0 * mesh.sigma)[None, :]
    W = np.tile(mesh.sigma, (N, 1))
    W[idx, idx] = 0.0
    return W


def pairing(f, g):
    """Oracle: the Clifford-bilinear pairing sum_j bar(f_j) g_j sigma_j, as coefficients (d,)."""
    f._check(g)
    alg = algebra(f.mesh.n)
    return np.sum(alg.product(alg.bar(f.values), g.values) * f.mesh.sigma[:, None], axis=0)


def make_flat_patch(N):
    """Periodic straight line of length 2 pi, normal (0, 1), with an open chain of edges (flat-patch boundedness)."""
    theta = 2 * np.pi * np.arange(N) / N
    return _pushforward(
        np.stack([theta, np.zeros(N)], axis=1).astype(complex), np.tile(np.array([0.0, 1.0], dtype=complex), (N, 1)),
        2 * np.pi / N, np.stack([np.arange(N - 1), np.arange(1, N)], axis=1),
        np.array([np.pi, -1.0], dtype=complex), np.array([np.pi, 1.0], dtype=complex), make_flat_patch, theta,
    )
