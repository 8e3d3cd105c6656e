import numpy as np
import pytest

from plemelj.mesh import make_circle, make_deformed_curve, make_sphere
from plemelj.operators import BoundaryFunction


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


def band_limited(mesh, seed=0, modes=8, count=1):
    """Random trigonometric test functions on a curve mesh."""
    rng = np.random.default_rng(seed)
    ms = np.arange(-modes, modes + 1)
    d = 1 << mesh.n
    out = []
    for _ in range(count):
        coef = rng.normal(size=(ms.size, d)) + 1j * rng.normal(size=(ms.size, d))
        vals = np.exp(1j * np.outer(mesh.theta, ms)) @ coef / np.sqrt(ms.size)
        out.append(BoundaryFunction(mesh, vals))
    return out if count > 1 else out[0]


def monogenic_linear(mesh):
    """Trace of x1 e2 + x2 e1, a two-sided monogenic polynomial (n = 2)."""
    vals = np.zeros((mesh.size, 4), dtype=complex)
    vals[:, 1] = mesh.nodes[:, 1]
    vals[:, 2] = mesh.nodes[:, 0]
    return BoundaryFunction(mesh, vals)
