import numpy as np
import pytest

from plemelj.linsolve import IllConditionedError, condition_estimate, factor


def _well_conditioned(n, seed=0):
    rng = np.random.default_rng(seed)
    A = np.eye(n, dtype=complex) + 0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
    return A


def test_dense_solve_and_condition():
    A = _well_conditioned(40)
    rng = np.random.default_rng(1)
    b = rng.normal(size=40) + 1j * rng.normal(size=40)
    fac = factor(A)
    x = fac.solve(b)
    assert np.linalg.norm(A @ x - b) < 1e-10
    assert fac.cond < 10


def test_condition_estimate_tracks_true_condition():
    A = np.diag(np.linspace(1.0, 1e6, 30)).astype(complex)
    est = condition_estimate(A)
    assert 1e5 < est < 1e7


def test_ill_conditioned_raises():
    A = np.diag(np.concatenate([np.ones(10), [1e-12]])).astype(complex)
    with pytest.raises(IllConditionedError):
        factor(A)
