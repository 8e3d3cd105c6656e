import numpy as np
import pytest

from plemelj.linsolve import (
    IllConditionedError,
    condition_estimate,
    gmres_restarted,
    solve_system,
)


def _well_conditioned(n, seed=0):
    rng = np.random.default_rng(seed)
    A = np.eye(n, dtype=complex) + 0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
    return A


def test_dense_solve_and_condition():
    A = _well_conditioned(40)
    rng = np.random.default_rng(1)
    b = rng.normal(size=40) + 1j * rng.normal(size=40)
    x, cond = solve_system(A, b)
    assert np.linalg.norm(A @ x - b) < 1e-10
    assert cond < 10


def test_condition_estimate_tracks_true_condition():
    A = np.diag(np.linspace(1.0, 1e6, 30)).astype(complex)
    est = condition_estimate(A)
    assert 1e5 < est < 1e7


def test_ill_conditioned_raises():
    A = np.diag(np.concatenate([np.ones(10), [1e-12]])).astype(complex)
    with pytest.raises(IllConditionedError):
        solve_system(A, np.ones(11, dtype=complex))


def test_gmres_matches_dense():
    A = _well_conditioned(60, seed=2)
    rng = np.random.default_rng(3)
    b = rng.normal(size=60) + 1j * rng.normal(size=60)
    x, info = gmres_restarted(lambda v: A @ v, b, tol=1e-12, restart=20)
    assert info["converged"]
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10


def test_gmres_restart_cycles():
    # force several restart cycles
    A = _well_conditioned(120, seed=4)
    b = np.ones(120, dtype=complex)
    x, info = gmres_restarted(lambda v: A @ v, b, tol=1e-11, restart=5, maxiter=300)
    assert info["converged"]
    assert info["iterations"] > 5
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10


def test_zero_rhs():
    A = _well_conditioned(10)
    x, info = gmres_restarted(lambda v: A @ v, np.zeros(10, dtype=complex))
    assert info["converged"]
    assert np.linalg.norm(x) == 0.0
