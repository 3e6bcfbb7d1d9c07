"""Shared fixtures for the shearstab test suite."""

import os

import numpy as np
import pytest

import shearstab as ss
from shearstab import galerkin, operators


@pytest.fixture(scope="session")
def couette():
    return ss.couette()


@pytest.fixture(scope="session")
def cubic01():
    return ss.cubic(0.1)


@pytest.fixture(scope="session")
def tanh1():
    return ss.tanh_shear(1.0)


@pytest.fixture(scope="session")
def tanh3():
    return ss.tanh_shear(3.0)


@pytest.fixture(scope="session")
def grid32():
    return ss.build_grid(32)


@pytest.fixture(scope="session")
def grid64():
    return ss.build_grid(64)


@pytest.fixture
def rung_caches():
    """Every cache of shift-free rung parts; a test clears them for a rung
    that must build its own."""
    return (galerkin._PARTS, operators._NODE_VALUES)


def _band_matrix(ab, rows, kl, ku):
    """The rows x ab.shape[1] matrix held in LAPACK band storage."""
    out = np.zeros((rows, ab.shape[1]), dtype=ab.dtype)
    for r in range(ab.shape[0]):
        j = np.arange(ab.shape[1])
        i = j + r - ku
        keep = (i >= 0) & (i < rows)
        out[i[keep], j[keep]] = ab[r, keep]
    return out


@pytest.fixture(scope="session")
def explicit_galerkin_norms():
    """explicit_galerkin_norms(kind, profile, params, grid) is (norm_inv,
    norm_d_inv) of a Galerkin rung from full SVDs of its explicit solution
    operators: ``GalerkinSystem.backsolve`` on the load V^T of every data
    coefficient, mapped by V and V_1."""

    def norms(kind, profile, params, grid):
        parts = galerkin.rung_parts(kind, profile, grid)
        system = galerkin.GalerkinSystem(parts, params)
        values, slopes = (
            _band_matrix(ab, grid.n + 1, ab.shape[0] - 1, 0) for ab in (parts.values, parts.slopes)
        )
        sol = system.backsolve(np.array(values.T))
        return tuple(np.linalg.svd(out @ sol, compute_uv=False)[0] for out in (values, slopes))

    return norms


def assert_close(actual, expected, tol, label=""):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    err = float(np.max(np.abs(actual - expected)))
    assert err <= tol, f"{label}: |{actual} - {expected}| = {err:.3e} > {tol:.1e}"


@pytest.fixture
def cpus(monkeypatch):
    """cpus(count) pretends the affinity mask holds ``count`` CPUs, so a
    map or sweep deals its items over that many processes, and returns the
    list of child pids that ``os.fork`` makes from then on."""
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def pretend(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        return forks

    monkeypatch.setattr(os, "fork", fork)
    return pretend
