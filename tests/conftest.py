"""Shared fixtures for the shearstab test suite."""

import os

import numpy as np
import pytest

import shearstab as ss
from shearstab import operators, ultraspherical


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
    return (
        ultraspherical._SERIES,
        ultraspherical._U_BANDS,
        ultraspherical._NODE_MAPS,
        operators._NODE_VALUES,
    )


@pytest.fixture(scope="session")
def explicit_tau_norms():
    """explicit_tau_norms(kind, series, params, grid) is (norm_inv,
    norm_d_inv) of a tau rung from full SVDs of its explicit weighted
    solution operators: ``TauSystem.backsolve`` on the ``node_maps``
    forcing of every data node, mapped to weighted values and slopes."""

    def norms(kind, series, params, grid):
        system = ultraspherical.TauSystem(kind, series, params, grid.n)
        forcing, values, slopes = ultraspherical.node_maps(system.order, grid)
        sol = system.backsolve(forcing.astype(complex))
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
