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
