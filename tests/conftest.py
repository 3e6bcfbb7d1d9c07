"""Shared fixtures for the shearstab test suite."""

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
