import numpy as np
import pytest

from tractorlab.fields import builtin_geometry
from tractorlab.jets import jet_values


@pytest.fixture(scope="session")
def klein3():
    return builtin_geometry("klein", 3)


@pytest.fixture(scope="session")
def klein4():
    return builtin_geometry("klein", 4)


@pytest.fixture(scope="session")
def af2():
    return builtin_geometry("af2_generic", 4)


@pytest.fixture(scope="session")
def af1():
    return builtin_geometry("af1_generic", 4)


@pytest.fixture(scope="session")
def flat3():
    return builtin_geometry("flat", 3)


@pytest.fixture(scope="session")
def poincare3():
    return builtin_geometry("poincare_control", 3)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)


def max_value(arr):
    return float(np.max(np.abs(jet_values(arr))))
