import dataclasses
import itertools

import numpy as np
import pytest

from tractorlab.extrapolate import boundary_ladder
from tractorlab.fields import builtin_geometry
from tractorlab.tractor import TractorCalculus
from tractorlab.verify import SamplingPlan

#: The sampling plan whose ladder settings the tests extrapolate with.
PLAN = SamplingPlan()


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


def one(point):
    """A single point as a batch of one, ``(1, d)``: every layer takes a
    batch of points, and a test that means one point passes this."""
    return np.array([point], dtype=float)


def max_value(dense):
    """Largest absolute value (constant term) in a dense jet array."""
    return float(np.max(np.abs(dense[..., 0])))


def ladder(geom, y, direction=None):
    """The default plan's ladder at the boundary point ``y``."""
    return boundary_ladder(geom, y, direction, eps0=PLAN.eps0, levels=PLAN.levels)


def ladders(geom, ys):
    return [ladder(geom, y) for y in ys]


def at_boundary_points(geom, *ys):
    """``geom`` with a boundary sampler that yields the points ``ys`` in
    turn, cycling, so a check run on it samples its boundary points from
    ``ys`` (a compactness probe draws one of them first)."""
    points = itertools.cycle(ys)
    return dataclasses.replace(geom, boundary_sampler=lambda rng: next(points))


def lc_pack(geom):
    """The Levi-Civita curvature pack of a geometry, from a calculus."""
    calc = TractorCalculus(geom)
    return calc.pack_of(calc.levi_civita_splitting)
