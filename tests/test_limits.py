"""Sampling, placement and extrapolation by the check.

A check draws its interior points in rounds with one rho run each, places
its new boundary points with one Newton over their stacked levels, and
extrapolates each quantity along its ladders in one Richardson table.  Each
of the three gives, bit for bit, what working one candidate, one ladder or
one ladder's table at a time gives, errors included; the tests below compare
them with references that do so.
"""

import dataclasses
import functools

import numpy as np
import pytest

from conftest import PLAN, ladders
from ladder_reference import place_levels, richardson_table
from test_fields import _klein_doc
from tractorlab import boundary as bd
from tractorlab import expr as ex
from tractorlab.extrapolate import (
    boundary_ladder,
    boundary_ladders,
    richardson_limit,
    richardson_limits,
)
from tractorlab.fields import Chart, Geometry, GeometryError, builtin_geometry, load_geometry
from tractorlab.jets import DomainError
from tractorlab.tractor import TractorCalculus
from tractorlab.verify import SamplingPlan, registry, run_suite

CATALOG = [("klein", 3), ("klein", 4), ("klein", 5), ("af2_generic", 4),
           ("af2_generic", 5), ("af1_generic", 4), ("flat", 3), ("poincare_control", 3)]


@functools.lru_cache(maxsize=None)
def _geometry(label):
    if label == "klein-3-document":
        return load_geometry(_klein_doc(3))
    name, dim = label.rsplit("-", 1)
    return builtin_geometry(name, int(dim))


def _stub(rho, coords=("x0", "x1")):
    # rho is a row of the metric tape, so the stub needs a metric
    return Geometry("stub", Chart(coords), ex.parse_expr(rho, coords), 2.0,
                    np.array([["1", "0"], ["0", "1"]], dtype=object))


def _one_at_a_time(geom, ys, directions=None):
    """Each ladder placed alone, in order: the first error raised, or the
    ladders."""
    return [
        boundary_ladder(geom, y, None if directions is None else directions[i],
                        eps0=PLAN.eps0, levels=PLAN.levels)
        for i, y in enumerate(ys)
    ]


def _raised(fn):
    try:
        fn()
    except Exception as err:  # the error is the result compared
        return type(err), str(err)
    raise AssertionError("no error raised")


# -- one Newton for a check's ladders -------------------------------------------


@pytest.mark.parametrize("label", [f"{n}-{d}" for n, d in CATALOG] + ["klein-3-document"])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
def test_stacked_placement_matches_the_per_level_and_one_ladder_placements(label, count):
    geom = _geometry(label)
    ys = geom.boundary_points(count, np.random.default_rng(100 + count))
    if count > 2:
        ys[-1] = ys[1]  # a repeated point gets the same ladder twice
    got = boundary_ladders(geom, ys, eps0=PLAN.eps0, levels=PLAN.levels)
    assert len(got) == count
    for lad, y, alone in zip(got, ys, _one_at_a_time(geom, ys)):
        (direction,) = geom.inward_direction(y[None])
        assert lad.y == alone.y == tuple(y.tolist())
        assert lad.eps == alone.eps
        assert np.array_equal(lad.direction, direction)
        assert np.array_equal(lad.direction, alone.direction)
        assert np.array_equal(lad.points, alone.points)
        assert np.array_equal(
            lad.points, place_levels(geom, y, direction, PLAN.eps0, PLAN.levels)
        )
        assert lad.points.shape == (PLAN.levels, geom.dim)
        assert not lad.points.flags.writeable


def test_stacked_placement_of_no_point_is_empty(klein3):
    assert boundary_ladders(klein3, np.empty((0, 3)), eps0=PLAN.eps0, levels=PLAN.levels) == []


#: rho = x0 on the line x1 = 0; on x1 = 1 a multiple of x0 - 12 x0^2, whose
#: peak lies below the top level 0.05; rho = 0 on the line x0 = 0, which a
#: ray along x1 follows; and sqrt(4 - x1^2) leaves its domain past x1 = 2.
_STUB = "x0 * (1 - 12*x0*x1^2) * sqrt(4 - x1^2) / 2"
_RAYS = {
    "ok": ((0.0, 0.0), (1.0, 0.0)),
    "unreachable": ((0.0, 1.0), (1.0, 0.0)),
    "tangent": ((0.0, 0.5), (0.0, 1.0)),
    "domain": ((0.0, 1.9), (0.5, 4.0)),  # the first Newton step crosses x1 = 2
}
_UNREACHABLE = (GeometryError, "could not place a ladder point at rho=0.05 from (0.0, 1.0)")
_TANGENT = (GeometryError, "ray from (0.0, 0.5) became tangent to the rho levels")
_DOMAIN = (DomainError, "sqrt of non-positive value -4.100e-01")


@pytest.mark.parametrize("order, expected", [
    (("ok", "unreachable", "tangent"), _UNREACHABLE),
    (("ok", "tangent", "unreachable"), _TANGENT),
    (("tangent", "ok"), _TANGENT),
    (("unreachable", "tangent", "ok"), _UNREACHABLE),
    (("ok", "domain"), _DOMAIN),
    (("domain", "tangent"), _DOMAIN),
    # the stack's first rho run raises, before the tangent level is seen
    (("tangent", "domain"), _TANGENT),
    (("unreachable", "domain", "ok"), _UNREACHABLE),
])
def test_a_failing_stack_raises_the_error_of_placing_one_ladder_at_a_time(order, expected):
    geom = _stub(_STUB)
    ys = [_RAYS[k][0] for k in order]
    directions = [_RAYS[k][1] for k in order]
    got = _raised(lambda: boundary_ladders(geom, ys, directions,
                                           eps0=PLAN.eps0, levels=PLAN.levels))
    assert got == _raised(lambda: _one_at_a_time(geom, ys, directions))
    assert got == expected


@pytest.mark.parametrize("ys, expected", [
    # d(rho) at (0, 3) is outside the domain of sqrt: the stack's one
    # inward_direction run raises
    ([(0.0, 0.0), (0.0, 3.0)], (DomainError, "sqrt of non-positive value -5.000e+00")),
    ([(0.0, 1.0), (0.0, 3.0)], _UNREACHABLE),
])
def test_an_inward_direction_error_in_a_stack_is_the_one_ladder_error(ys, expected):
    geom = _stub(_STUB)
    got = _raised(lambda: boundary_ladders(geom, ys, eps0=PLAN.eps0, levels=PLAN.levels))
    assert got == _raised(lambda: _one_at_a_time(geom, ys))
    assert got == expected


# -- interior points in rounds --------------------------------------------------


def _interior_one_at_a_time(geom, count, rng):
    """Each candidate drawn alone and evaluated as a batch of one."""
    lo, hi = geom.interior_box
    pts, attempts = [], 0
    while len(pts) < count:
        attempts += 1
        if attempts > 200 * max(count, 1):
            raise GeometryError(f"could not sample {count} interior points of {geom.name!r}")
        x = rng.uniform(lo, hi)
        if geom.rho_value(x[None])[0] > 0.05:
            pts.append(x)
    return np.array(pts, dtype=float).reshape(count, geom.dim)


@pytest.mark.parametrize("count", [1, 2, 7, 20, 50])
def test_interior_rounds_match_drawing_one_candidate_at_a_time(klein4, count):
    # klein-4's box [-0.55, 0.55]^4 holds points with rho <= 0.05, so some
    # candidates are rejected and a later round draws again
    for seed in range(5):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = _interior_one_at_a_time(klein4, count, ref_rng)
        got = klein4.interior_points(count, rng)
        assert got.shape == ref.shape == (count, 4)
        assert np.array_equal(got, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_each_round_of_draws_is_one_rho_run(klein4, monkeypatch):
    # at seed 0 one of the first 50 candidates has rho <= 0.05: a second
    # round draws one more
    runs = []
    real = ex.Tape.run
    monkeypatch.setattr(ex.Tape, "run", lambda self, p, s: runs.append(len(p)) or real(self, p, s))
    klein4.interior_points(50, np.random.default_rng(0))
    assert runs == [50, 1]


@pytest.mark.parametrize("count", [1, 3])
def test_interior_exhaustion_matches_drawing_one_candidate_at_a_time(klein4, count):
    # no point of this box has rho > 0.05: both draw 200 * count candidates
    # and raise the same error
    outside = dataclasses.replace(klein4, interior_box=(np.full(4, 0.5), np.full(4, 0.6)))
    ref_rng, rng = np.random.default_rng(8), np.random.default_rng(8)
    ref = _raised(lambda: _interior_one_at_a_time(outside, count, ref_rng))
    assert _raised(lambda: outside.interior_points(count, rng)) == ref
    assert ref == (GeometryError, f"could not sample {count} interior points of 'klein'")
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_a_round_that_raises_raises_the_one_at_a_time_error():
    # sqrt(x0) and sqrt(x1) are outside their domains at the candidates with
    # x0 < 0 or x1 < 0; a round's run evaluates one sqrt at all its rows
    # first, so at seeds 3, 5 and 7 it raises at a later candidate than the
    # first that fails alone
    geom = dataclasses.replace(
        _stub("sqrt(x0) * sqrt(x1) + 1"),
        interior_box=(np.array([-0.1, -0.1]), np.array([1.0, 1.0])),
    )
    for seed in range(8):
        ref = _raised(lambda: _interior_one_at_a_time(geom, 30, np.random.default_rng(seed)))
        assert _raised(lambda: geom.interior_points(30, np.random.default_rng(seed))) == ref
        assert ref[0] is DomainError and "sqrt of non-positive value" in ref[1]


# -- one Richardson table per stacked limit ------------------------------------


def _same_estimate(got, ref) -> bool:
    """Two estimates with the same bits: value (NaN and signed zeros
    included), error and divergence flag."""
    gv, rv = np.asarray(got.value, dtype=float), np.asarray(ref.value, dtype=float)
    return (
        type(got.value) is type(ref.value)
        and gv.shape == rv.shape
        and gv.tobytes() == rv.tobytes()
        and np.float64(got.error).tobytes() == np.float64(ref.error).tobytes()
        and got.diverged is ref.diverged
    )


def _stacks():
    rng = np.random.default_rng(31)
    eps = PLAN.eps0 / 2.0 ** np.arange(PLAN.levels)
    smooth = 1.5 + 0.3 * eps + 2.0 * eps**2
    yield "scalar", np.stack([smooth, -smooth, 1e-7 * rng.normal(size=PLAN.levels)])
    yield "two levels", rng.normal(size=(3, 2, 2, 3))
    yield "one ladder", rng.normal(size=(1, PLAN.levels, 4))
    shaped = smooth[None, :, None, None] + rng.normal(size=(4, PLAN.levels, 2, 2)) * eps[:, None, None]
    yield "tensor", shaped
    divergent = shaped.copy()
    divergent[1] /= eps[:, None, None] ** 2  # grows like rho^-2
    divergent[2] *= 1e-9 / eps[:, None, None]  # grows, but below the floor
    # falls before the second half of the ladder, grows within it
    divergent[3] *= np.array([1.0, 1.0, 5.0, 2.0, 40.0, 80.0])[:, None, None]
    yield "divergent", divergent
    nonfinite = shaped.copy()
    nonfinite[0, 3, 1, 0] = np.nan
    nonfinite[2, 5, 0, 1] = np.inf
    nonfinite[3, 0, 0, 0] = -np.inf
    yield "non-finite", nonfinite
    yield "wide", rng.normal(size=(3, PLAN.levels, 4, 4, 4, 4)) * 1e3 ** np.arange(PLAN.levels)[
        :, None, None, None, None
    ]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("name, stack", list(_stacks()), ids=[n for n, _ in _stacks()])
def test_stacked_richardson_matches_the_per_ladder_table(name, stack):
    got = richardson_limits(stack)
    assert len(got) == len(stack)
    for est, samples in zip(got, stack):
        ref = richardson_table(list(samples))
        assert _same_estimate(est, ref), name
        assert _same_estimate(richardson_limit(list(samples)), ref), name
    if name == "divergent":
        assert [est.diverged for est in got] == [False, True, False, True]
    if name == "non-finite":
        assert [est.diverged for est in got] == [True, False, True, True]


def test_richardson_takes_no_stack_and_rejects_one_level():
    assert richardson_limits(np.empty((0, 6))) == []
    with pytest.raises(ValueError, match="two ladder samples"):
        richardson_limits(np.ones((2, 1, 3)))
    with pytest.raises(ValueError, match="two ladder samples"):
        richardson_limit([1.0])


def test_a_frame_raises_the_first_ladders_error_before_a_later_singular_gram(
    klein3, monkeypatch
):
    # ladder 0's Gram samples diag(1, 1, 1, rho) tend to a singular matrix,
    # and ladder 1's are exactly singular, so their stacked inverse raises;
    # the error is ladder 0's, as when each ladder is judged in turn
    lads = ladders(klein3, [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])

    class Gram:
        def __init__(self, p):
            self.p = p

        def values(self):
            first = (self.p[:, None, :] == lads[0].points[None]).all(axis=-1).any(axis=-1)
            vals = np.zeros((4, 4, len(self.p)))
            vals[[0, 1, 2], [0, 1, 2]] = first.astype(float)
            vals[3, 3] = np.where(first, klein3.rho_value(self.p), 0.0)
            return vals

    monkeypatch.setattr(bd, "l_tau", lambda calc, p, order, s: Gram(p))
    calc = TractorCalculus(klein3)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.stack([Gram(lad.points).values() for lad in lads]).transpose(0, 3, 1, 2))
    ref = _raised(lambda: bd.boundary_frame(calc, lads[:1]))
    assert ref[0] is bd.DegenerateBoundaryError
    assert _raised(lambda: bd.boundary_frame(calc, lads)) == ref


# -- the tape runs of a suite ---------------------------------------------------


@pytest.mark.parametrize("name, dim, ode, budget", [
    # 272 runs, 120 of them the Dormand-Prince 5 evaluations of the two
    # transversal checks at the step 1e-2, whose run at twice the step rides
    # in them, and which no memo serves, and 4 the rho runs of the one
    # Newton that locates the levels on every curve and its doubled run;
    # 410 at the step 5e-3, 566 with 400 RK4 stages at 2e-3, 628 while the
    # memos were keyed by jet order, 1028 at the step 1e-3
    ("klein", 3, True, 300),
    # 125 runs; 132 while the calculus asked for lower orders first, 201
    # while the memos were keyed by jet order, 339 while each candidate,
    # ladder and direction took its own
    ("af2_generic", 4, False, 160),
])
def test_a_suite_makes_few_tape_runs(monkeypatch, name, dim, ode, budget):
    geom = builtin_geometry(name, dim)
    ids = [c.id for c in registry()
           if ode or c.id not in ("lem-2.4-transversal", "prop-2.5-mu")]
    runs = []
    real = ex.Tape.run
    monkeypatch.setattr(ex.Tape, "run", lambda self, p, s: runs.append(1) or real(self, p, s))
    run_suite(geom, ids, SamplingPlan(seed=1))
    assert len(runs) <= budget
