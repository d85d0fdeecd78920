"""The batch axis over points: the dense jet kernels, the expression tape,
the Christoffel evaluators, the curvature and tractor layers, the point
functions of the boundary quantities and the transversal integrator give,
row by row, what one call per point gives.

A batch gives each row bit for bit what its point gives, with one
exception: the order-1 jets of ``bgg_split_metricity``, whose slots take
traces of covariant derivatives that numpy sums in another order for a
batch than for one point.  They agree to 1e-13 relative; on klein-3 one
coefficient moves by about 1e-23.  (A full contraction such as the scalar
curvature's ``jet_einsum("ab,ab->")`` runs row by row for this reason.)
"""

import numpy as np
import pytest

from conftest import PLAN, ladder, ladders
from ladder_reference import place_levels
from tractorlab import boundary as bd
from tractorlab import cli
from tractorlab import expr as ex
from tractorlab.affine import CurvaturePack
from tractorlab.extrapolate import boundary_ladder, boundary_limit
from tractorlab.fields import Chart, Geometry, GeometryError
from tractorlab.jets import PoleError, jet_einsum, jet_inverse, jet_space
from tractorlab.tractor import (
    TractorCalculus,
    bgg_split_metricity,
    l_tau,
    tractor_curvature,
)


@pytest.fixture(params=["klein3", "af2"])
def geom(request):
    return request.getfixturevalue(request.param)


def _points(geom, count=4):
    return np.array(geom.interior_points(count, np.random.default_rng(5)))


def _per_point(fn, pts):
    """Results of ``fn`` at each point, stacked on the batch axis."""
    return np.stack([fn(p) for p in pts], axis=-2)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_tape_batch_matches_points(geom, order):
    space = jet_space(geom.dim, order)
    roots = [ex.parse_expr(r, geom.chart.coord_names) if isinstance(r, str) else r
             for r in geom.metric.flat] + [geom.rho]
    tape = ex.compile_tape(roots, geom.chart.coord_names)
    pts = _points(geom)
    got = tape.run(pts, space)
    assert got.shape == (len(roots), len(pts), space.ncoeff)
    assert np.array_equal(got, _per_point(lambda p: tape.run(p, space), pts))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_einsum_and_inverse_batch_match_points(geom, order):
    space = jet_space(geom.dim, order)
    gfield = geom.metric_field()
    pts = _points(geom)
    g = gfield.dense(pts, order)
    assert g.shape == (geom.dim, geom.dim, len(pts), space.ncoeff)
    assert np.array_equal(g, _per_point(lambda p: gfield.dense(p, order), pts))

    ginv = jet_inverse(g, space)
    assert np.array_equal(
        ginv, _per_point(lambda p: jet_inverse(gfield.dense(p, order), space), pts)
    )
    prod = jet_einsum("ij,jk->ik", g, ginv, space)
    ref = _per_point(
        lambda p: jet_einsum(
            "ij,jk->ik", gfield.dense(p, order),
            jet_inverse(gfield.dense(p, order), space), space,
        ),
        pts,
    )
    assert np.array_equal(prod, ref)
    # and the product is the identity jet
    assert np.max(np.abs(prod[..., 0] - np.eye(geom.dim)[..., None])) < 1e-12
    assert np.max(np.abs(prod[..., 1:]), initial=0.0) < 1e-10


def test_christoffel_values_batch_matches_points(geom):
    conn = TractorCalculus(geom).hat
    pts = _points(geom)
    got = conn.christoffel_values(pts)
    assert got.shape == (geom.dim,) * 3 + (len(pts),)
    ref = np.stack([conn.christoffel_values(p) for p in pts], axis=-1)
    assert np.array_equal(got, ref)


def test_singular_row_in_a_batch_raises(klein3):
    space = jet_space(3, 1)
    g = np.array(klein3.metric_field().dense(_points(klein3), 1))
    jet_inverse(g, space)
    g[1, :, 2] = g[0, :, 2]  # matrix 2 of the batch: row 1 repeats row 0
    with pytest.raises(PoleError):
        jet_inverse(g, space)
    jet_inverse(np.delete(g, 2, axis=2), space)


def test_batched_transversals_match_single_runs(klein3):
    ys = klein3.boundary_points(4, np.random.default_rng(3))
    opts = dict(step=1e-3, horizon=0.05)
    calc = TractorCalculus(klein3)
    batch = bd.geodetic_transversals(calc, ladders(klein3, ys), **opts)
    assert len(batch) == 4
    for y, curve in zip(ys, batch):
        single = bd.geodetic_transversals(calc, [ladder(klein3, y)], **opts)[0]
        assert curve.y == single.y
        assert np.array_equal(curve.ts, single.ts)
        for got, ref in [(curve.points, single.points), (curve.mus, single.mus),
                         (curve.accs, single.accs), (curve.rhos, single.rhos)]:
            assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_batched_transversals_poincare_point_raises(poincare3):
    ys = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    with pytest.raises(bd.BoundaryExtensionError):
        bd.geodetic_transversals(TractorCalculus(poincare3), ladders(poincare3, ys))


def test_domain_exit_names_the_lowest_index_among_ties(klein3):
    # the rho-connection of the Klein model is flat: each curve is the
    # chord x = y - t y/2, which leaves the ball at t = 4 for every y
    ys = [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]
    for order in (ys, ys[::-1]):
        with pytest.raises(GeometryError) as err:
            bd.geodetic_transversals(
                TractorCalculus(klein3), ladders(klein3, order), step=0.03, horizon=4.5
            )
        assert f"from {tuple(order[0])}" in str(err.value)
        assert "t=4.02" in str(err.value)


# -- the curvature and tractor layers and the point functions -----------------

BUILTINS = ["klein3", "af2", "af1", "flat3", "poincare3"]

#: Quantities a batch gives to 1e-13 relative (module docstring).
TOLERANT = {"bgg_split_metricity"}

PACK_NAMES = ["riemann", "ricci", "scalar", "schouten", "beta", "weyl",
              "schouten_derivative", "cotton"]


@pytest.fixture(params=BUILTINS)
def any_geom(request):
    return request.getfixturevalue(request.param)


def _ladder_batch(geom):
    """The levels of one default ladder: the batch every boundary limit
    evaluates."""
    y = geom.boundary_points(1, np.random.default_rng(7))[0]
    return ladder(geom, y).batch


def _assert_rows_match(name, batch_fn, point_fn, pts):
    """``batch_fn(pts)`` (batch axis last) against ``point_fn`` at each row:
    the same error, or the same values (to 1e-13 for ``TOLERANT``)."""
    try:
        ref = np.stack([np.asarray(point_fn(p)) for p in pts], axis=-1)
    except (np.linalg.LinAlgError, PoleError) as err:
        with pytest.raises(type(err)):
            batch_fn(pts)
        return
    got = np.asarray(batch_fn(pts))
    assert got.shape == ref.shape, name
    if name in TOLERANT:
        scale = max(float(np.max(np.abs(ref))), 1.0)
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale, name
    else:
        assert np.array_equal(got, ref), name


@pytest.mark.parametrize("order", [0, 1])
def test_curvature_pack_batch_matches_points(any_geom, order):
    calc = TractorCalculus(any_geom)
    pack = calc.pack_of(calc.levi_civita_splitting)
    pts = _ladder_batch(any_geom)
    for name in PACK_NAMES:
        _assert_rows_match(
            name,
            lambda b: np.moveaxis(pack.dense(name, b, order), -2, -1),
            lambda p: pack.dense(name, p, order),
            pts,
        )


def test_point_functions_batch_match_points(any_geom):
    calc = TractorCalculus(any_geom)
    pts = _ladder_batch(any_geom)
    quantities = dict(bd.POINT_QUANTITIES)
    quantities["h_form"] = lambda c, p: bd.h_form(c, 0.25, p)
    quantities["schouten_trace"] = bd.schouten_trace
    quantities["tracefree_ricci"] = bd.tracefree_ricci
    for name, f in quantities.items():
        _assert_rows_match(name, lambda b: f(calc, b), lambda p: f(calc, p), pts)


@pytest.mark.parametrize("order", [0, 1])
def test_tractor_layer_batch_matches_points(any_geom, order):
    calc = TractorCalculus(any_geom)
    pts = _ladder_batch(any_geom)
    sigma = calc.metricity_field()
    tractor = {
        "l_tau": lambda p: l_tau(calc, p, order, calc.reference).data,
        "bgg_split_metricity": lambda p: bgg_split_metricity(
            calc, sigma, calc.reference, p, order
        ).data,
        "tractor_curvature": lambda p: tractor_curvature(
            calc, calc.reference, p, order
        ).data,
    }
    for name, f in tractor.items():
        _assert_rows_match(name, lambda b: np.moveaxis(f(b), -2, -1), f, pts)


def test_a_singular_level_names_its_point(klein3, monkeypatch, capsys):
    # one level of the ladder gets a singular Schouten tensor: the eval's
    # error names that level's point, as when each level ran on its own
    y = (0.0, 0.6, 0.8)
    bad = ladder(klein3, y).points[3]
    real = CurvaturePack.dense

    def dense(self, name, point, order):
        out = real(self, name, point, order)
        hit = np.all(np.reshape(point, (-1, len(bad))) == bad, axis=1)
        if name != "schouten" or not hit.any():
            return out
        out = np.array(out)
        if np.ndim(point) == 2:
            out[..., hit, :] = 0.0
        else:
            out[...] = 0.0
        return out

    monkeypatch.setattr(CurvaturePack, "dense", dense)
    code = cli.main([
        "eval", "--geometry", "klein", "--dim", "3", "--quantity", "t_vector",
        "--boundary-point=" + ",".join(map(str, y)), "--extrapolate",
    ])
    assert code == 2
    assert f"the Schouten tensor is singular at {bad}" in capsys.readouterr().err


def test_a_pole_level_raises_its_own_error(klein3):
    # the batch raises; the error that leaves is the first failing level's
    lad = ladder(klein3, (1.0, 0.0, 0.0))
    bad = lad.points[2:4]

    def f(p):
        for row in np.atleast_2d(p).tolist():
            if tuple(row) in bad:
                raise PoleError(f"pole at {p}" if np.ndim(p) == 1 else "pole")
        return klein3.rho_value(p)

    with pytest.raises(PoleError) as err:
        boundary_limit(f, lad)
    assert str(err.value) == f"pole at {bad[0]}"


# -- ladder placement ---------------------------------------------------------


@pytest.mark.parametrize("eps0, levels", [(PLAN.eps0, PLAN.levels), (0.3, 9)])
def test_batched_newton_places_the_per_level_points(any_geom, eps0, levels):
    for y in any_geom.boundary_points(8, np.random.default_rng(11)):
        lad = boundary_ladder(any_geom, y, eps0=eps0, levels=levels)
        direction = any_geom.inward_direction(y)
        assert lad.points == place_levels(any_geom, y, direction, eps0, levels)
        assert np.array_equal(lad.batch, np.array(lad.points))


@pytest.mark.parametrize("rho, direction", [
    ("x0 - 10*x0^2", (1.0, 0.0)),  # rho peaks at 0.025: the top level fails
    ("x0", (0.0, 1.0)),  # the ray runs along a rho level
])
def test_a_failing_ladder_raises_the_first_failing_levels_error(rho, direction):
    coords = ("x0", "x1")
    geom = Geometry("stub", Chart(coords), ex.parse_expr(rho, coords), 2.0,
                    np.empty((2, 2), dtype=object))
    y = (0.0, 0.0)
    with pytest.raises(GeometryError) as ref:
        place_levels(geom, y, direction, PLAN.eps0, PLAN.levels)
    with pytest.raises(GeometryError) as got:
        boundary_ladder(geom, y, direction, eps0=PLAN.eps0, levels=PLAN.levels)
    assert str(got.value) == str(ref.value)
