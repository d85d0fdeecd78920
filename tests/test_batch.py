"""The batch axis over points: the dense jet kernels, the expression tape,
the Christoffel evaluators and the transversal integrator give, row by row,
what one call per point gives."""

import numpy as np
import pytest

from conftest import ladder, ladders
from tractorlab import boundary as bd
from tractorlab import expr as ex
from tractorlab.fields import GeometryError
from tractorlab.jets import PoleError, jet_einsum, jet_inverse, jet_space
from tractorlab.tractor import TractorCalculus


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
