"""The batch axis over points.  Every layer takes a batch of points ``(B,
d)``, and one point is a batch of one: the dense jet kernels, the expression
tape, the Christoffel evaluators, the curvature and tractor layers, the
point functions of the boundary quantities, the transversal integrator and
the Newton that locates levels on a transversal give each row of a stacked
batch, bit for bit, what that row's point gives as a batch of one; and a
check's ladders evaluated as one stacked batch give each ladder the bits of
its own evaluation.  ``tractorlab eval --point`` evaluates a batch of one
and the checks evaluate stacked rows, so this is what makes an eval and a
check agree.

numpy sums a contraction over the last axis of both operands as a dot
product in a batch of one, in another order than the rows of a larger
batch, so ``jet_einsum`` runs such a contraction row by row; the tests
below pin that every contraction shape gives each row the bits of its batch
of one.
"""

import numpy as np
import pytest

from conftest import PLAN, ladder, ladders
from ladder_reference import locate_on_curve, place_levels
from tractorlab import boundary as bd
from tractorlab import cli
from tractorlab import expr as ex
from tractorlab.affine import CurvaturePack
from tractorlab.extrapolate import boundary_ladder, boundary_limit, ladder_samples
from tractorlab.fields import Chart, Geometry, GeometryError, builtin_geometry, load_geometry
from tractorlab.jets import DomainError, PoleError, jet_einsum, jet_inverse, jet_space
from tractorlab.tractor import (
    TractorCalculus,
    bgg_split_metricity,
    curvature_of,
    l_tau,
    metric_tractor_curvature_blocks,
    metric_tractor_omega,
    polynomial_tractor_section,
    standard_curvature_blocks,
    std_tractor_derivative,
    tractor_curvature,
)


@pytest.fixture(params=["klein3", "af2"])
def geom(request):
    return request.getfixturevalue(request.param)


def _points(geom, count=4):
    return geom.interior_points(count, np.random.default_rng(5))


def _per_point(fn, pts, axis=-2):
    """Results of ``fn`` at each point as a batch of one, joined on the
    batch axis (``axis``: -2 for dense jets, -1 for values)."""
    return np.concatenate([fn(pts[k : k + 1]) for k in range(len(pts))], axis=axis)


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
    calc = TractorCalculus(geom)
    pts = _points(geom)
    got = bd.hat_christoffels(calc, pts)
    assert got.shape == (geom.dim,) * 3 + (len(pts),)
    ref = _per_point(lambda p: bd.hat_christoffels(calc, p), pts, axis=-1)
    assert np.array_equal(got, ref)


@pytest.fixture(scope="module")
def klein5():
    return builtin_geometry("klein", 5)


@pytest.fixture(scope="module")
def af2_5():
    return builtin_geometry("af2_generic", 5)


@pytest.mark.parametrize(
    "name", ["klein3", "af2", "af1", "flat3", "poincare3", "klein4", "klein5", "af2_5"]
)
def test_hat_values_from_given_rho_jets_match_the_connection(request, name):
    # the values every stage and boundary limit takes, from the order-1 rho
    # and metric jets of one run of the metric tape, are the value slice of
    # the connection's own jets
    geom = request.getfixturevalue(name)
    calc = TractorCalculus(geom)
    pts = geom.interior_points(6, np.random.default_rng(11))
    got = calc.hat_christoffel_values(*geom.rho_and_metric(pts, 1))
    assert np.array_equal(got, calc.hat.dense(pts, 0)[..., 0])


def test_singular_row_in_a_batch_raises(klein3):
    space = jet_space(3, 1)
    g = np.array(klein3.metric_field().dense(_points(klein3), 1))
    jet_inverse(g, space)
    g[1, :, 2] = g[0, :, 2]  # matrix 2 of the batch: row 1 repeats row 0
    with pytest.raises(PoleError):
        jet_inverse(g, space)
    jet_inverse(np.delete(g, 2, axis=2), space)


@pytest.mark.parametrize("name", ["klein3", "af2", "af1", "klein5"])
def test_batched_transversals_match_single_runs(request, name):
    # bit for bit: a suite integrates its checks' curves in one batch, and
    # each check reads its rows as if it had integrated them alone
    geom = request.getfixturevalue(name)
    ys = geom.boundary_points(4, np.random.default_rng(3))
    opts = dict(step=1e-3, horizon=0.05)
    calc = TractorCalculus(geom)
    batch = bd.geodetic_transversals(calc, ladders(geom, ys), **opts)
    singles = [bd.geodetic_transversals(calc, [ladder(geom, y)], **opts)[0] for y in ys]
    assert [curve.y for curve in batch] == [curve.y for curve in singles] == list(
        map(tuple, ys.tolist())
    )
    for curve, single in zip(batch, singles):
        assert np.array_equal(curve.ts, single.ts)
    _assert_same_curves(batch, singles)


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


def test_domain_exit_names_the_earliest_curve(klein3):
    # the chord from (1, 0, 0) along (-1/2, 0.3, 0) leaves the ball at
    # t = 1/0.34, before the radial chord from (0, 1, 0) does at t = 4
    radial = ladder(klein3, (0.0, 1.0, 0.0))
    oblique = ladder(klein3, (1.0, 0.0, 0.0), direction=(-0.5, 0.3, 0.0))
    calc = TractorCalculus(klein3)
    opts = dict(step=0.01, horizon=5.0)
    with pytest.raises(GeometryError) as alone:
        bd.geodetic_transversals(calc, [oblique], **opts)
    assert str(alone.value) == (
        "transversal from (1.0, 0.0, 0.0) left the chart domain at t=2.95"
    )
    for order in ([radial, oblique], [oblique, radial]):
        with pytest.raises(GeometryError) as err:
            bd.geodetic_transversals(calc, order, **opts)
        assert str(err.value) == str(alone.value)


def _assert_same_curves(got, want):
    for a, b in zip(got, want, strict=True):
        for field in ("points", "mus", "accs", "rhos"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field


def _counted_stage_runs(monkeypatch, fail=lambda call, rho: False):
    """Count the joint runs of the metric tape; the run of 1-based number
    ``call`` raises a fresh ``PoleError`` where ``fail(call, rho)`` holds.
    The launch makes no joint run, so on a geometry with a closed-form
    extension (no ladder limit runs first) step ``k`` makes calls ``4 k +
    1`` to ``4 k + 4``, the last of them at the step's end.  Returns the
    list of the errors raised and the batch size of each call."""
    real, raised, calls = Geometry.rho_and_metric, [], []

    def counted(self, points, order):
        calls.append(len(points))
        rho, g = real(self, points, order)
        if fail(len(calls), rho):
            raised.append(PoleError(f"refused at run {len(calls)}"))
            raise raised[-1]
        return rho, g

    monkeypatch.setattr(Geometry, "rho_and_metric", counted)
    return raised, calls


@pytest.mark.parametrize("name", ["klein3", "af2", "af1", "klein5"])
def test_the_launch_acceleration_is_the_extended_value(request, monkeypatch, name):
    # the launch points lie on the boundary: their acceleration is
    # -Gamma(mu0, mu0) with the connection's extended values, their rho is
    # one rho run's, and every stage after them makes one joint run (after
    # the one joint run of the stacked ladders' limit, where the geometry
    # has no closed form)
    geom = request.getfixturevalue(name)
    ys = geom.boundary_points(3, np.random.default_rng(4))
    calc = TractorCalculus(geom)
    lads = ladders(geom, ys)
    gamma = np.stack(bd.extended_christoffels(calc, lads), axis=-1)
    mu0 = np.array([lad.direction for lad in lads])
    _, calls = _counted_stage_runs(monkeypatch)
    curves = bd.geodetic_transversals(calc, lads, step=1e-3, horizon=0.01)
    limit = [] if geom.exact_hat_christoffels else [sum(len(lad.points) for lad in lads)]
    assert calls == limit + [len(ys)] * 4 * 10
    launch = np.array([curve.accs[0] for curve in curves])
    assert np.array_equal(launch, -np.einsum("cabn,na,nb->nc", gamma, mu0, mu0))
    rho0 = np.array([curve.rhos[0] for curve in curves])
    assert np.array_equal(rho0, geom.rho_dense(ys, 1)[:, 0])


def test_a_raising_step_end_run_names_the_curve_that_left(klein3, monkeypatch):
    # a step's end run that raises once a curve is past the boundary: rho
    # alone gives the exit test, which names the curve as the run without
    # the error does (the chord from (1, 0, 0) leaves at t = 2.95)
    radial = ladder(klein3, (0.0, 1.0, 0.0))
    oblique = ladder(klein3, (1.0, 0.0, 0.0), direction=(-0.5, 0.3, 0.0))
    calc = TractorCalculus(klein3)
    opts = dict(step=0.01, horizon=5.0)
    with pytest.raises(GeometryError) as want:
        bd.geodetic_transversals(calc, [radial, oblique], **opts)
    raised, _ = _counted_stage_runs(
        monkeypatch, lambda call, rho: call % 4 == 0 and (rho[:, 0] < -1e-8).any()
    )
    with pytest.raises(GeometryError) as got:
        bd.geodetic_transversals(calc, [radial, oblique], **opts)
    assert len(raised) == 1
    assert str(got.value) == str(want.value)
    assert got.value.__context__ is None


@pytest.mark.parametrize("run", [6, 8], ids=["mid-step", "step-end"])
def test_any_other_raising_run_propagates_its_own_error(klein3, monkeypatch, run):
    # run 6 is a stage inside step 1, run 8 its end, where no curve has left
    ys = klein3.boundary_points(3, np.random.default_rng(4))
    calc = TractorCalculus(klein3)
    raised, calls = _counted_stage_runs(monkeypatch, lambda call, rho: call == run)
    with pytest.raises(PoleError) as got:
        bd.geodetic_transversals(calc, ladders(klein3, ys), step=1e-3, horizon=0.01)
    assert raised == [got.value] and len(calls) == run
    assert got.value.__context__ is None


def test_a_metric_that_raises_outside_the_domain_raises_its_own_error():
    # Klein's metric plus 0*sqrt(rho): the same values inside, a DomainError
    # past the boundary, which the first stage run there raises
    rho = "(1 - (x0^2 + x1^2 + x2^2))"
    metric = [[(f"1/{rho} + 0*sqrt({rho}) + " if i == j else "") + f"x{i}*x{j}/{rho}^2"
               for j in range(3)] for i in range(3)]
    geom = load_geometry({"name": "klein-sqrt", "dim": 3, "coords": ["x0", "x1", "x2"],
                          "rho": rho, "alpha": 2.0, "metric": metric})
    calc = TractorCalculus(geom)
    lads = ladders(geom, [(0.0, 1.0, 0.0), (0.6, 0.0, 0.8)])
    with pytest.raises(DomainError, match="sqrt of non-positive value") as got:
        bd.geodetic_transversals(calc, lads, step=0.01, horizon=5.0)
    assert got.value.__context__ is None


# -- the curvature and tractor layers and the point functions -----------------

BUILTINS = ["klein3", "af2", "af1", "flat3", "poincare3"]

PACK_NAMES = ["riemann", "ricci", "scalar", "schouten", "beta", "weyl",
              "schouten_derivative", "cotton"]


@pytest.fixture(params=BUILTINS)
def any_geom(request):
    return request.getfixturevalue(request.param)


def _ladder_batch(geom):
    """The levels of one default ladder: the batch every boundary limit
    evaluates."""
    y = geom.boundary_points(1, np.random.default_rng(7))[0]
    return ladder(geom, y).points


def _assert_rows_match(name, fn, pts, axis=-2):
    """``fn(pts)`` against ``fn`` at each row as a batch of one, joined on
    the batch axis (``axis``: -2 for dense jets, -1 for values): the same
    error, or the same values bit for bit."""
    try:
        ref = _per_point(lambda p: np.asarray(fn(p)), pts, axis)
    except (np.linalg.LinAlgError, PoleError) as err:
        with pytest.raises(type(err)):
            fn(pts)
        return
    got = np.asarray(fn(pts))
    assert got.shape == ref.shape, name
    assert np.array_equal(got, ref), name


@pytest.mark.parametrize("order", [0, 1])
def test_curvature_pack_batch_matches_points(any_geom, order):
    calc = TractorCalculus(any_geom)
    pack = calc.levi_civita_splitting.pack
    pts = _ladder_batch(any_geom)
    for name in PACK_NAMES:
        _assert_rows_match(name, lambda b: pack.dense(name, b, order), pts)


def test_point_functions_batch_match_points(any_geom):
    calc = TractorCalculus(any_geom)
    pts = _ladder_batch(any_geom)
    quantities = dict(bd.POINT_QUANTITIES)
    quantities["h_form"] = lambda c, p: bd.h_form(c, 0.25, p)
    quantities["schouten_trace"] = bd.schouten_trace
    quantities["tracefree_ricci"] = bd.tracefree_ricci
    for name, f in quantities.items():
        _assert_rows_match(name, lambda b: f(calc, b), pts, axis=-1)


@pytest.mark.parametrize("name", sorted(bd.POINT_QUANTITIES))
def test_point_functions_run_on_an_empty_batch(geom, name):
    # the values at no points are those of a batch of one with no rows; a
    # full contraction's row loop stacked no rows and raised before
    calc = TractorCalculus(geom)
    f = bd.POINT_QUANTITIES[name]
    one_row = np.asarray(f(calc, _points(geom, 1)))
    got = np.asarray(f(calc, np.zeros((0, geom.dim))))
    assert got.shape == one_row.shape[:-1] + (0,)


@pytest.mark.parametrize("order", [0, 1])
def test_curvature_pack_runs_on_an_empty_batch(geom, order):
    calc = TractorCalculus(geom)
    pack = calc.levi_civita_splitting.pack
    for name in PACK_NAMES:
        one_row = pack.dense(name, _points(geom, 1), order)
        got = pack.dense(name, np.zeros((0, geom.dim)), order)
        assert got.shape == one_row.shape[:-2] + (0, one_row.shape[-1]), name


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
        _assert_rows_match(name, f, pts)


#: Contractions over the last axis of both operands (the first five, which
#: ``jet_einsum`` runs row by row) and over other axes.
EINSUM_SPECS = ["axy,y->ax", "xy,by->bx", "aj,j->a", "j,aj->a", "ab,ab->",
                "ayx,y->ax", "ij,ai->aj", "ce,eab->cab", "caf,fbe->abce"]


@pytest.mark.parametrize("order", [0, 2])
@pytest.mark.parametrize("spec", EINSUM_SPECS)
def test_every_contraction_batch_matches_points(spec, order):
    space = jet_space(3, order)
    rng = np.random.default_rng(4)
    sa, sb = spec.split("->")[0].split(",")
    a, b = (rng.standard_normal((3,) * len(s) + (6, space.ncoeff)) for s in (sa, sb))
    # the rows picked by the batch's row indices, each as a batch of one
    _assert_rows_match(
        spec,
        lambda k: jet_einsum(spec, a[..., k, :].copy(), b[..., k, :].copy(), space),
        np.arange(6),
    )


# -- the tractor layer on the interior points of a check ----------------------


def _interior_batch(geom):
    return geom.interior_points(3, np.random.default_rng(9))


@pytest.mark.parametrize("order", [0, 1])
def test_curvature_blocks_batch_match_points(any_geom, order):
    calc = TractorCalculus(any_geom)
    blocks = {
        "standard_curvature_blocks": lambda p: standard_curvature_blocks(
            calc, calc.levi_civita_splitting, p, order
        ),
        "metric_tractor_curvature_blocks": lambda p: metric_tractor_curvature_blocks(
            calc, p, order
        ),
        "metric tractor curvature": lambda p: curvature_of(
            metric_tractor_omega(calc, p, order + 1), order
        ),
    }
    for name, f in blocks.items():
        _assert_rows_match(name, f, _interior_batch(any_geom))


def test_sections_and_their_derivatives_batch_match_points(any_geom):
    calc = TractorCalculus(any_geom)
    pts = _interior_batch(any_geom)
    sections = polynomial_tractor_section(calc, pts, 3, np.random.default_rng(2))
    rng = np.random.default_rng(2)
    each = [polynomial_tractor_section(calc, pts[k : k + 1], 3, rng) for k in range(len(pts))]
    assert np.array_equal(sections.data, np.concatenate([s.data for s in each], axis=-2))
    derivatives = {
        "std_tractor_derivative": lambda tv, p: std_tractor_derivative(calc, tv, p),
        "metric tractor derivative": lambda tv, p: std_tractor_derivative(
            calc, tv, p, metric_tractor_omega(calc, p, tv.order - 1)
        ),
    }
    # the section of each batch, looked up by its rows
    of = {pts[k : k + 1].tobytes(): tv for k, tv in enumerate(each)}
    of[pts.tobytes()] = sections
    for name, f in derivatives.items():
        _assert_rows_match(name, lambda p: f(of[p.tobytes()], p).data, pts)


def test_a_singular_level_names_its_point(klein3, monkeypatch, capsys):
    # one level of the ladder gets a singular Schouten tensor: the eval's
    # error names that level's point, as when each level ran on its own
    y = (0.0, 0.6, 0.8)
    bad = ladder(klein3, y).points[3]
    real = CurvaturePack.dense

    def dense(self, name, points, order):
        out = real(self, name, points, order)
        hit = np.all(points == bad, axis=1)
        if name != "schouten" or not hit.any():
            return out
        out = np.array(out)
        out[..., hit, :] = 0.0
        return out

    monkeypatch.setattr(CurvaturePack, "dense", dense)
    code = cli.main([
        "eval", "--geometry", "klein", "--dim", "3", "--quantity", "t_vector",
        "--boundary-point=" + ",".join(map(str, y)), "--extrapolate",
    ])
    assert code == 2
    assert f"the Schouten tensor is singular at {tuple(bad.tolist())}" in (
        capsys.readouterr().err
    )


def test_a_pole_level_raises_its_own_error(klein3):
    # the batch raises; the error that leaves is the first failing level's
    lad = ladder(klein3, (1.0, 0.0, 0.0))
    bad = [tuple(row) for row in lad.points[2:4].tolist()]

    def f(p):
        for row in p.tolist():
            if tuple(row) in bad:
                raise PoleError(f"pole at {tuple(row)}" if len(p) == 1 else "pole")
        return klein3.rho_value(p)

    with pytest.raises(PoleError) as err:
        boundary_limit(f, [lad])
    assert str(err.value) == f"pole at {bad[0]}"


# -- a check's ladders, stacked -----------------------------------------------

#: Point functions ``f(calc, rows, eps)`` that checks extrapolate along their
#: ladders; ``eps`` holds the rho level of each row.
LADDER_QUANTITIES = {
    **{
        name: lambda calc, p, eps, f=f: f(calc, p)
        for name, f in bd.POINT_QUANTITIES.items()
    },
    "h_form": lambda calc, p, eps: bd.h_form(calc, 0.25, p),
    "schouten_trace": lambda calc, p, eps: bd.schouten_trace(calc, p),
    "tracefree_ricci": lambda calc, p, eps: bd.tracefree_ricci(calc, p),
    "bgg_split_metricity": lambda calc, p, eps: bgg_split_metricity(
        calc, calc.metricity_field(), calc.reference, p, 0
    ).values(),
    "rho-connection Christoffels": lambda calc, p, eps: bd.hat_christoffels(calc, p),
    "tau/eps": lambda calc, p, eps: calc.tau.dense(p, 0)[..., 0] / eps,
    "standard tractor curvature": lambda calc, p, eps: tractor_curvature(
        calc, calc.reference, p, 0
    ).values(),
    "metric tractor curvature": lambda calc, p, eps: curvature_of(
        metric_tractor_omega(calc, p, 1), 0
    )[..., 0],
}


@pytest.mark.parametrize("name", sorted(LADDER_QUANTITIES))
def test_stacked_ladders_match_per_ladder_evaluation(any_geom, name):
    # each ladder's samples from one stacked call equal, bit for bit, those
    # of its own call (each side with a fresh calculus, so no memo is shared)
    f = LADDER_QUANTITIES[name]
    lads = ladders(any_geom, any_geom.boundary_points(3, np.random.default_rng(13)))
    each_calc = TractorCalculus(any_geom)
    try:
        ref = [
            ladder_samples(lambda p, lad=lad: f(each_calc, p, np.array(lad.eps)), [lad])[0]
            for lad in lads
        ]
    except (np.linalg.LinAlgError, PoleError) as err:
        # the stacked call raises the first failing ladder's error
        calc, eps = TractorCalculus(any_geom), np.concatenate([lad.eps for lad in lads])
        with pytest.raises(type(err)) as got:
            ladder_samples(lambda p: f(calc, p, eps), lads)
        assert str(got.value) == str(err)
        return
    calc, eps = TractorCalculus(any_geom), np.concatenate([lad.eps for lad in lads])
    got = ladder_samples(lambda p: f(calc, p, eps), lads)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert np.array_equal(g, r)


def test_a_raise_on_one_ladder_names_that_ladders_first_failing_level(klein3):
    # ladder 2 of 3 has two pole levels: the stacked evaluation raises, and
    # the error that leaves is the one of ladder 2's first failing level
    lads = ladders(klein3, [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    bad = [tuple(row) for row in lads[1].points[2:4].tolist()]
    calls = []

    def f(p):
        calls.append(len(p))
        for row in p.tolist():
            if tuple(row) in bad:
                raise PoleError(f"pole at {tuple(row)}" if len(p) == 1 else "pole")
        return klein3.rho_value(p)

    with pytest.raises(PoleError) as err:
        boundary_limit(f, lads)
    assert str(err.value) == f"pole at {bad[0]}"
    # one stacked call, then ladder 1's levels and ladder 2's up to the pole,
    # each level as a batch of one
    assert calls == [3 * PLAN.levels] + [1] * (len(lads[0].points) + 3)


def test_a_ladder_list_gives_one_estimate_per_ladder(klein3):
    lads = ladders(klein3, [(1.0, 0.0, 0.0), (0.0, 0.6, 0.8)])
    ests = boundary_limit(lambda p: 3.0 + klein3.rho_value(p), lads)
    assert len(ests) == 2
    assert all(est.value == pytest.approx(3.0, abs=1e-10) for est in ests)
    assert boundary_limit(lambda p: klein3.rho_value(p), []) == []


# -- ladder placement ---------------------------------------------------------


@pytest.mark.parametrize("eps0, levels", [(PLAN.eps0, PLAN.levels), (0.3, 9)])
def test_batched_newton_places_the_per_level_points(any_geom, eps0, levels):
    for y in any_geom.boundary_points(8, np.random.default_rng(11)):
        lad = boundary_ladder(any_geom, y, eps0=eps0, levels=levels)
        (direction,) = any_geom.inward_direction(np.array([y]))
        assert np.array_equal(lad.points, place_levels(any_geom, y, direction, eps0, levels))
        assert lad.points.shape == (levels, any_geom.dim)
        assert not lad.points.flags.writeable


def test_batched_at_rho_locates_the_per_level_points(geom):
    y = geom.boundary_points(1, np.random.default_rng(6))[0]
    lad = ladder(geom, y)
    curve = bd.geodetic_transversals(TractorCalculus(geom), [lad])[0]
    x, v = curve.at_rho(np.array(lad.eps))
    ref = [locate_on_curve(curve, eps) for eps in lad.eps]
    assert np.array_equal(x, np.array([r[0] for r in ref]))
    assert np.array_equal(v, np.array([r[1] for r in ref]))
    xs, vs = curve.at_rho(lad.eps[2:3])  # one level
    assert xs.shape == (1, geom.dim)
    assert np.array_equal(xs[0], ref[2][0]) and np.array_equal(vs[0], ref[2][1])


def test_batched_at_rho_raises_the_lowest_failing_levels_error(flat3):
    # the stored rhos claim rho in [0, 0.1] while the positions have rho in
    # [0.5, 0.6]: no level below 0.1 is reachable
    curve = bd.TransversalCurve(
        flat3, (1.0, 0.2, 0.1), np.array([-1.0, 0.0, 0.0]),
        ts=np.array([0.0, 0.1]),
        points=np.array([[0.5, 0.2, 0.1], [0.4, 0.2, 0.1]]),
        mus=np.array([[-1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
        accs=np.zeros((2, 3)),
        rhos=np.array([0.0, 0.1]),
    )
    with pytest.raises(GeometryError) as ref:
        locate_on_curve(curve, 0.04)
    with pytest.raises(GeometryError) as got:
        curve.at_rho(np.array([0.08, 0.04, 0.02]))
    assert "rho=0.08" in str(got.value)
    with pytest.raises(GeometryError) as got:
        curve.at_rho(np.array([0.04, 0.02]))
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("rho, direction", [
    ("x0 - 10*x0^2", (1.0, 0.0)),  # rho peaks at 0.025: the top level fails
    ("x0", (0.0, 1.0)),  # the ray runs along a rho level
])
def test_a_failing_ladder_raises_the_first_failing_levels_error(rho, direction):
    coords = ("x0", "x1")
    # rho is a row of the metric tape, so the stub needs a metric
    geom = Geometry("stub", Chart(coords), ex.parse_expr(rho, coords), 2.0,
                    np.array([["1", "0"], ["0", "1"]], dtype=object))
    y = (0.0, 0.0)
    with pytest.raises(GeometryError) as ref:
        place_levels(geom, y, direction, PLAN.eps0, PLAN.levels)
    with pytest.raises(GeometryError) as got:
        boundary_ladder(geom, y, direction, eps0=PLAN.eps0, levels=PLAN.levels)
    # both rays turn tangent; the point prints as plain floats, not np.float64(...)
    assert str(got.value) == str(ref.value) == "ray from (0.0, 0.0) became tangent to the rho levels"


def test_an_unreachable_ladder_level_names_the_level_and_the_point(klein3):
    # rho <= 1 on the Klein ball, so no point has rho = 5
    with pytest.raises(GeometryError) as got:
        boundary_ladder(klein3, np.array([1.0, 0.0, 0.0]), eps0=5.0, levels=3)
    assert str(got.value) == "could not place a ladder point at rho=5 from (1.0, 0.0, 0.0)"
