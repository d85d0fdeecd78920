import numpy as np
import pytest

from conftest import PLAN, at_boundary_points, ladder, ladders, lc_pack, one
from tractorlab import boundary as bd
from tractorlab import verify
from tractorlab.expr import ExprError, Tape
from tractorlab.extrapolate import boundary_limit, ladder_samples, richardson_limit
from tractorlab.fields import GeometryError, builtin_geometry
from tractorlab.jets import Jet, jet_space
from tractorlab.tractor import TractorCalculus, l_tau, metricity_contorsion
from tractorlab.verify import SamplingPlan, registry, run_suite


@pytest.fixture(scope="module")
def calc3(klein3):
    return TractorCalculus(klein3)


@pytest.fixture(scope="module")
def calc4(klein4):
    return TractorCalculus(klein4)


@pytest.fixture(scope="module")
def calc_af2(af2):
    return TractorCalculus(af2)


@pytest.fixture(scope="module")
def af2_frame(calc_af2):
    (frame,) = bd.boundary_frame(calc_af2, [ladder(calc_af2.geom, (0.0, 0.3, -0.2, 0.4))])
    return frame


@pytest.fixture(scope="module")
def af2_blocks(calc_af2, af2_frame):
    (blocks,) = bd.curvature_blocks(calc_af2, [af2_frame])
    return blocks


# -- extrapolation primitives ---------------------------------------------------


def test_richardson_simple(klein3):
    (est,) = boundary_limit(
        lambda p: 3.0 + klein3.rho_value(p) ** 2, [ladder(klein3, (1.0, 0.0, 0.0))]
    )
    assert est.value == pytest.approx(3.0, abs=1e-10)
    assert not est.diverged


def test_richardson_scalar_curvature(klein3):
    pack = lc_pack(klein3)
    (est,) = boundary_limit(
        lambda p: pack.dense("scalar", p, 0)[..., 0], [ladder(klein3, (0.0, 0.0, 1.0))]
    )
    assert est.value == pytest.approx(-6.0, abs=1e-6)


def test_poincare_rho_s_anomaly(poincare3):
    # rho * S tends to zero, not to the nonzero constant an order-2
    # compactification would give
    pack = lc_pack(poincare3)
    (est,) = boundary_limit(
        lambda p: poincare3.rho_value(p) * pack.dense("scalar", p, 0)[..., 0],
        [ladder(poincare3, (1.0, 0.0, 0.0))],
    )
    assert abs(float(est.value)) < 1e-6


def test_ladder_hits_exact_rho_levels(af2):
    lad = ladder(af2, (0.0, 0.1, 0.2, -0.1))
    assert len(lad.points) == len(lad.eps) == 6
    for eps, rho in zip(lad.eps, af2.rho_value(lad.points)):
        assert rho == pytest.approx(eps, rel=1e-12)
    # the levels are eps0 scaled by exact powers of two
    assert lad.eps == tuple(0.05 * 0.5**k for k in range(6))


def test_divergence_flag():
    vals = [2.0**k for k in range(6)]
    assert richardson_limit(vals).diverged
    assert not richardson_limit([1.0 + 2.0**-k for k in range(6)]).diverged


# -- transversals and collars -----------------------------------------------------


def _transversal(geom, y, direction=None, step=1e-3, horizon=0.2):
    lad = ladder(geom, y, direction)
    return bd.geodetic_transversals(TractorCalculus(geom), [lad], step, horizon)[0]


def test_klein_transversal_is_radial(klein3):
    curve = _transversal(klein3, (1.0, 0.0, 0.0))
    assert np.allclose(curve.mu0, [-0.5, 0.0, 0.0])
    # straight radius: x1 = x2 = 0 along the whole curve
    assert np.max(np.abs(curve.points[:, 1:])) < 1e-12
    assert curve.integration_error < 1e-8


#: Dormand and Prince's tableau below its first row (Hairer, Norsett and
#: Wanner, *Solving ODEs I*, Table II.5.2): the last row is the 5th-order
#: weights, so the last evaluation of a step is at its end.
DP5 = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)


def _plain_rk4(calc, lads, step, horizon):
    """The samples ``(points, mus, accs, rhos)``, curve first, of a plain
    Dormand-Prince 5 loop over the curves of ``geodetic_transversals``,
    without the run at twice the step or the moved launches: one run of the
    metric tape per evaluation, at the curves' rows only."""
    geom = calc.geom
    ys = np.array([lad.y for lad in lads])
    v = np.array([lad.direction for lad in lads])
    rho0 = geom.rho_and_drho(ys)[0]
    gamma = np.stack(bd.extended_christoffels(calc, lads)[0], axis=-1)

    def acc(x, v):
        rho, g = geom.rho_and_metric(x, 1)
        return -np.einsum("cabn,na,nb->nc", calc.hat_christoffel_values(rho, g), v, v), rho

    n_steps = int(round(horizon / step))
    x, a = ys.copy(), -np.einsum("cabn,na,nb->nc", gamma, v, v)
    rows = [(x, v, a, rho0)]
    for _ in range(n_steps):
        # stage i at x + h sum_j a_ij V_j, v + h sum_j a_ij F_j, whose
        # velocity is V_i and acceleration F_i; the first stage is the start
        velocities, accelerations = [v], [a]
        for coefficients in DP5:
            xi, vi = x, v
            for c, vj, fj in zip(coefficients, velocities, accelerations):
                if c:
                    xi, vi = xi + step * c * vj, vi + step * c * fj
            fi, rho = acc(xi, vi)
            velocities.append(vi)
            accelerations.append(fi)
        x, v, a = xi, vi, fi
        rows.append((x, v, a, rho[:, 0]))
    return [np.stack(column, axis=1) for column in zip(*rows)]


def _recorded_dp5(monkeypatch):
    """Record the rows each Dormand-Prince run of ``geodetic_transversals``
    yields: a list of ``(step, rows)``, one per run, in the order they
    start."""
    real, runs = bd._dp5, []

    def recording(x, v, a, step):
        rows = []
        runs.append((step, rows))
        run, f = real(x, v, a, step), None
        while True:
            rows.append(run.send(f))
            f = yield rows[-1]

    monkeypatch.setattr(bd, "_dp5", recording)
    return runs


@pytest.mark.parametrize("name", ["klein3", "af2", "af1"])
@pytest.mark.parametrize("horizon", [PLAN.ode_horizon, 7 * PLAN.ode_step])
def test_the_samples_keep_the_bits_of_the_plain_rk4_loop(request, name, horizon):
    # the doubled run's rows and the moved launches ride in the same tape
    # runs, which work row by row
    geom = request.getfixturevalue(name)
    calc = TractorCalculus(geom)
    lads = ladders(geom, geom.boundary_points(4, np.random.default_rng(2)))
    curves = bd.geodetic_transversals(calc, lads, step=PLAN.ode_step, horizon=horizon)
    want = _plain_rk4(calc, lads, PLAN.ode_step, horizon)
    for field, column in zip(("points", "mus", "accs", "rhos"), want):
        assert np.array_equal(np.stack([getattr(c, field) for c in curves]), column), field


@pytest.mark.parametrize("name", ["klein3", "af2"])
def test_the_doubled_rows_are_a_run_at_twice_the_step(request, monkeypatch, name):
    geom = request.getfixturevalue(name)
    calc = TractorCalculus(geom)
    lads = ladders(geom, geom.boundary_points(3, np.random.default_rng(7)))
    h, horizon = PLAN.ode_step, PLAN.ode_horizon
    runs = _recorded_dp5(monkeypatch)
    curves = bd.geodetic_transversals(calc, lads, step=h, horizon=horizon)
    doubled = bd.geodetic_transversals(calc, lads, step=2 * h, horizon=horizon)
    # the run at h, its doubled run, then those of the run at 2h
    assert [step for step, _ in runs] == [h, 2 * h, 2 * h, 4 * h]
    riding, alone = runs[1][1], runs[2][1]
    assert len(riding) == len(alone) == 6 * round(horizon / (2 * h)) + 1
    for (x, v), (x2, v2) in zip(riding, alone):
        # the run at 2h carries the moved launches after the curves
        assert np.array_equal(x, x2[: len(lads)]) and np.array_equal(v, v2[: len(lads)])
    for curve, coarse in zip(curves, doubled):
        gap = max(np.max(np.abs(curve.points[::2] - coarse.points)),
                  np.max(np.abs(curve.mus[::2] - coarse.mus)))
        assert curve.integration_error == gap / 31


def test_an_odd_step_count_compares_only_the_shared_nodes(klein3, monkeypatch):
    # 7 steps at h: the doubled run takes 3 steps, to t = 6h, and the last
    # sample at t = 7h has no partner
    calc = TractorCalculus(klein3)
    lads = ladders(klein3, klein3.boundary_points(2, np.random.default_rng(1)))
    h = 0.01
    runs = _recorded_dp5(monkeypatch)
    (curve, _) = bd.geodetic_transversals(calc, lads, step=h, horizon=7 * h)
    (coarse, _) = bd.geodetic_transversals(calc, lads, step=2 * h, horizon=6 * h)
    assert len(curve.ts) == 8 and len(coarse.ts) == 4
    assert len(runs[1][1]) == 6 * 3 + 1  # no evaluation of a fourth doubled step
    gap = max(np.max(np.abs(curve.points[:7:2] - coarse.points)),
              np.max(np.abs(curve.mus[:7:2] - coarse.mus)))
    assert curve.integration_error == gap / 31


#: Wrong last rows of :data:`DP5`: the weights of its third and fourth
#: stages swapped, which still sum to one but break the second-order
#: condition ``sum b_i c_i = 1/2``; and the embedded 4th-order weights
#: without their seventh, on the evaluation at the 5th-order end that the
#: step does not make, which sum to 39/40.
WRONG_WEIGHTS = (
    (35 / 384, 0, 125 / 192, 500 / 1113, -2187 / 6784, 11 / 84),
    (5179 / 57600, 0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100),
)


def test_a_wrong_rk4_weight_fails_the_integration_error(af2, monkeypatch):
    # at the default step the mutants read about 1.5e-5 and 4.5e-8, the
    # method 1.6e-13
    calc = TractorCalculus(af2)
    lads = ladders(af2, af2.boundary_points(4, np.random.default_rng(0)))
    opts = dict(step=PLAN.ode_step, horizon=PLAN.ode_horizon)
    good = bd.geodetic_transversals(calc, lads, **opts)
    assert max(curve.integration_error for curve in good) < 1e-8
    for weights in WRONG_WEIGHTS:
        monkeypatch.setattr(bd, "DP5_TABLEAU", DP5[:-1] + (weights,))
        bad = bd.geodetic_transversals(calc, lads, **opts)
        assert min(curve.integration_error for curve in bad) > 1e-8


@pytest.mark.parametrize("name", ["klein3", "af2", "af1"])
def test_the_launch_error_is_the_gap_to_the_curves_from_the_moved_launch(
    request, monkeypatch, name
):
    geom = request.getfixturevalue(name)
    calc = TractorCalculus(geom)
    lads = ladders(geom, geom.boundary_points(3, np.random.default_rng(9)))
    opts = dict(step=PLAN.ode_step, horizon=PLAN.ode_horizon)
    curves = bd.geodetic_transversals(calc, lads, **opts)
    gammas, errors = bd.extended_christoffels(calc, lads)
    if geom.exact_hat_christoffels is not None:
        # an exact launch: no moved curves, and no launch error
        assert errors == [0.0] * len(lads)
        assert [curve.launch_error for curve in curves] == [0.0] * len(lads)
        return
    assert min(errors) > 0
    moved = [gamma + error for gamma, error in zip(gammas, errors)]
    monkeypatch.setattr(bd, "extended_christoffels", lambda calc, lads: (moved, [0.0] * 3))
    launched = bd.geodetic_transversals(calc, lads, **opts)
    for curve, other in zip(curves, launched):
        gap = max(np.max(np.abs(curve.points - other.points)),
                  np.max(np.abs(curve.mus - other.mus)))
        assert curve.launch_error == gap > 0


def test_located_points_lie_within_1e_10_of_a_run_at_an_eighth_of_the_step(af2):
    # measured on these ladders: 7.9e-15 for the points (and 2.9e-11 for
    # their velocities)
    calc = TractorCalculus(af2)
    lads = ladders(af2, af2.boundary_points(4, np.random.default_rng(0)))
    h, horizon = PLAN.ode_step, PLAN.ode_horizon
    curves = bd.geodetic_transversals(calc, lads, step=h, horizon=horizon)
    fine = bd.geodetic_transversals(calc, lads, step=h / 8, horizon=horizon)
    for curve, reference, lad in zip(curves, fine, lads):
        gap = np.max(np.abs(curve.at_rho(lad.eps)[0] - reference.at_rho(lad.eps)[0]))
        assert gap < 1e-10


def test_transversal_requires_normalized_mu(klein3):
    # a ladder placed along an inward direction with d(rho)(mu0) = 2
    with pytest.raises(ValueError):
        _transversal(klein3, (1.0, 0.0, 0.0), direction=(-1.0, 0.0, 0.0))


def test_each_transversal_stage_runs_rho_and_the_metric_once(klein3, monkeypatch):
    ys = klein3.boundary_points(3, np.random.default_rng(5))
    calc = TractorCalculus(klein3)
    lads = ladders(klein3, ys)
    # rho_dense runs the rho row's view of the metric tape
    rho_view, metric_tape = klein3._rho_row, klein3.metric_field().tape
    runs = {"rho": 0, "metric": 0}
    real = Tape.run

    def counted(self, points, space):
        # the integrator's state has one row per curve, and one more in the
        # runs the doubled run rides; ladder evaluations have a row per level
        if len(points) <= 2 * len(ys):
            if self is rho_view:
                runs["rho"] += 1
            elif self is metric_tape:
                runs["metric"] += 1
        return real(self, points, space)

    monkeypatch.setattr(Tape, "run", counted)
    step, horizon = 1e-3, 0.01
    bd.geodetic_transversals(calc, lads, step=step, horizon=horizon)
    n_steps = round(horizon / step)
    # six evaluations per step, each one run of the metric tape, whose last
    # row is rho; the launch, where every row is on the boundary and takes
    # its extended value, runs the rho view once at all the boundary points,
    # for the pairing test of the launch directions and the launch's rho
    assert runs == {"rho": 1, "metric": 6 * n_steps}


@pytest.mark.parametrize("name, dim", [
    ("klein", 3), ("klein", 4), ("klein", 5), ("af2_generic", 4), ("af2_generic", 5),
    ("af1_generic", 4), ("flat", 3), ("poincare_control", 3),
])
def test_order_one_rho_values_equal_the_order_zero_run(name, dim):
    # the integrator reads rho's values from its order-1 run
    geom = builtin_geometry(name, dim)
    pts = geom.interior_points(50, np.random.default_rng(dim))
    assert np.array_equal(geom.rho_dense(pts, 1)[..., 0], geom.rho_dense(pts, 0)[..., 0])


def test_rho2_g_mu_mu_constant_and_quarter(klein3):
    curve = _transversal(klein3, (0.0, 1.0, 0.0))
    gfield = klein3.metric_field()
    vals = []
    for k in range(5, len(curve.ts), 20):
        p, v = curve.points[k : k + 1], curve.mus[k]
        g = gfield.dense(p, 0)[..., 0, 0]
        vals.append(klein3.rho_value(p)[0] ** 2 * float(v @ g @ v))
    vals = np.array(vals)
    assert vals.max() - vals.min() < 1e-6
    assert vals.mean() == pytest.approx(0.25, abs=1e-5)


def test_at_rho_raises_when_newton_cannot_reach_the_level(flat3):
    # rho = 1 - x0 on flat3; the stored rhos claim the step spans rho in
    # [0, 0.1], but the positions run along x0 from 0.5 to 0.4, where rho is
    # 0.5..0.6, and the clamped Hermite parameter keeps Newton above 0.45
    curve = bd.TransversalCurve(
        flat3, (1.0, 0.2, 0.1), np.array([-1.0, 0.0, 0.0]),
        ts=np.array([0.0, 0.1]),
        points=np.array([[0.5, 0.2, 0.1], [0.4, 0.2, 0.1]]),
        mus=np.array([[-1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
        accs=np.zeros((2, 3)),
        rhos=np.array([0.0, 0.1]),
    )
    with pytest.raises(GeometryError, match="rho=0.05"):
        curve.at_rho([0.05])
    # the same step with consistent rhos locates the level
    curve.rhos = np.array([0.5, 0.6])
    x, _ = curve.at_rho([0.55])
    assert flat3.rho_value(x)[0] == pytest.approx(0.55, abs=1e-14)


def test_poincare_transversal_fails(poincare3):
    with pytest.raises(bd.BoundaryExtensionError):
        _transversal(poincare3, (1.0, 0.0, 0.0))


def test_collar_rows_and_injectivity(calc3, rng):
    grid = calc3.geom.boundary_points(3, rng)
    # reference: the collar rows at five parameters across each curve, each
    # its nearest sample, and their smallest separation pair by pair
    rows = []
    curves = bd.geodetic_transversals(
        calc3, ladders(calc3.geom, grid), step=PLAN.ode_step, horizon=PLAN.ode_horizon
    )
    for curve in curves:
        assert np.allclose(curve.points[0], curve.y)  # the t = 0 row
        step = curve.ts[1] - curve.ts[0]
        for t in np.array([0.0, 0.25, 0.5, 0.75, 1.0]) * curve.ts[-1]:
            rows.append(curve.points[min(int(round(t / step)), len(curve.ts) - 1)])
    separation = min(
        float(np.max(np.abs(rows[i] - rows[j])))
        for i in range(len(rows)) for j in range(i + 1, len(rows))
    )
    (report,) = run_suite(
        at_boundary_points(calc3.geom, *grid), ["lem-2.4-transversal"],
        SamplingPlan(boundary_points=3),
    )
    assert sorted(d["point"] for d in report.details[:-1]) == sorted(map(list, grid))
    assert report.details[-1]["collar_min_separation"] > 0
    assert report.details[-1]["collar_min_separation"] == separation


def test_collar_duplicate_grid_collides(klein3):
    (report,) = run_suite(
        at_boundary_points(klein3, (1.0, 0.0, 0.0)), ["lem-2.4-transversal"],
        SamplingPlan(boundary_points=2),
    )
    assert report.status == "error"
    assert report.reason.startswith("GeometryError: ")
    assert "injective" in report.reason


# -- second fundamental form --------------------------------------------------------


def test_klein_sff(calc3):
    (sff,) = bd.second_fundamental_form(calc3, [ladder(calc3.geom, (1.0, 0.0, 0.0))])
    assert np.allclose(sff.tangential, -2 * np.eye(2), atol=1e-9)
    assert np.allclose(sff.full, bd._covariant_hessian(sff.rho2, sff.gamma))
    defects = verify._sff_defects(calc3.geom, sff, np.random.default_rng(11))
    assert defects["conformal_factor_defect"] < 1e-6
    assert defects["projective_change_defect"] < 1e-6
    assert np.min(np.abs(np.linalg.eigvalsh(sff.tangential))) > 0.1


def test_klein_sff_vs_schouten_asymptotics(klein3):
    # boundary limit of rho P + d(rho)d(rho)/(4 rho), tangentially, equals
    # half the Hessian representative
    lad = ladder(klein3, (0.0, 0.0, 1.0))
    pack = lc_pack(klein3)
    (sff,) = bd.second_fundamental_form(TractorCalculus(klein3), [lad])

    def gamma_full(p):
        P = pack.dense("schouten", p, 0)[..., 0]
        rho, grad = klein3.rho_and_drho(p)
        return rho * P + grad[:, None] * grad[None, :] / (4 * rho)

    (est,) = boundary_limit(gamma_full, [lad])
    E = sff.basis
    got = E.T @ np.asarray(est.value) @ E
    assert np.max(np.abs(got - 0.5 * sff.tangential)) < 1e-5


def test_af1_totally_geodesic(af1):
    lad = ladder(af1, (0.0, 0.3, -0.2, 0.4))
    (sff,) = bd.second_fundamental_form(TractorCalculus(af1), [lad])
    assert np.max(np.abs(sff.tangential)) < 1e-5


def test_af2_h_equals_minus_2C_hessian(af2):
    lad = ladder(af2, (0.0, 0.3, -0.2, 0.4))
    calc = TractorCalculus(af2)
    rep = bd.asymptotic_h(calc, [lad])
    (sff,) = bd.second_fundamental_form(calc, [lad])
    assert np.max(np.abs(rep.h_estimates[0].value - (-2 * rep.C) * sff.full)) < 1e-5


# -- asymptotic form and Einstein property ---------------------------------------


def test_asymptotic_h_klein(klein3):
    ys = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0)]
    rep = bd.asymptotic_h(TractorCalculus(klein3), ladders(klein3, ys))
    assert rep.status == "ok"
    assert rep.C == pytest.approx(0.25, abs=1e-6)
    assert rep.scalar_spread < 1e-5
    # h restricted to ker d(rho) is nondegenerate
    for est, E in zip(rep.h_estimates, bd.tangential_basis(klein3, np.array(ys)), strict=True):
        assert not est.diverged
        assert np.min(np.abs(np.linalg.eigvalsh(E.T @ est.value @ E))) > 0.5


def test_asymptotic_h_af2_recovers_constructor(af2):
    ys = [(0.0, 0.3, -0.2, 0.4), (0.0, -0.1, 0.2, 0.3)]
    rep = bd.asymptotic_h(TractorCalculus(af2), ladders(af2, ys))
    assert rep.status == "ok"
    assert rep.C == pytest.approx(af2.constructor_C, abs=1e-6)


@pytest.mark.parametrize("src", ["0.25 +", "log(0 - 1)", "1/0", "1/z", "sqrt(rho - 1)"])
def test_malformed_constructor_c_is_rejected_at_build(src):
    # a C without a finite value at the chart origin never makes a geometry
    with pytest.raises((GeometryError, ExprError)):
        builtin_geometry("af2_generic", 3, C=src)


def test_constructor_c_is_the_value_stored_at_build(klein3):
    assert builtin_geometry("af2_generic", 3, C="0.5").constructor_C == 0.5
    assert klein3.constructor_C == 0.25  # g = h/rho + d(rho)^2/(4 rho^2)
    assert builtin_geometry("flat", 3).constructor_C is None


@pytest.mark.parametrize("name, dim, y", [
    ("af2_generic", 4, (0.0, 0.3, -0.2, 0.4)),
    ("klein", 3, (1.0, 0.0, 0.0)),
])
def test_asymptotic_h_reports_constructor_c_as_a_float_when_diverged(
    monkeypatch, name, dim, y
):
    # thm-2.5-C reports the geometry's constant when the scalar curvature
    # diverges and there is no recovered C to compare it with
    geom = builtin_geometry(name, dim)
    real = bd.scalar_curvature
    monkeypatch.setattr(
        bd, "scalar_curvature",
        lambda calc, p: real(calc, p) / calc.geom.rho_value(p) ** 3,
    )
    rep = bd.asymptotic_h(TractorCalculus(geom), ladders(geom, [y]))
    assert rep.status == "scalar curvature diverges at the boundary"
    assert rep.h_estimates == []
    (report,) = run_suite(at_boundary_points(geom, y), ["thm-2.5-C"], SamplingPlan())
    (detail,) = report.details
    assert detail["status"] == rep.status
    C = detail["constructor_C"]
    assert type(C) is float and C == 0.25


def test_asymptotic_h_poincare_fails(poincare3):
    lads = ladders(poincare3, [(1.0, 0.0, 0.0)])
    rep = bd.asymptotic_h(TractorCalculus(poincare3), lads)
    assert rep.status != "ok"


def test_einstein_asymptotics(klein3, af2, poincare3):
    def einstein(geom, y):
        # the runner itself: the suite skips the Poincare control, which
        # fails the compactness probe
        geom = at_boundary_points(geom, y)
        plan = SamplingPlan(boundary_points=1)
        (check,) = [c for c in registry() if c.id == "thm-3.3-einstein"]
        session = verify._Session(geom, plan)
        facets, _, (detail,) = check.run(geom, plan, np.random.default_rng(0), session)
        return facets, detail

    _, repk = einstein(klein3, (1.0, 0.0, 0.0))
    assert repk["status"] == "ok" and not repk["pointwise_tracefree_diverges"]
    _, repa = einstein(af2, (0.0, 0.3, -0.2, 0.4))
    assert repa["status"] == "ok"
    assert max(repa["tracefree_errors"] + repa["tail_errors"]) < 1e-5
    # the pointwise trace-free Ricci genuinely fails to extend here
    assert repa["pointwise_tracefree_diverges"]
    facets, _ = einstein(poincare3, (1.0, 0.0, 0.0))
    assert facets["diverged"]


# -- prop 2.2 slot limits -----------------------------------------------------------


def test_prop22_slot_limits(klein3):
    d, n = 3, 2
    pack = lc_pack(klein3)
    gfield = klein3.metric_field()
    y = (0.6, 0.8, 0.0)

    def slots(p):
        # a ladder batch: values (..., B), matrices stacked as (B, d, d)
        ginv = np.linalg.inv(np.moveaxis(gfield.dense(p, 0)[..., 0], -1, 0))
        P = np.moveaxis(pack.dense("schouten", p, 0)[..., 0], -1, 0)
        rho, grad = klein3.rho_and_drho(p)
        ginv_grad = np.einsum("bij,jb->ib", ginv, grad)
        f3 = np.sum(ginv * P, axis=(1, 2)) / (n + 1) + np.einsum(
            "ib,ib->b", grad, ginv_grad
        ) / (4 * rho**2)
        return np.concatenate([
            np.moveaxis(ginv, 0, -1).reshape(d * d, -1) / rho,
            ginv_grad / rho**2,
            f3[None],
        ])

    (est,) = boundary_limit(slots, [ladder(klein3, y)])
    assert not est.diverged
    assert est.scaled_error() < 1e-6
    assert abs(np.asarray(est.value)[-1]) < 1e-6


# -- prop 3.3 curvature asymptotics ---------------------------------------------------


def test_klein_rho2_riemann_limit(klein3):
    pack = lc_pack(klein3)
    y = (0.0, 1.0, 0.0)
    d = 3

    def scaled(p):
        return klein3.rho_value(p) ** 2 * pack.riemann(p, 0)[..., 0]

    (est,) = boundary_limit(scaled, [ladder(klein3, y)])
    grad = klein3.rho_and_drho(one(y))[1][:, 0]
    expected = np.zeros((d, d, d, d))
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    expected[a, b, c, e] = -0.25 * (
                        (c == a) * grad[b] - (c == b) * grad[a]
                    ) * grad[e]
    assert np.max(np.abs(np.asarray(est.value) - expected)) < 1e-5


def test_af1_rho_riemann_limit(af1):
    pack = lc_pack(af1)
    calc = TractorCalculus(af1)
    y = (0.0, 0.3, -0.2, 0.4)
    d = 4

    def scaled(p):
        return af1.rho_value(p) * pack.riemann(p, 0)[..., 0]

    lad = ladder(af1, y)
    (est,) = boundary_limit(scaled, [lad])
    (sff,) = bd.second_fundamental_form(calc, [lad])
    hess = sff.full
    expected = np.zeros((d, d, d, d))
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    expected[a, b, c, e] = (c == a) * hess[b, e] \
                        - (c == b) * hess[a, e]
    assert np.max(np.abs(np.asarray(est.value) - expected)) < 1e-5


# -- boundary tractor bundle ------------------------------------------------------------


def test_boundary_frame_klein(calc3):
    (frame,) = bd.boundary_frame(calc3, [ladder(calc3.geom, (1.0, 0.0, 0.0))])
    assert frame.tau_hat == pytest.approx(1.0, abs=1e-10)
    assert frame.psi == pytest.approx(1.0, abs=1e-9)
    (scalar,) = boundary_limit(lambda p: bd.scalar_curvature(calc3, p), [frame.ladder])
    assert scalar.value == pytest.approx(-6.0, abs=1e-8)
    assert np.allclose(frame.gamma_t, -np.eye(2), atol=1e-9)
    assert frame.isotropy_T1 < 1e-8
    # t.d(rho) -> 1 and the dual-gamma identity, from L(tau) and its inverse
    # extrapolated along the frame's ladder
    (grams,) = ladder_samples(
        lambda p: l_tau(calc3, p, 0, calc3.reference).values(), [frame.ladder]
    )
    gram = richardson_limit(grams).value
    gram_inv = richardson_limit(np.linalg.inv(grams)).value
    t_vec = frame.tau_hat * gram_inv[0, 1:] / 2.0
    drho = calc3.geom.rho_and_drho(one(frame.point))[1][:, 0]
    assert t_vec @ drho == pytest.approx(1.0, abs=1e-6)
    # the boundary value of P^ab / rho is tau_hat times the gram_inv block
    dual = (frame.tau_hat * gram_inv[1:, 1:]) @ (gram[1:, 1:] / frame.tau_hat)
    dual += np.outer(t_vec, drho)
    assert np.max(np.abs(dual - np.eye(3))) < 1e-9


def test_boundary_bundle_klein(calc3):
    ys = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)]
    (report,) = run_suite(
        at_boundary_points(calc3.geom, *ys), ["prop-4.1-bundle"],
        SamplingPlan(boundary_points=2),
    )
    details = report.details
    assert sorted(d["point"] for d in details) == sorted(map(list, ys))
    assert max(d["tract_met_split_defect"] for d in details) < 1e-7
    assert max(d["quotient_vs_sff"] for d in details) < 1e-5
    assert all(d["signature_ok"] for d in details)
    assert max(d["isotropy_T1"] for d in details) < 1e-8


def test_boundary_bundle_flat_degenerate(flat3):
    calc = TractorCalculus(flat3)
    with pytest.raises((bd.DegenerateBoundaryError, bd.BoundaryExtensionError)):
        bd.boundary_frame(calc, [ladder(flat3, (1.0, 0.2, 0.1))])


def test_af2_boundary_frame_and_gram(calc_af2, af2_frame):
    frame = af2_frame
    (scalar,) = boundary_limit(lambda p: bd.scalar_curvature(calc_af2, p), [frame.ladder])
    assert scalar.value == pytest.approx(-12.0, abs=1e-5)
    n = frame.n
    assert -n * (n + 1) / (4.0 * scalar.value) == pytest.approx(0.25, abs=1e-6)
    # the block form in the (beta; xi; sigma) splitting: hyperbolic
    # beta-sigma pairing, tangential gamma block, -psi/(4 tauhat) on beta
    expected = np.zeros((n + 2, n + 2))
    expected[0, n + 1] = expected[n + 1, 0] = 0.5
    expected[0, 0] = -0.25 * frame.psi / frame.tau_hat
    expected[1:n + 1, 1:n + 1] = frame.tau_hat * frame.gamma_t
    assert np.max(np.abs(frame.gram_split - expected)) < 1e-7


def test_af2_contorsion_bounded_at_boundary(calc_af2, af2_frame):
    # the contorsion slots extend: extrapolate their values along the ray
    def psi_values(p):
        return metricity_contorsion(calc_af2, p, 0)[..., 0]

    (est,) = boundary_limit(psi_values, [af2_frame.ladder])
    assert not est.diverged
    assert est.scaled_error() < 1e-5


def test_af2_curvature_blocks(af2_blocks, af2_frame):
    blocks = af2_blocks
    assert blocks.zero_pattern_defect < 1e-5
    assert blocks.gamma_skew_defect < 1e-5
    assert blocks.bottom_middle_defect < 1e-5
    # V and W antisymmetric in the form pair
    assert np.max(np.abs(blocks.V + blocks.V.transpose(1, 0, 2))) < 1e-6
    assert np.max(np.abs(blocks.W + blocks.W.transpose(1, 0, 2, 3))) < 1e-6


def test_klein_curvature_blocks_vanish(calc3):
    frames = bd.boundary_frame(calc3, [ladder(calc3.geom, (0.0, 1.0, 0.0))])
    (blocks,) = bd.curvature_blocks(calc3, frames)
    assert np.max(np.abs(blocks.kappa_split)) < 1e-7


def test_normalization_af2(af2_blocks):
    rep = bd.normalize_boundary_connection(af2_blocks)
    n = af2_blocks.frame.n
    assert rep.phi.shape == (n, n)
    assert rep.skew_defect < 1e-6
    assert rep.ricci_residual < 1e-6
    assert rep.t1_preservation_defect < 1e-5
    fault = bd.normalize_boundary_connection(af2_blocks, w_perturbation=1.0)
    assert fault.ricci_residual > 0.1


def test_normalization_klein_phi_vanishes(calc4):
    frames = bd.boundary_frame(calc4, [ladder(calc4.geom, (1.0, 0.0, 0.0, 0.0))])
    (blocks,) = bd.curvature_blocks(calc4, frames)
    rep = bd.normalize_boundary_connection(blocks)
    assert np.max(np.abs(rep.phi)) < 1e-6
    assert rep.ricci_residual < 1e-6


def test_normalization_dimension_guard(calc3):
    frames = bd.boundary_frame(calc3, [ladder(calc3.geom, (1.0, 0.0, 0.0))])
    (blocks,) = bd.curvature_blocks(calc3, frames)
    with pytest.raises(ValueError):
        bd.normalize_boundary_connection(blocks)


def test_asymptotically_parallel_klein4(calc4):
    geom = at_boundary_points(calc4.geom, (0.0, 0.0, 1.0, 0.0))
    (report,) = run_suite(geom, ["thm-4.1a-normal"])
    rep = report.details[0]
    assert "skipped" not in rep  # the hypothesis holds, so normality is judged
    assert rep["hypothesis_norm"] < 1e-6
    assert rep["tracefree_ricci_norm"] < 1e-5
    assert rep["equivalence_ok"]
    assert rep["t1_defect"] < 1e-6
    assert rep["normality_residual"] < 1e-6


def test_asymptotically_parallel_af2_skips(calc_af2):
    y = (0.0, 0.3, -0.2, 0.4)
    (report,) = run_suite(at_boundary_points(calc_af2.geom, y), ["thm-4.1a-normal"])
    assert report.status == "skip"
    assert "vanish" in report.reason
    # both sides of the equivalence nonzero: the limits of tau grad P and of
    # the trace-free Ricci tensor
    calc = calc_af2
    pack = calc.levi_civita_splitting.pack
    (hyp,) = boundary_limit(
        lambda p: calc.tau.dense(p, 0)[..., 0] * pack.dense("schouten_derivative", p, 0)[..., 0],
        [ladder(calc.geom, y)],
    )
    (tf,) = boundary_limit(lambda p: bd.tracefree_ricci(calc, p), [ladder(calc.geom, y)])
    assert (hyp.norm() <= 1e-5) == (tf.norm() <= 1e-5)


def test_klein_dual_path_extension_agreement(klein3):
    (report,) = run_suite(
        at_boundary_points(klein3, (1.0, 0.0, 0.0)), ["rho-connection-extends"],
        SamplingPlan(boundary_points=1),
    )
    (rep,) = report.details
    assert not rep["diverged"]
    assert rep["dual_path_gap"] is not None and rep["dual_path_gap"] < 1e-6


def test_hessian_of_rho_matches_scalar_jet_loops(klein3, af2):
    # reference: the covariant Hessian entry by entry on scalar jets, with the
    # form's own extended connection (zero for the Klein model)
    for geom, y in ((klein3, (0.6, 0.0, 0.8)), (af2, (0.0, 0.3, -0.2, 0.4))):
        d = geom.dim
        (sff,) = bd.second_fundamental_form(TractorCalculus(geom), [ladder(geom, y)])
        gamma = sff.gamma
        rho = Jet(jet_space(d, 2), geom.rho_dense(one(y), 2)[0])
        grad = [rho.partial(a) for a in range(d)]
        ref = np.zeros((d, d))
        for a in range(d):
            for b in range(d):
                val = grad[a].partial(b).value
                for e in range(d):
                    val -= gamma[e, a, b] * grad[e].value
                ref[a, b] = val
        assert np.max(np.abs(sff.full - ref)) <= 1e-13 * (1 + np.max(np.abs(ref)))
