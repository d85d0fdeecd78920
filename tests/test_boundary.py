import numpy as np
import pytest

from conftest import at_boundary_points, ladder, ladders, lc_pack, one
from tractorlab import boundary as bd
from tractorlab import verify
from tractorlab.expr import ExprError, Tape
from tractorlab.extrapolate import boundary_limit, richardson_limit
from tractorlab.fields import GeometryError, builtin_geometry
from tractorlab.jets import Jet, jet_space
from tractorlab.tractor import TractorCalculus, metricity_contorsion
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


def _transversal(geom, y, direction=None, **opts):
    lad = ladder(geom, y, direction)
    return bd.geodetic_transversals(TractorCalculus(geom), [lad], **opts)[0]


def test_klein_transversal_is_radial(klein3):
    curve = _transversal(klein3, (1.0, 0.0, 0.0))
    assert np.allclose(curve.mu0, [-0.5, 0.0, 0.0])
    # straight radius: x1 = x2 = 0 along the whole curve
    assert np.max(np.abs(curve.points[:, 1:])) < 1e-12
    assert curve.geodesic_residual() < 1e-8


def test_geodesic_residual_matches_stepwise_differences(klein3):
    curve = _transversal(klein3, (0.0, 0.6, 0.8), horizon=0.05)
    h = curve.ts[1] - curve.ts[0]
    worst = 0.0
    for k in range(2, len(curve.ts) - 2):
        dmu = (
            -curve.mus[k + 2] + 8 * curve.mus[k + 1]
            - 8 * curve.mus[k - 1] + curve.mus[k - 2]
        ) / (12 * h)
        worst = max(worst, float(np.max(np.abs(dmu - curve.accs[k]))))
    assert curve.geodesic_residual() == worst


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
        # the integrator's state has one row per curve; ladder evaluations
        # have a row per level
        if len(points) <= len(ys):
            if self is rho_view:
                runs["rho"] += 1
            elif self is metric_tape:
                runs["metric"] += 1
        return real(self, points, space)

    monkeypatch.setattr(Tape, "run", counted)
    step, horizon = 1e-3, 0.01
    bd.geodetic_transversals(calc, lads, step=step, horizon=horizon)
    n_steps = round(horizon / step)
    # four evaluations per step, each one run of the metric tape, whose last
    # row is rho; the launch, where every row is on the boundary and takes
    # its extended value, runs the rho view once at all the boundary points,
    # for the pairing test of the launch directions and the launch's rho
    assert runs == {"rho": 1, "metric": 4 * n_steps}


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
    # its nearest RK4 sample, and their smallest separation pair by pair
    rows = []
    for curve in bd.geodetic_transversals(calc3, ladders(calc3.geom, grid)):
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
    assert np.max(np.abs(rep.h_limits[0] - (-2 * rep.C) * sff.full)) < 1e-5


# -- asymptotic form and Einstein property ---------------------------------------


def test_asymptotic_h_klein(klein3):
    ys = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0)]
    rep = bd.asymptotic_h(TractorCalculus(klein3), ladders(klein3, ys))
    assert rep.status == "ok"
    assert rep.C == pytest.approx(0.25, abs=1e-6)
    assert rep.scalar_spread < 1e-5
    assert min(rep.tangential_min_eigs) > 0.5


def test_asymptotic_h_af2_recovers_constructor(af2):
    ys = [(0.0, 0.3, -0.2, 0.4), (0.0, -0.1, 0.2, 0.3)]
    rep = bd.asymptotic_h(TractorCalculus(af2), ladders(af2, ys))
    assert rep.status == "ok"
    assert rep.C == pytest.approx(rep.constructor_C, abs=1e-6)


@pytest.mark.parametrize("src", ["0.25 +", "log(0 - 1)", "1/0", "1/z", "sqrt(rho - 1)"])
def test_malformed_constructor_c_is_rejected_at_build(src):
    # a C without a finite value at the chart origin never makes a geometry
    with pytest.raises((GeometryError, ExprError)):
        builtin_geometry("af2_generic", 3, C=src)


def test_constructor_c_is_the_value_stored_at_build(klein3):
    geom = builtin_geometry("af2_generic", 3, C="0.5")
    assert bd._constructor_c(geom) == geom.constructor_C == 0.5
    assert bd._constructor_c(klein3) == 0.25  # the Klein model, by name
    assert bd._constructor_c(builtin_geometry("flat", 3)) is None


@pytest.mark.parametrize("name, dim, y", [
    ("af2_generic", 4, (0.0, 0.3, -0.2, 0.4)),
    ("klein", 3, (1.0, 0.0, 0.0)),
])
def test_asymptotic_h_reports_constructor_c_as_a_float_when_diverged(
    monkeypatch, name, dim, y
):
    geom = builtin_geometry(name, dim)
    real = bd.scalar_curvature
    monkeypatch.setattr(
        bd, "scalar_curvature",
        lambda calc, p: real(calc, p) / calc.geom.rho_value(p) ** 3,
    )
    rep = bd.asymptotic_h(TractorCalculus(geom), ladders(geom, [y]))
    assert rep.status == "scalar curvature diverges at the boundary"
    assert type(rep.constructor_C) is float and rep.constructor_C == 0.25


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
    (gamma,) = bd.extended_christoffels(calc, [lad])
    (hess,) = bd.hessian_of_rho(af1, one(y), [gamma])
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
    assert frame.diagnostics["isotropy_T1"] < 1e-8
    assert frame.diagnostics["t_dot_drho"] == pytest.approx(1.0, abs=1e-6)
    assert frame.diagnostics["dual_gamma_defect"] < 1e-9


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
    # reference: the covariant Hessian entry by entry on scalar jets
    for geom, y in ((klein3, (0.6, 0.0, 0.8)), (af2, (0.0, 0.3, -0.2, 0.4))):
        d = geom.dim
        gamma = np.random.default_rng(d).uniform(-1, 1, size=(d, d, d))
        rho = Jet(jet_space(d, 2), geom.rho_dense(one(y), 2)[0])
        grad = [rho.partial(a) for a in range(d)]
        ref = np.zeros((d, d))
        for a in range(d):
            for b in range(d):
                val = grad[a].partial(b).value
                for e in range(d):
                    val -= gamma[e, a, b] * grad[e].value
                ref[a, b] = val
        (got,) = bd.hessian_of_rho(geom, one(y), [gamma])
        assert np.max(np.abs(got - ref)) <= 1e-13 * (1 + np.max(np.abs(ref)))
