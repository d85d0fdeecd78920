import math

import numpy as np
import pytest

from conftest import at_boundary_points, ladders, max_value, one
from jet_reference import jet_apply, jet_det, jet_views
from tractorlab import affine
from tractorlab import expr as ex
from tractorlab.affine import (
    CurvaturePack,
    canonical_tau,
    covariant_derivative,
    levi_civita,
    levi_civita_jets,
    projective_change,
    projective_modify,
    rho_connection,
    rho_log_gradient,
)
from tractorlab.fields import Chart, Geometry, TensorField, builtin_geometry
from tractorlab.jets import (
    DomainError,
    PoleError,
    jet_einsum,
    jet_gradient,
    jet_inverse,
    jet_mul,
    jet_reciprocal,
    jet_space,
)
from tractorlab.tractor import TractorCalculus
from tractorlab.verify import SamplingPlan, _defining_density, run_suite


def linear_one_form(chart, coeffs):
    """Upsilon_a = c_a0 + sum_i c_ai x^i as a one-form field."""
    d = chart.dim
    coeffs = np.asarray(coeffs, dtype=float)

    def ups(points, order):
        out = np.zeros((d, len(points), jet_space(d, order).ncoeff))
        out[..., 0] = coeffs[:, :1] + coeffs[:, 1:] @ np.asarray(points, dtype=float).T
        if order >= 1:
            out[..., 1 : 1 + d] = coeffs[:, None, 1:]
        return out

    return TensorField(chart, "d", ups)


# -- Levi-Civita -----------------------------------------------------------


def test_flat_christoffels_vanish(flat3):
    conn = levi_civita(flat3)
    G = conn.dense(one((0.3, 0.2, 0.1)), 1)
    assert max_value(G) == 0.0


@pytest.mark.parametrize("count", [1, 6, 50])
@pytest.mark.parametrize("name", ["klein3", "af2", "af1", "poincare3", "flat3", "klein4"])
def test_order_0_short_paths_keep_the_bits_of_the_jet_kernels(request, name, count):
    # levi_civita_jets and rho_log_gradient at order 0 read the values as
    # the jet kernels lay them out, and give those kernels' bits
    geom = request.getfixturevalue(name)
    d = geom.dim
    rho, g = geom.rho_and_metric(geom.interior_points(count, np.random.default_rng(count)), 1)
    s0, s1 = jet_space(d, 0), jet_space(d, 1)
    dg = jet_gradient(g, s1)
    core = dg.swapaxes(0, 1) + dg.swapaxes(0, 1).swapaxes(1, 2) - dg
    kernels = 0.5 * jet_einsum("ce,eab->cab", jet_inverse(g[..., :1], s0), core, s0)
    assert np.array_equal(levi_civita_jets(g, 0), kernels)
    inv = jet_reciprocal(rho[..., :1] * geom.alpha, s0)
    kernels = jet_mul(jet_gradient(rho, s1), inv, s0)
    assert np.array_equal(rho_log_gradient(rho, geom.alpha, s0), kernels)


@pytest.mark.parametrize("order", [0, 2])
def test_projective_change_is_the_delta_formula(rng, order):
    # each delta term is one product, as the einsum of the delta formed it
    G = rng.standard_normal((3, 3, 3, 5, jet_space(3, order).ncoeff))
    u = rng.standard_normal((3, 5, jet_space(3, order).ncoeff))
    u[1, 2] = -0.0
    eye = np.eye(3)
    want = G + np.einsum("ca,b...->cab...", eye, u) + np.einsum("cb,a...->cab...", eye, u)
    assert np.array_equal(projective_change(G, u), want)
    assert np.array_equal(projective_change(G[..., 0], u[..., 0]), want[..., 0])


def test_koszul_against_finite_differences():
    # g = exp(2x) * delta on a 2d chart, independent central-difference oracle
    chart = Chart(("x", "y"))
    exprs = np.array([["exp(2*x)", "0"], ["0", "exp(2*x)"]], dtype=object)
    gfield = TensorField.from_exprs(chart, exprs, "dd", name="g", sym=((0, 1),))
    conn = levi_civita(gfield)
    p = (0.21, -0.4)
    G = conn.dense(one(p), 0)[..., 0, :]

    h = 1e-5

    def g_at(q):
        return np.array([[math.exp(2 * q[0]), 0.0], [0.0, math.exp(2 * q[0])]])

    dg = np.zeros((2, 2, 2))
    for a in range(2):
        qp = list(p)
        qm = list(p)
        qp[a] += h
        qm[a] -= h
        dg[a] = (g_at(qp) - g_at(qm)) / (2 * h)
    ginv = np.linalg.inv(g_at(p))
    expected = 0.5 * np.einsum(
        "ce,eab->cab",
        ginv,
        np.einsum("aeb->eab", dg) + np.einsum("bea->eab", dg) - dg,
    )
    got = G[..., 0]
    assert np.max(np.abs(got - expected)) < 1e-8


def test_klein_christoffels_at_origin(klein3):
    conn = levi_civita(klein3)
    assert max_value(conn.dense(one((0.0, 0.0, 0.0)), 0)) < 1e-14


# -- projective modification -------------------------------------------------


def test_modify_by_zero_is_identity(klein3, rng):
    conn = levi_civita(klein3)
    zero = linear_one_form(klein3.chart, np.zeros((3, 4)))
    mod = projective_modify(conn, zero)
    p = one(klein3.interior_points(1, rng)[0])
    a = conn.dense(p, 1)
    b = mod.dense(p, 1)
    assert np.max(np.abs(a - b)) == 0.0


def test_modify_flat_by_dx0(flat3):
    conn = levi_civita(flat3)
    coeffs = np.zeros((3, 4))
    coeffs[0][0] = 1.0  # Upsilon = dx^0
    mod = projective_modify(conn, linear_one_form(flat3.chart, coeffs))
    G = mod.dense(one((0.1, 0.2, 0.3)), 0)[..., 0, 0]
    assert G[0, 0, 0] == pytest.approx(2.0)
    for i in (1, 2):
        assert G[i, 0, i] == pytest.approx(1.0)
        assert G[i, i, 0] == pytest.approx(1.0)
        assert G[0, i, i] == pytest.approx(0.0)


def _integrate_geodesic(conn, x0, v0, step, n_steps):
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    out = [x.copy()]

    def acc(x_, v_):
        G = conn.dense(one(x_), 0)[..., 0, 0]
        return -np.einsum("cab,a,b->c", G, v_, v_)

    for _ in range(n_steps):
        k1x, k1v = v, acc(x, v)
        k2x, k2v = v + step / 2 * k1v, acc(x + step / 2 * k1x, v + step / 2 * k1v)
        k3x, k3v = v + step / 2 * k2v, acc(x + step / 2 * k2x, v + step / 2 * k2v)
        k4x, k4v = v + step * k3v, acc(x + step * k3x, v + step * k3v)
        x = x + step / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + step / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        out.append(x.copy())
    return np.array(out)


def test_projective_modification_preserves_unparametrized_geodesics(klein3, rng):
    conn = levi_civita(klein3)
    coeffs = rng.uniform(-0.6, 0.6, size=(3, 4))
    mod = projective_modify(conn, linear_one_form(klein3.chart, coeffs))
    x0 = (0.1, -0.05, 0.2)
    v0 = np.array([0.5, 0.3, -0.2])
    base = _integrate_geodesic(conn, x0, v0, 2e-3, 150)
    other = _integrate_geodesic(mod, x0, v0, 2e-3, 150)
    # Klein geodesics are straight lines; both traces must lie on the line
    # through x0 with direction v0 (the unparametrized trace is shared).
    direction = v0 / np.linalg.norm(v0)

    def line_distance(trace):
        rel = trace - np.array(x0)
        ortho = rel - np.outer(rel @ direction, direction)
        return float(np.max(np.linalg.norm(ortho, axis=1)))

    assert line_distance(base) < 1e-6
    assert line_distance(other) < 1e-6

    def to_polyline(q, trace):
        best = math.inf
        for k in range(len(trace) - 1):
            a, b = trace[k], trace[k + 1]
            seg = b - a
            t = np.clip(float((q - a) @ seg) / float(seg @ seg), 0.0, 1.0)
            best = min(best, float(np.linalg.norm(q - (a + t * seg))))
        return best

    # one-sided Hausdorff distance of the traces (reparametrized geodesics
    # share their unparametrized support)
    reach = np.linalg.norm(base[-1] - np.array(x0)) - 1e-3
    dists = [
        to_polyline(q, base)
        for q in other[::10]
        if np.linalg.norm(q - np.array(x0)) < reach
    ]
    assert max(dists) < 1e-6


# -- the rho-modified connection ----------------------------------------------


def test_klein_rho_connection_is_flat(klein3, rng):
    hat = rho_connection(klein3, levi_civita(klein3))
    for p in klein3.interior_points(3, rng):
        assert max_value(hat.dense(one(p), 1)) < 1e-12


def test_flat_rho_connection_is_not_bounded(flat3):
    hat = rho_connection(flat3, levi_civita(flat3))
    norms = []
    for s in (1e-1, 1e-2, 1e-3):
        p = (1.0 - s, 0.1, 0.2)
        norms.append(np.max(np.abs(hat.dense(one(p), 0)[..., 0])))
    assert norms[2] > 10 * norms[0]
    # the doubled diagonal entry grows exactly like 1/rho
    assert norms[2] == pytest.approx(1 / 1e-3, rel=1e-6)


def test_poincare_rho_connection_slope(poincare3):
    hat = rho_connection(poincare3, levi_civita(poincare3))
    eps = np.array([0.05 * 2.0**-k for k in range(6)])
    norms = []
    for e in eps:
        s = math.sqrt(1 - e)
        norms.append(np.max(np.abs(hat.dense(one((s, 0.0, 0.0)), 0)[..., 0])))
    slope = np.polyfit(np.log(eps), np.log(norms), 1)[0]
    assert slope <= -0.9


# -- curvature ------------------------------------------------------------------


def test_flat_curvature_vanishes(flat3):
    pack = CurvaturePack(levi_civita(flat3), flat3.metric_field())
    p = one((0.2, -0.1, 0.4))
    for name in ("riemann", "schouten", "weyl", "cotton"):
        assert max_value(pack.dense(name, p, 0)) == 0.0


def test_riemann_matches_scalar_jet_formula(af2, rng):
    # reference: R[a,b,c,e] = d_a G[c,b,e] - d_b G[c,a,e] + G[c,a,f] G[f,b,e]
    # - G[c,b,f] G[f,a,e] with scalar Jet arithmetic, at jet order 1
    conn = rho_connection(af2, levi_civita(af2))
    pack = CurvaturePack(conn, af2.metric_field())
    p = one(af2.interior_points(1, rng)[0])
    G = jet_views(conn.dense(p, 2)[..., 0, :], jet_space(4, 2))
    R = jet_views(pack.riemann(p, 1)[..., 0, :], jet_space(4, 1))
    worst = scale = 0.0
    for a, b, c, e in np.ndindex(4, 4, 4, 4):
        ref = G[c, b, e].partial(a) - G[c, a, e].partial(b)
        for f in range(4):
            ref = ref + G[c, a, f] * G[f, b, e] - G[c, b, f] * G[f, a, e]
        worst = max(worst, float(np.max(np.abs(R[a, b, c, e].coeffs - ref.coeffs))))
        scale = max(scale, float(np.max(np.abs(ref.coeffs))))
    assert worst < 1e-13 * (1 + scale)


def test_klein_constant_curvature(klein3, rng):
    pack = CurvaturePack(levi_civita(klein3), klein3.metric_field())
    gfield = klein3.metric_field()
    for p in map(one, klein3.interior_points(20, rng)):
        R = pack.riemann(p, 0)[..., 0, 0]
        g = gfield.dense(p, 0)[..., 0, 0]
        expected = np.zeros((3, 3, 3, 3))
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    for e in range(3):
                        expected[a, b, c, e] = -(
                            (c == a) * g[b, e] - (c == b) * g[a, e]
                        )
        assert np.max(np.abs(R - expected)) < 1e-8
        assert pack.dense("scalar", p, 0)[0, 0] == pytest.approx(-6.0, abs=1e-10)


def test_klein_schouten_weyl_cotton(klein3, rng):
    pack = CurvaturePack(levi_civita(klein3), klein3.metric_field())
    gfield = klein3.metric_field()
    p = one(klein3.interior_points(1, rng)[0])
    P = pack.dense("schouten", p, 0)[..., 0, 0]
    g = gfield.dense(p, 0)[..., 0, 0]
    assert np.max(np.abs(P + g)) < 1e-12
    assert max_value(pack.dense("beta", p, 0)) < 1e-12
    C = pack.dense("weyl", p, 0)[..., 0, 0]
    tr1 = np.max(np.abs(np.einsum("eaeb->ab", C)))
    tr2 = np.max(np.abs(np.einsum("abee->ab", C)))
    assert max(tr1, tr2) < 1e-9
    assert max_value(pack.dense("cotton", p, 0)) < 1e-12


# -- covariant derivative -----------------------------------------------------


@pytest.mark.parametrize("name,dim", [("klein", 3), ("af2_generic", 4),
                                      ("af1_generic", 4), ("flat", 3)])
def test_metric_is_parallel(name, dim):
    geom = builtin_geometry(name, dim)
    conn = levi_civita(geom)
    dg = covariant_derivative(geom.metric_field(), conn)
    rng = np.random.default_rng(1)
    for p in geom.interior_points(3, rng):
        assert max_value(dg.dense(one(p), 0)) < 1e-9


def test_tau_is_parallel_and_equals_rho(klein3, rng):
    tau = canonical_tau(klein3)
    p = one(klein3.interior_points(1, rng)[0])
    assert tau.dense(p, 0)[0, 0] == pytest.approx(klein3.rho_value(p)[0], abs=1e-14)
    dtau = covariant_derivative(tau, levi_civita(klein3))
    assert max_value(dtau.dense(p, 1)) < 1e-9


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_canonical_tau_matches_scalar_reference(klein3, af2, order):
    # reference: |det g|^(-1/(n+2)) through the object LU and scalar jets
    for geom in (klein3, af2):
        tau = canonical_tau(geom)
        pts = geom.interior_points(3, np.random.default_rng(order))
        space = jet_space(geom.dim, order)
        batch = tau.dense(np.array(pts), order)
        assert batch.shape == (3, space.ncoeff)
        for k, p in enumerate(map(one, pts)):
            g = jet_views(geom.metric_field().dense(p, order)[..., 0, :], space)
            det = jet_apply("abs_smooth", jet_det(g))
            ref = jet_apply("pow", det, param=-1.0 / (geom.dim + 1)).coeffs
            got = tau.dense(p, order)[0]
            assert np.max(np.abs(got - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))
            assert np.array_equal(batch[k], got)


@pytest.mark.parametrize("metric", [
    [["1", "1"], ["1", "1"]],  # rank one everywhere
    [["x0^2", "0"], ["0", "1"]],  # singular on x0 = 0
])
def test_canonical_tau_of_singular_metric_raises(metric):
    chart = Chart(("x0", "x1"))
    geom = Geometry("singular", chart, ex.parse_expr("1 - x0", chart.coord_names),
                    2.0, metric=np.array(metric, dtype=object))
    tau = canonical_tau(geom)
    p = one((0.0, 0.3))
    for order in range(3):
        g = jet_views(geom.metric_field().dense(p, order)[..., 0, :], jet_space(2, order))
        with pytest.raises(DomainError):  # the scalar reference
            jet_apply("abs_smooth", jet_det(g))
        with pytest.raises(DomainError):
            tau.dense(p, order)


def test_density_sign_is_pinned(klein3, rng, monkeypatch):
    # the opposite transport sign does not preserve tau
    tau = canonical_tau(klein3)
    p = one(klein3.interior_points(1, rng)[0])
    monkeypatch.setattr(affine, "DENSITY_SIGN", -1.0)
    wrong = covariant_derivative(tau, levi_civita(klein3))
    assert max_value(wrong.dense(p, 0)) > 1e-2


def test_tau_hat_parallel_for_rho_connection(klein3, rng):
    # tau = rho tauhat with tauhat parallel for the rho-modified connection
    geom = klein3
    hat = rho_connection(geom, levi_civita(geom))
    tau = canonical_tau(geom)

    def tau_hat_component(point, order):
        space = jet_space(geom.dim, order)
        inv_rho = jet_reciprocal(geom.rho_dense(point, order), space)
        return jet_mul(tau.dense(point, order), inv_rho, space)

    tau_hat = TensorField(geom.chart, "", tau_hat_component, weight=2.0, name="tauhat")
    field = covariant_derivative(tau_hat, hat)
    for p in geom.interior_points(3, rng):
        assert max_value(field.dense(one(p), 0)) < 1e-9


def test_schouten_change_law(klein3, rng):
    # P = P_hat + D_hat(Y) + Y Y for the modification by a random one-form
    geom = klein3
    conn = levi_civita(geom)
    coeffs = rng.uniform(-0.5, 0.5, size=(3, 4))
    ups = linear_one_form(geom.chart, coeffs)
    hat = projective_modify(conn, ups)
    pack = CurvaturePack(levi_civita(geom), geom.metric_field())
    pack_hat = CurvaturePack(hat, geom.metric_field())
    dups = covariant_derivative(ups, hat)
    for p in map(one, geom.interior_points(3, rng)):
        P = pack.dense("schouten", p, 0)[..., 0, 0]
        Ph = pack_hat.dense("schouten", p, 0)[..., 0, 0]
        du = dups.dense(p, 0)[..., 0, 0]
        u = ups.dense(p, 0)[:, 0, 0]
        assert np.max(np.abs(P - (Ph + du + np.outer(u, u)))) < 1e-8


# -- densities at the boundary ---------------------------------------------------


def defining_density(geom, *ys):
    """The defining-density check of the suite at the boundary points
    ``ys``: whether it passed, and its detail."""
    (report,) = run_suite(
        at_boundary_points(geom, *ys), ["defining-density"],
        SamplingPlan(boundary_points=len(ys)),
    )
    (detail,) = report.details
    assert sorted(detail["points"]) == sorted(map(list, ys))
    return report.status == "pass", detail


def test_defining_density_klein(klein3):
    passed, rep = defining_density(klein3, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert passed
    assert rep["limits"] == pytest.approx([1.0, 1.0], abs=1e-10)


def test_defining_density_af2(af2):
    passed, rep = defining_density(af2, (0.0, 0.3, -0.2, 0.4))
    assert passed
    assert rep["limits"][0] > 0.1


def test_defining_density_af1_uses_order(af1):
    passed, _ = defining_density(af1, (0.0, 0.3, -0.2, 0.4))
    assert passed


def test_defining_density_controls(poincare3, flat3):
    passed, _ = defining_density(poincare3, (1.0, 0.0, 0.0))
    assert not passed
    passed2, rep2 = defining_density(flat3, (1.0, 0.2, 0.1))
    assert not passed2
    assert rep2["reason"] == "tau/rho diverges at the boundary"


def test_defining_density_pole_on_one_ladder_fails_every_ladder(klein3, monkeypatch):
    # the ladders are evaluated as one batch: a pole on the rows of one
    # ladder fails the check, and no ladder then has a limit
    lads = ladders(klein3, [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    bad = {tuple(row) for row in lads[1].points.tolist()}
    calc = TractorCalculus(klein3)
    tau = calc.tau
    real = tau.dense

    def dense(point, order):
        if bad & {tuple(row) for row in point.tolist()}:
            raise PoleError("pole on the second ladder")
        return real(point, order)

    monkeypatch.setattr(tau, "dense", dense)
    facets, (rep,) = _defining_density(calc, lads)
    assert facets["not_a_defining_density"] is True
    assert rep["reason"] == "pole while approaching the boundary"
    assert np.isnan(rep["limits"]).all() and np.isnan(rep["errors"]).all()
    assert len(rep["limits"]) == len(rep["errors"]) == 3
    assert np.isnan(facets["extrapolation_error"]).all()
    assert rep["points"] == [list(lad.y) for lad in lads]


def test_defining_density_flags_a_zero_limit(klein3):
    # a density vanishing to second order, tau = rho^2, makes tau/rho = rho:
    # it extrapolates smoothly, to 0, which a defining density may not do
    lads = ladders(klein3, [(1.0, 0.0, 0.0), (0.0, 0.6, -0.8)])
    calc = TractorCalculus(klein3)
    calc.tau = TensorField.from_exprs(
        klein3.chart, "(1 - (x0^2 + x1^2 + x2^2))^2", "", weight=2.0, name="tau"
    )
    facets, (rep,) = _defining_density(calc, lads)
    assert facets["not_a_defining_density"] is True
    assert rep["reason"] == "tau/rho has zero boundary limit"
    assert np.abs(rep["limits"]).max() < 1e-8
    assert max(facets["extrapolation_error"]) <= 1e-5


def test_special_flag_via_density_transport(klein3):
    # a special connection admits a nowhere-zero parallel weight-(n+2)
    # density along curves: transport it and compare with the closed form
    geom = klein3
    conn = levi_civita(geom)
    w = geom.dim + 1  # weight n+2

    def trace_gamma_values(p):
        return conn.trace_gamma(one(p), 0)[:, 0, 0]

    # straight segment inside the ball
    x0 = np.array([0.1, -0.2, 0.05])
    v = np.array([0.3, 0.2, 0.1])
    n_steps, h = 200, 1e-3
    s = 1.0
    x = x0.copy()
    for _ in range(n_steps):
        def rhs(xx, ss):
            return -(w / (geom.dim + 1)) * float(trace_gamma_values(xx) @ v) * ss

        k1 = rhs(x, s)
        k2 = rhs(x + h / 2 * v, s + h / 2 * k1)
        k3 = rhs(x + h / 2 * v, s + h / 2 * k2)
        k4 = rhs(x + h * v, s + h * k3)
        s += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        x += h * v
    # parallel density of weight n+2: |det g|^(-1/2) up to normalization
    def closed(p):
        g = geom.metric_field().dense(one(p), 0)[..., 0, 0]
        return abs(np.linalg.det(g)) ** (-0.5)

    expected = closed(x) / closed(x0)
    assert s == pytest.approx(expected, rel=1e-9)


def test_torsion_free_symmetry_at_samples(af2, rng):
    conn = rho_connection(af2, levi_civita(af2))
    for p in af2.interior_points(3, rng):
        G = conn.dense(one(p), 1)[..., 0, 0]
        assert np.max(np.abs(G - G.transpose(0, 2, 1))) < 1e-12
