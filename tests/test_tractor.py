import numpy as np
import pytest

from conftest import max_value, one
from jet_reference import jet_stack, jet_views
from tractorlab.affine import CurvaturePack, projective_change, projective_modify
from tractorlab.fields import TensorField
from tractorlab.jets import Jet, PoleError, jet_inverse, jet_space
from tractorlab.tractor import (
    TractorCalculus,
    TractorValue,
    bgg_split_metricity,
    change_splitting,
    contorsion_slots_lc,
    curvature_of,
    l_tau,
    metric_tractor_curvature_blocks,
    metric_tractor_omega,
    metricity_contorsion,
    polynomial_tractor_section,
    s2t_slots,
    standard_curvature_blocks,
    std_tractor_derivative,
    tractor_metric_inverse,
)


def linear_upsilon(dim, coeffs):
    """Upsilon_a = c_a0 + sum_i c_ai x^i as a dense evaluator at a batch of
    points."""
    coeffs = np.asarray(coeffs, dtype=float)

    def ups(points, order):
        x = np.asarray(points, dtype=float)
        out = np.zeros((dim, len(x), jet_space(dim, order).ncoeff))
        out[..., 0] = (x @ coeffs[:, 1:].T + coeffs[:, 0]).T
        if order >= 1:
            out[..., 1 : 1 + dim] = coeffs[:, None, 1:]
        return out

    return ups


def row(dense):
    """The one row of a dense jet array at a batch of one point."""
    return dense[..., 0, :]


def batch_of_one(dense):
    """A dense jet array with a batch axis of one row added."""
    return dense[..., None, :]


def jets_of(tv):
    """Scalar-jet views of the components of a tractor value at one point."""
    return jet_views(row(tv.data), tv.space)


def pack_jets(pack, name, point, order):
    """Scalar-jet views of a curvature pack tensor at a batch of one point."""
    return jet_views(row(pack.dense(name, point, order)), jet_space(pack.dim, order))


def conn_jets(conn, point, order):
    """Scalar-jet views of a connection's Christoffel symbols at a batch of
    one point."""
    return jet_views(row(conn.dense(point, order)), jet_space(conn.dim, order))


def tv_gap(a, b):
    return float(np.max(np.abs(a.values() - b.values())))


@pytest.fixture(scope="module")
def calc3(klein3):
    return TractorCalculus(klein3)


@pytest.fixture(scope="module")
def calc_af2(af2):
    return TractorCalculus(af2)


# -- the standard connection in a splitting ------------------------------------


def test_flat_structure_derivative(flat3):
    # flat geometry: P = 0 and Gamma = 0, so the derivative is literally
    # (partial nu + sigma delta; partial sigma)
    calc = TractorCalculus(flat3)
    p = (0.2, 0.1, -0.3)
    space = jet_space(3, 2)
    comps = np.empty(4, dtype=object)
    comps[0] = space.variable(0, p[0])  # sigma = x0
    for a in range(3):
        comps[1 + a] = space.constant(0.0)
    tv = TractorValue(
        batch_of_one(jet_stack(comps, space)), space, "u", 0, calc.levi_civita_splitting
    )
    D = std_tractor_derivative(calc, tv, one(p))
    for a in range(3):
        # nu-slot: sigma delta^b_a
        for b in range(3):
            expect = p[0] if a == b else 0.0
            assert jets_of(D)[a, 1 + b].value == pytest.approx(expect, abs=1e-14)
        # sigma-slot: partial_a sigma
        assert jets_of(D)[a, 0].value == pytest.approx(1.0 if a == 0 else 0.0,
                                                         abs=1e-14)


def test_constant_upper_section_on_flat(flat3):
    calc = TractorCalculus(flat3)
    p = (0.0, 0.0, 0.0)
    space = jet_space(3, 2)
    comps = np.empty(4, dtype=object)
    comps[0] = space.constant(0.0)
    for a in range(3):
        comps[1 + a] = space.variable(a, 0.0)
    tv = TractorValue(
        batch_of_one(jet_stack(comps, space)), space, "u", 0, calc.levi_civita_splitting
    )
    D = std_tractor_derivative(calc, tv, one(p))
    for a in range(3):
        assert jets_of(D)[a, 0].value == pytest.approx(0.0, abs=1e-14)
        for b in range(3):
            assert jets_of(D)[a, 1 + b].value == pytest.approx(
                1.0 if a == b else 0.0, abs=1e-14
            )


# -- change of splitting ---------------------------------------------------------


def test_change_splitting_identity_and_group_action(calc3, rng):
    p = one((0.2, -0.1, 0.3))
    tv = l_tau(calc3, p, 2)
    ident = change_splitting(tv, np.zeros((3, 1, tv.space.ncoeff)))
    assert tv_gap(ident, tv) == 0.0
    u1 = linear_upsilon(3, rng.uniform(-0.5, 0.5, (3, 4)))(p, 2)
    u2 = linear_upsilon(3, rng.uniform(-0.5, 0.5, (3, 4)))(p, 2)
    two = change_splitting(change_splitting(tv, u1), u2)
    once = change_splitting(tv, u1 + u2)
    assert tv_gap(two, once) < 1e-10


def test_splittings_compare_by_identity_and_carry_their_own_pack(calc_af2, rng):
    calc = calc_af2
    d = calc.dim
    offset = TensorField(
        calc.geom.chart, "d", linear_upsilon(d, rng.uniform(-0.5, 0.5, (d, d + 1)))
    )
    s1, s2 = calc.splitting(offset), calc.splitting(offset)
    assert s1 == s1 and s1 != s2
    assert s1 != calc.reference and calc.reference != calc.levi_civita_splitting
    assert len({s1, s2, calc.reference, calc.levi_civita_splitting}) == 4
    assert s1.upsilon is offset and calc.reference.upsilon is None
    # the connection is the reference one changed by the offset, and the
    # pack reads it: its Schouten tensor is that of an independent pack of
    # the same change
    pts = calc.geom.interior_points(2, rng)
    assert s1.pack.conn is s1.connection
    assert np.array_equal(
        s1.connection.dense(pts, 1),
        projective_change(calc.hat.dense(pts, 1), offset.dense(pts, 1)),
    )
    fresh = CurvaturePack(projective_modify(calc.hat, offset))
    P = s1.pack.dense("schouten", pts, 1)
    assert np.array_equal(P, fresh.dense("schouten", pts, 1))
    assert not np.allclose(P, calc.reference.pack.dense("schouten", pts, 1))


def test_endomorphism_change_is_conjugation(calc3, rng):
    # pushing an endomorphism through the fiber change map reproduces the
    # slot change law: xi fixed, A += xi Y, lambda -= Y.xi,
    # psi += -A^T Y + lambda Y - (Y.xi) Y
    d = 3
    space = jet_space(d, 1)
    M = np.empty((d + 1, d + 1), dtype=object)
    vals = rng.uniform(-1, 1, size=(d + 1, d + 1))
    for idx in np.ndindex(d + 1, d + 1):
        M[idx] = space.constant(vals[idx])
    uvals = rng.uniform(-0.7, 0.7, size=d)
    ups = batch_of_one(jet_stack([space.constant(v) for v in uvals], space))
    tv = TractorValue(batch_of_one(jet_stack(M, space)), space, "ud", 0, calc3.reference)
    out = change_splitting(tv, ups)
    got = out.values()[..., 0]

    A = vals[1:, 1:]
    xi = vals[1:, 0]
    psi = vals[0, 1:]
    lam = vals[0, 0]
    expected = np.zeros((d + 1, d + 1))
    expected[1:, 0] = xi
    expected[1:, 1:] = A + np.outer(xi, uvals)
    expected[0, 0] = lam - uvals @ xi
    expected[0, 1:] = psi - uvals @ A + lam * uvals - (uvals @ xi) * uvals
    assert np.max(np.abs(got - expected)) < 1e-12


def test_l_tau_hatform_instance(calc3, klein3):
    p = one((0.25, -0.1, 0.3))
    order = 2
    Lh = calc3.in_splitting(l_tau(calc3, p, order), calc3.reference, p)
    rho_full = Jet(jet_space(3, order + 1), klein3.rho_dense(p, order + 1)[0])
    grad = [rho_full.partial(a) for a in range(3)]
    rho = rho_full.truncate(order)
    tau_hat = Jet(jet_space(3, order), calc3.tau_hat_dense(p, order)[0])
    P = pack_jets(calc3.levi_civita_splitting.pack, "schouten", p, order)
    G = jets_of(Lh)
    gap = np.max(np.abs((G[0, 0] - rho * tau_hat).coeffs))
    for a in range(3):
        gap = max(gap, np.max(np.abs((G[0, 1 + a] - 0.5 * grad[a] * tau_hat).coeffs)))
        for b in range(3):
            expect = P[a, b] * rho * tau_hat + grad[a] * grad[b] * tau_hat / (4 * rho)
            gap = max(gap, np.max(np.abs((G[1 + a, 1 + b] - expect).coeffs)))
    assert gap < 1e-9


def test_l_tau_boundary_slot_structure(calc3, klein3):
    # approaching the boundary: top slot -> 0, middle -> rho_a/2 * tauhat
    y = np.array([1.0, 0.0, 0.0])
    for eps in (1e-2, 1e-3):
        p = one(y * np.sqrt(1 - eps))
        G = jets_of(calc3.in_splitting(l_tau(calc3, p, 0), calc3.reference, p))
        assert abs(G[0, 0].value) < 2 * eps
        mid = np.array([G[0, 1 + a].value for a in range(3)])
        assert np.linalg.norm(mid - 0.5 * klein3.rho_and_drho(p)[1][:, 0]) < 2 * eps


# -- induced connection on End(T), product rule ---------------------------------


def test_end_connection_block_formula(calc_af2, rng):
    # Leibniz-built derivative of an End section against the block formula
    # (with the Leibniz-consistent +lambda P entry)
    calc = calc_af2
    d = 4
    p = (0.4, 0.2, -0.3, 0.1)
    order = 2
    space = jet_space(d, order + 1)
    xs = [space.variable(i, p[i]) for i in range(d)]
    M = np.empty((d + 1, d + 1), dtype=object)
    for idx in np.ndindex(d + 1, d + 1):
        c = rng.uniform(-1, 1, size=1 + d)
        val = space.constant(c[0])
        for i in range(d):
            val = val + c[1 + i] * (xs[i] - p[i])
        M[idx] = val
    tv = TractorValue(batch_of_one(jet_stack(M, space)), space, "ud", 0, calc.reference)
    D = std_tractor_derivative(calc, tv, one(p))

    conn = calc.reference.connection
    pack = calc.reference.pack
    P = pack_jets(pack, "schouten", one(p), order)
    G = conn_jets(conn, one(p), order)
    A = M[1:, 1:]
    xi = M[1:, 0]
    psi = M[0, 1:]
    lam = M[0, 0]

    def nabla(expr_arr, variance):
        # plain coupled derivative on spacetime tensors (weight 0)
        out = np.empty((d,) + expr_arr.shape, dtype=object)
        for a in range(d):
            for idx in np.ndindex(expr_arr.shape):
                acc = expr_arr[idx].partial(a)
                for slot, var in enumerate(variance):
                    i_s = idx[slot]
                    for e in range(d):
                        other = expr_arr[idx[:slot] + (e,) + idx[slot + 1:]]
                        if var == "u":
                            acc = acc + G[i_s, a, e] * other
                        else:
                            acc = acc - G[e, a, i_s] * other
                out[(a,) + idx] = acc
        return out

    dA = nabla(A, "ud")
    dxi = nabla(xi, "u")
    dpsi = nabla(psi, "d")
    dlam = nabla(np.array(lam, dtype=object).reshape(()), "")
    gap = 0.0
    for a in range(d):
        for b in range(d):
            for c in range(d):
                expect = dA[a, b, c] + psi[c] * (1.0 if a == b else 0.0) \
                    + P[a, c] * xi[b]
                gap = max(gap, abs((jets_of(D)[a, 1 + b, 1 + c] - expect).value))
            expect = dxi[a, b] + (lam if a == b else 0.0 * lam) - A[b, a]
            gap = max(gap, abs((jets_of(D)[a, 1 + b, 0] - expect).value))
        for c in range(d):
            acc = dpsi[a, c] + lam * P[a, c]
            for e in range(d):
                acc = acc - P[a, e] * A[e, c]
            gap = max(gap, abs((jets_of(D)[a, 0, 1 + c] - acc).value))
        acc = dlam[a]
        for e in range(d):
            acc = acc - P[a, e] * xi[e]
        acc = acc - psi[a]
        gap = max(gap, abs((jets_of(D)[a, 0, 0] - acc).value))
    assert gap < 1e-10


def test_product_rule(calc3, rng):
    p = one((0.2, -0.15, 0.1))
    s1 = polynomial_tractor_section(calc3, p, 3, rng)
    s2 = polynomial_tractor_section(calc3, p, 3, rng)
    prod = np.empty((4, 4), dtype=object)
    for i in range(4):
        for j in range(4):
            prod[i, j] = jets_of(s1)[i] * jets_of(s2)[j]
    tv = TractorValue(
        batch_of_one(jet_stack(prod, s1.space)), s1.space, "uu", 0, calc3.reference
    )
    D = std_tractor_derivative(calc3, tv, p)
    D1 = std_tractor_derivative(calc3, s1, p)
    D2 = std_tractor_derivative(calc3, s2, p)
    gap = 0.0
    for a in range(3):
        for i in range(4):
            for j in range(4):
                expect = (
                    jets_of(D1)[a, i] * jets_of(s2)[j].truncate(2)
                    + jets_of(s1)[i].truncate(2) * jets_of(D2)[a, j]
                )
                gap = max(gap, abs((jets_of(D)[a, i, j] - expect).value))
    assert gap < 1e-10


def test_l_tau_parallel_for_einstein(calc3, rng):
    # Klein is Einstein: grad P = 0, so L(tau) is parallel everywhere
    p = one((0.2, -0.1, 0.25))
    L = l_tau(calc3, p, 3, calc3.reference)
    D = std_tractor_derivative(calc3, L, p)
    assert max_value(D.data) < 1e-9


def test_derivative_of_l_tau_slot_structure(calc_af2):
    # in every splitting the derivative of L(tau) sits in the injecting
    # slot only; in the Levi-Civita splitting that slot is tau grad_a P_bc
    p = one((0.4, 0.2, -0.3, 0.1))
    d = 4
    pack = calc_af2.levi_civita_splitting.pack
    dP = pack_jets(pack, "schouten_derivative", p, 2)
    tau = Jet(jet_space(d, 2), calc_af2.tau.dense(p, 2)[0])
    for s in (calc_af2.levi_civita_splitting, calc_af2.reference):
        L = l_tau(calc_af2, p, 3, s)
        D = std_tractor_derivative(calc_af2, L, p)
        top = max(abs(jets_of(D)[a, 0, 0].value) for a in range(d))
        mid = max(
            abs(jets_of(D)[a, 0, 1 + b].value)
            for a in range(d) for b in range(d)
        )
        assert max(top, mid) < 1e-9
        if s == calc_af2.levi_civita_splitting:
            gap = max(
                abs((jets_of(D)[a, 1 + b, 1 + c] - tau * dP[a, b, c]).value)
                for a in range(d) for b in range(d) for c in range(d)
            )
            assert gap < 1e-9


def test_einstein_trace_adjusted_schouten_vanishes(calc3, rng):
    # P - S g/(n(n+1)) is identically zero for the hyperbolic ball
    geom = calc3.geom
    pack = calc3.levi_civita_splitting.pack
    p = one(geom.interior_points(1, rng)[0])
    P = pack_jets(pack, "schouten", p, 0)
    S = Jet(jet_space(3, 0), pack.dense("scalar", p, 0)[0])
    g = jet_views(row(geom.metric_field().dense(p, 0)), jet_space(3, 0))
    n = 2
    gap = max(
        abs((P[a, b] - S * g[a, b] * (1.0 / (n * (n + 1)))).value)
        for a in range(3) for b in range(3)
    )
    assert gap < 1e-12


# -- the BGG splitting operator ---------------------------------------------------


def test_bgg_parallel_klein(calc3):
    p = one((0.25, -0.1, 0.3))
    sigma = calc3.metricity_field()
    lifted = bgg_split_metricity(calc3, sigma, calc3.levi_civita_splitting, p, 1)
    top, mid, bot = s2t_slots(lifted)
    assert np.max(np.abs(mid[..., 0])) < 1e-12
    (rho,) = calc3.geom.rho_value(p)
    # bottom slot: g^ij P_ij tau^-1/(n+1) with g^ij P_ij = -(n+1)
    assert bot[0, 0] == pytest.approx(-1.0 / rho, rel=1e-12)


def test_bgg_flat_bottom_slot(flat3):
    calc = TractorCalculus(flat3)
    p = one((0.2, 0.0, 0.1))
    sigma = calc.metricity_field()
    lifted = bgg_split_metricity(calc, sigma, calc.levi_civita_splitting, p, 1)
    top, mid, bot = s2t_slots(lifted)
    assert np.max(np.abs(mid[..., 0])) < 1e-13
    assert abs(bot[0, 0]) < 1e-13


def test_bgg_equivariance(calc_af2):
    p = one((0.4, 0.2, -0.3, 0.1))
    sigma = calc_af2.metricity_field()
    direct = bgg_split_metricity(calc_af2, sigma, calc_af2.reference, p, 1)
    in_lc = bgg_split_metricity(
        calc_af2, sigma, calc_af2.levi_civita_splitting, p, 1
    )
    changed = calc_af2.in_splitting(in_lc, calc_af2.reference, p)
    assert tv_gap(direct, changed) < 1e-10


# -- fiber metric inverse ----------------------------------------------------------


def test_inverse_of_inverse(calc3):
    p = one((0.3, 0.1, -0.2))
    L = l_tau(calc3, p, 2, calc3.reference)
    back = tractor_metric_inverse(tractor_metric_inverse(L))
    assert tv_gap(back, L) < 1e-10


def test_flat_l_tau_degenerate(flat3):
    calc = TractorCalculus(flat3)
    L = l_tau(calc, one((0.3, 0.0, 0.0)), 1)
    with pytest.raises(PoleError):
        tractor_metric_inverse(L)


def test_klein_t_vector_and_psi(calc3, klein3):
    # closed forms: t^a = -x^a/2 and psi = 1
    p = (0.3, -0.2, 0.1)
    L = l_tau(calc3, one(p), 1, calc3.reference)
    inv = tractor_metric_inverse(L)
    top, mid, bot = s2t_slots(inv)
    tau_hat = calc3.tau_hat_dense(one(p), 1)[0, 0]
    for a in range(3):
        t_a = tau_hat * mid[a, 0, 0] * 0.5
        assert t_a == pytest.approx(-p[a] / 2, abs=1e-11)
    assert tau_hat * bot[0, 0] == pytest.approx(1.0, abs=1e-10)


# -- tractor curvature ----------------------------------------------------------------


def test_flat_and_klein_curvature_vanish(flat3, calc3):
    calcf = TractorCalculus(flat3)
    p = one((0.2, 0.1, -0.1))
    assert max_value(curvature_of(calcf.omega(calcf.reference, p, 1), 0)) < 1e-12
    assert max_value(curvature_of(calc3.omega(calc3.reference, p, 1), 0)) < 1e-8
    lc = calc3.levi_civita_splitting
    assert max_value(curvature_of(calc3.omega(lc, p, 1), 0)) < 1e-8


def test_af2_curvature_consistency(calc_af2):
    p = one((0.4, 0.2, -0.3, 0.1))
    for s in (calc_af2.reference, calc_af2.levi_civita_splitting):
        kap = curvature_of(calc_af2.omega(s, p, 1), 0)
        blocks = standard_curvature_blocks(calc_af2, s, p, 0)
        assert np.max(np.abs(kap[..., 0] - blocks[..., 0])) < 1e-7


def test_curvature_by_repeated_derivative(calc_af2, rng):
    # the matrix commutator route coincides with differentiating twice
    p = one((0.4, 0.2, -0.3, 0.1))
    s = polynomial_tractor_section(calc_af2, p, 3, rng)
    Ds = std_tractor_derivative(calc_af2, s, p)
    DDs = std_tractor_derivative(calc_af2, Ds, p)
    kap = jet_views(row(curvature_of(calc_af2.omega(calc_af2.reference, p, 2), 1)),
                    jet_space(4, 1))
    gap = 0.0
    for a in range(4):
        for b in range(4):
            for i in range(5):
                acc = jets_of(DDs)[a, b, i] - jets_of(DDs)[b, a, i]
                kap_s = None
                for j in range(5):
                    term = kap[a, b, i, j] * jets_of(s)[j].truncate(1)
                    kap_s = term if kap_s is None else kap_s + term
                gap = max(gap, abs((acc - kap_s).value))
    assert gap < 1e-9


def test_metric_tractor_connection_properties(calc_af2, rng):
    p = one((0.4, 0.2, -0.3, 0.1))
    omega = metric_tractor_omega(calc_af2, p, 2)
    L = l_tau(calc_af2, p, 3, calc_af2.reference)
    DL = std_tractor_derivative(calc_af2, L, p, omega)
    assert max_value(DL.data) < 1e-10
    kap = curvature_of(omega, 1)
    blocks = metric_tractor_curvature_blocks(calc_af2, p, 1)
    assert np.max(np.abs(kap[..., 0] - blocks[..., 0])) < 1e-12
    views = jet_views(row(kap), jet_space(4, 1))
    torsion = max(
        abs(views[a, b, 1 + c, 0].value)
        for a in range(4) for b in range(4) for c in range(4)
    )
    assert torsion < 1e-13


def test_klein_contorsion_vanishes(calc3, rng):
    # Einstein: grad P = 0 so A = 0 identically
    p = one(calc3.geom.interior_points(1, rng)[0])
    psi = metricity_contorsion(calc3, p, 1)
    assert np.max(np.abs(psi[..., 0])) < 1e-10


# -- dense kernels against the scalar-jet loop formulas ------------------------------


def omega_reference(calc, s, point, order):
    """Connection matrices assembled component by component."""
    d = calc.dim
    conn = s.connection
    space = jet_space(d, order)
    G = conn_jets(conn, point, order)
    P = pack_jets(s.pack, "schouten", point, order)
    tg = jet_views(row(conn.trace_gamma(point, order)), space)
    omega = np.empty((d, d + 1, d + 1), dtype=object)
    for a in range(d):
        gamma_a = tg[a] / (d + 1.0)
        omega[a, 0, 0] = -gamma_a
        for b in range(d):
            omega[a, 0, 1 + b] = -P[a, b]
            omega[a, 1 + b, 0] = space.constant(1.0 if a == b else 0.0)
            for e in range(d):
                val = G[b, a, e]
                if b == e:
                    val = val - gamma_a
                omega[a, 1 + b, 1 + e] = val
    return omega


def change_reference(comps, tvariance, n_form, upsilon, space):
    """The fiber change map S (upper axes) and its inverse transpose T
    (lower axes) contracted axis by axis on object arrays."""
    d = len(upsilon)
    S = np.empty((d + 1, d + 1), dtype=object)
    S[...] = space.constant(0.0)
    T = S.copy()
    S[0, 0] = T[0, 0] = space.constant(1.0)
    for a in range(d):
        S[1 + a, 1 + a] = T[1 + a, 1 + a] = space.constant(1.0)
        S[0, 1 + a] = -upsilon[a]
        T[1 + a, 0] = upsilon[a]
    for k, var in enumerate(tvariance):
        axis = n_form + k
        out = np.tensordot(S if var == "u" else T, comps, axes=([1], [axis]))
        comps = np.moveaxis(out, 0, axis)
    return comps


def curvature_reference(omega, d, order):
    """``d_a Omega_b - d_b Omega_a + [Omega_a, Omega_b]`` from order + 1
    object connection matrices."""
    m = d + 1
    kappa = np.empty((d, d, m, m), dtype=object)
    for a in range(d):
        kappa[a, a] = jet_space(d, order).constant(0.0)
        for b in range(a + 1, d):
            comm = np.tensordot(omega[a], omega[b], axes=([1], [0])) - np.tensordot(
                omega[b], omega[a], axes=([1], [0])
            )
            for i in range(m):
                for j in range(m):
                    block = (omega[b, i, j].partial(a) - omega[a, i, j].partial(b)
                             + comm[i, j])
                    kappa[a, b, i, j] = block
                    kappa[b, a, i, j] = -block
    return kappa


def contorsion_reference(calc, point, order):
    """``A_a^b_c = P^be (D_a P_ec + D_c P_ea - D_e P_ac) / 2``."""
    d = calc.dim
    space = jet_space(d, order)
    pack = calc.levi_civita_splitting.pack
    P = pack_jets(pack, "schouten", point, order)
    dP = pack_jets(pack, "schouten_derivative", point, order)
    Pinv = jet_views(jet_inverse(jet_stack(P, space), space), space)
    A = np.empty((d, d, d), dtype=object)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                acc = space.constant(0.0)
                for e in range(d):
                    acc = acc + Pinv[b, e] * (dP[a, e, c] + dP[c, e, a] - dP[e, a, c])
                A[a, b, c] = acc * 0.5
    return A


def metric_blocks_reference(calc, point, order):
    """The metric-tractor curvature block formula, component by component,
    from the contorsion matrices of the reference splitting."""
    d = calc.dim
    s = calc.reference
    pack = s.pack
    C = pack_jets(pack, "weyl", point, order)
    Y = pack_jets(pack, "cotton", point, order)
    Phat = pack_jets(pack, "schouten", point, order)
    G = conn_jets(s.connection, point, order)
    raw = row(metricity_contorsion(calc, point, order + 1))
    psi_raw = jet_views(raw, jet_space(d, order + 1))
    A = psi_raw[:, 1:, 1:]
    psi = psi_raw[:, 0, 1:]
    dA = np.empty((d, d, d, d), dtype=object)
    dpsi = np.empty((d, d, d), dtype=object)
    for e in range(d):
        for a in range(d):
            for c in range(d):
                acc = psi[a, c].partial(e)
                for f in range(d):
                    acc = acc - G[f, e, a] * psi[f, c] - G[f, e, c] * psi[a, f]
                dpsi[e, a, c] = acc
                for b in range(d):
                    acc = A[a, b, c].partial(e)
                    for f in range(d):
                        acc = acc - G[f, e, a] * A[f, b, c]
                        acc = acc + G[b, e, f] * A[a, f, c]
                        acc = acc - G[f, e, c] * A[a, b, f]
                    dA[e, a, b, c] = acc
    zero = jet_space(d, order).constant(0.0)
    kappa = np.empty((d, d, d + 1, d + 1), dtype=object)
    kappa[...] = zero
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    val = C[a, b, c, e] + dA[a, b, c, e] - dA[b, a, c, e]
                    if c == a:
                        val = val + psi[b, e]
                    if c == b:
                        val = val - psi[a, e]
                    for f in range(d):
                        val = val + A[a, c, f] * A[b, f, e] - A[b, c, f] * A[a, f, e]
                    kappa[a, b, 1 + c, 1 + e] = val
            for e in range(d):
                val = Y[a, b, e] + dpsi[a, b, e] - dpsi[b, a, e]
                for f in range(d):
                    val = val - Phat[f, a] * A[b, f, e] + Phat[f, b] * A[a, f, e]
                    val = val + psi[a, f] * A[b, f, e] - psi[b, f] * A[a, f, e]
                kappa[a, b, 0, 1 + e] = val
    return kappa


def assert_close(dense, reference, space):
    """Every coefficient of the one row of ``dense`` within 1e-12 relative
    to the reference's size."""
    ref = jet_stack(reference, space)
    dense = row(dense)
    assert dense.shape == ref.shape
    assert np.max(np.abs(dense - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("calc_name,point", [
    ("calc_af2", (0.4, 0.2, -0.3, 0.1)),
    ("calc3", (0.2, -0.1, 0.3)),
])
@pytest.mark.parametrize("order", [1, 2])
def test_dense_kernels_match_scalar_jet_reference(calc_name, point, order, request, rng):
    calc = request.getfixturevalue(calc_name)
    d = calc.dim
    space = jet_space(d, order)
    point = one(point)
    for s in (calc.reference, calc.levi_civita_splitting):
        omega = calc.connection_matrices(s, point, order)
        assert_close(omega, omega_reference(calc, s, point, order), space)
        kappa = curvature_of(calc.omega(s, point, order + 1), order)
        ref = curvature_reference(omega_reference(calc, s, point, order + 1), d, order)
        assert_close(kappa, ref, space)

    ups = linear_upsilon(d, rng.uniform(-0.5, 0.5, (d, d + 1)))(point, order)
    kappa = TractorValue(
        curvature_of(calc.omega(calc.reference, point, order + 1), order),
        space, "ud", 2, calc.reference,
    )
    for tv in (
        l_tau(calc, point, order),
        polynomial_tractor_section(calc, point, order, rng),
        kappa,
    ):
        changed = change_splitting(tv, ups)
        ref = change_reference(
            jets_of(tv), tv.tvariance, tv.n_form, jet_views(row(ups), space), space
        )
        assert_close(changed.data, ref, space)

    assert_close(
        contorsion_slots_lc(calc, point, order),
        contorsion_reference(calc, point, order), space,
    )
    assert_close(
        metric_tractor_curvature_blocks(calc, point, order),
        metric_blocks_reference(calc, point, order), space,
    )
