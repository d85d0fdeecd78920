import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractorlab.jets import (
    DomainError,
    PoleError,
    jet_apply,
    jet_constant,
    jet_det,
    jet_einsum,
    jet_gradient,
    jet_inverse,
    jet_mul,
    jet_partial,
    jet_space,
    jet_stack,
    jet_values,
    jet_variable,
    jet_views,
)


def test_variable_basics():
    j = jet_variable(0, 2.0, dim=2, order=2)
    assert j.value == 2.0
    assert j.coefficient((1, 0)) == 1.0
    assert j.coefficient((0, 1)) == 0.0
    assert j.coefficient((2, 0)) == 0.0

    j1 = jet_variable(1, 0.0, dim=2, order=1)
    assert j1.value == 0.0
    assert j1.coefficient((0, 1)) == 1.0

    with pytest.raises(IndexError):
        jet_variable(3, 0.0, dim=2, order=2)


def test_polynomial_arithmetic():
    s = jet_space(2, 2)
    x = s.variable(0, 0.0)
    f = (1 + x) * (1 - x)
    assert f.coefficient((0, 0)) == 1.0
    assert f.coefficient((2, 0)) == -1.0
    assert f.coefficient((1, 0)) == 0.0


def test_reciprocal_series():
    s = jet_space(1, 3)
    x = s.variable(0, 0.0)
    g = s.constant(1.0) / (1 - x)
    assert np.allclose(g.coeffs, [1.0, 1.0, 1.0, 1.0])


def test_division_pole():
    s = jet_space(2, 2)
    x = s.variable(0, 0.0)
    with pytest.raises(PoleError):
        1.0 / x


def test_exp_series():
    s = jet_space(1, 3)
    x = s.variable(0, 0.0)
    e = jet_apply("exp", x)
    assert np.allclose(e.coeffs, [1.0, 1.0, 0.5, 1 / 6])


def test_sqrt_series():
    s = jet_space(1, 2)
    x = s.variable(0, 0.0)
    r = jet_apply("sqrt", 1 + x)
    assert np.allclose(r.coeffs, [1.0, 0.5, -0.125])


def test_log_domain_error():
    s = jet_space(1, 2)
    x = s.variable(0, 0.0)
    with pytest.raises(DomainError):
        jet_apply("log", x)


def test_partial_of_monomial():
    s = jet_space(2, 3)
    x, y = s.variable(0, 0.0), s.variable(1, 0.0)
    f = x * x * y
    fx = jet_partial(f, 0)
    assert fx.order == 2
    assert fx.coefficient((1, 1)) == 2.0
    assert max(abs(c) for c in (f.partial(1).coeffs - (x * x).truncate(2).coeffs)) == 0

    zero = jet_partial(s.constant(5.0), 1)
    assert not zero.coeffs.any()


def test_second_partial_value():
    s = jet_space(1, 2)
    x = s.variable(0, 0.7)
    f = x * x
    assert jet_partial(jet_partial(f, 0), 0).value == pytest.approx(2.0, abs=1e-14)


def test_mixed_order_arguments_truncate():
    s = jet_space(2, 3)
    x = s.variable(0, 0.3)
    lower = x.truncate(1)
    prod = x * lower
    assert prod.order == 1
    assert prod.value == pytest.approx(0.09)


def test_trig_and_atan_values():
    s = jet_space(1, 4)
    x = s.variable(0, 0.37)
    t = jet_apply("tan", x)
    assert t.value == pytest.approx(math.tan(0.37), abs=1e-15)
    assert t.partial(0).value == pytest.approx(1 / math.cos(0.37) ** 2, rel=1e-12)
    a = jet_apply("atan", x)
    assert a.value == pytest.approx(math.atan(0.37), abs=1e-15)
    assert a.partial(0).value == pytest.approx(1 / (1 + 0.37**2), rel=1e-12)


def test_integer_powers_at_zero():
    s = jet_space(1, 4)
    x = s.variable(0, 0.0)
    p = x**3
    assert p.coefficient((3,)) == 1.0
    assert p.coefficient((0,)) == 0.0


def test_matrix_inverse_roundtrip():
    s = jet_space(2, 2)
    x, y = s.variable(0, 0.1), s.variable(1, -0.2)
    m = np.empty((2, 2), dtype=object)
    m[0, 0] = 2 + x
    m[0, 1] = y
    m[1, 0] = x * y
    m[1, 1] = 3 - y
    inv = jet_views(jet_inverse(jet_stack(m, s), s), s)
    back = jet_inverse(jet_stack(inv, s), s)
    assert np.max(np.abs(back - jet_stack(m, s))) < 1e-12
    det = jet_det(m)
    prod = inv[0, 0] * m[0, 0] + inv[0, 1] * m[1, 0]
    assert abs(prod.value - 1.0) < 1e-14
    assert det.value == pytest.approx((2.1 * 3.2 - (-0.2) * (0.1 * -0.2)), rel=1e-12)


def test_singular_matrix_raises():
    s = jet_space(1, 1)
    zero = s.constant(0.0)
    m = np.empty((2, 2), dtype=object)
    m[...] = zero
    with pytest.raises(PoleError):
        jet_inverse(jet_stack(m, s), s)


coef = st.floats(min_value=-3, max_value=3, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(st.lists(coef, min_size=6, max_size=6),
       st.lists(coef, min_size=6, max_size=6),
       st.lists(coef, min_size=6, max_size=6))
def test_ring_distributivity_exact(ca, cb, cc):
    s = jet_space(2, 2)

    def make(c):
        x, y = s.variable(0, 0.5), s.variable(1, -0.25)
        return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

    a, b, c = make(ca), make(cb), make(cc)
    lhs = (a + b) * c
    rhs = a * c + b * c
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12 * (
        1 + np.max(np.abs(rhs.coeffs))
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(coef, min_size=6, max_size=6),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2))
def test_partials_commute(c, i, j):
    s = jet_space(3, 4)
    xs = [s.variable(k, 0.2 * k - 0.1) for k in range(3)]
    f = c[0] + c[1] * xs[0] * xs[1] + c[2] * xs[2] ** 2 + c[3] * xs[0] ** 3 \
        + c[4] * xs[1] * xs[2] + c[5] * xs[0] * xs[1] * xs[2]
    ab = f.partial(i).partial(j)
    ba = f.partial(j).partial(i)
    assert np.max(np.abs(ab.coeffs - ba.coeffs)) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.2, max_value=4.0),
       st.lists(coef, min_size=3, max_size=3))
def test_exp_log_roundtrip(a0, c):
    s = jet_space(2, 4)
    x, y = s.variable(0, 0.0), s.variable(1, 0.0)
    a = a0 + 0.1 * c[0] * x + 0.1 * c[1] * y + 0.05 * c[2] * x * y
    back = jet_apply("exp", jet_apply("log", a))
    assert np.max(np.abs(back.coeffs - a.coeffs)) < 1e-12 * (1 + a0)


def test_graded_lex_order_is_documented_layout():
    s = jet_space(2, 2)
    assert s.multis == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    # truncation keeps leading coefficients
    j = jet_constant(1.0, 2, 2)
    assert j.truncate(1).coeffs.shape == (3,)


def test_coefficient_count_is_binomial():
    for dim, order in ((2, 2), (3, 4), (4, 6)):
        assert jet_space(dim, order).ncoeff == math.comb(dim + order, order)


def _random_jets(space, shape, rng):
    xs = space.point(rng.uniform(-0.5, 0.5, space.dim))
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        v = space.constant(float(rng.normal()))
        for i in range(space.dim):
            v = v + float(rng.normal()) * xs[i] * (1 + float(rng.normal()) * xs[-1 - i])
        out[idx] = v
    return out


def test_dense_kernel_matches_scalar_jets():
    # reference: the same contractions with scalar Jet arithmetic in loops
    rng = np.random.default_rng(3)
    s = jet_space(3, 2)
    a = _random_jets(s, (3, 2), rng)
    b = _random_jets(s, (2, 3), rng)
    prod = jet_views(jet_einsum("ij,jk->ik", jet_stack(a, s), jet_stack(b, s), s), s)
    elem = jet_views(jet_mul(jet_stack(a, s), jet_stack(b.T, s), s), s)
    grad = jet_views(jet_gradient(jet_stack(a, s), s), jet_space(3, 1))
    for i in range(3):
        for k in range(3):
            ref = a[i, 0] * b[0, k] + a[i, 1] * b[1, k]
            assert np.max(np.abs(prod[i, k].coeffs - ref.coeffs)) < 1e-13
        for j in range(2):
            ref = a[i, j] * b[j, i]
            assert np.max(np.abs(elem[i, j].coeffs - ref.coeffs)) < 1e-13
            for e in range(3):
                assert np.array_equal(grad[e, i, j].coeffs, a[i, j].partial(e).coeffs)
    assert np.array_equal(jet_values(a), [[j.value for j in row] for row in a])


def test_dense_inverse_is_exact_through_the_order():
    rng = np.random.default_rng(4)
    s = jet_space(2, 3)
    m = _random_jets(s, (3, 3), rng)
    for i in range(3):
        m[i, i] = m[i, i] + 4.0
    inv = jet_inverse(jet_stack(m, s), s)
    eye = jet_einsum("ij,jk->ik", jet_stack(m, s), inv, s)
    expected = np.zeros((3, 3, s.ncoeff))
    expected[..., 0] = np.eye(3)
    assert np.max(np.abs(eye - expected)) < 1e-13
