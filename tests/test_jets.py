import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jet_reference import (
    check_pivots,
    jet_apply,
    jet_constant,
    jet_det,
    jet_partial,
    jet_stack,
    jet_values,
    jet_variable,
    jet_views,
    point_jets,
)
from tractorlab import jets
from tractorlab.jets import (
    DomainError,
    PoleError,
    jet_determinant,
    jet_einsum,
    jet_gradient,
    jet_inverse,
    jet_mul,
    jet_space,
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
    xs = point_jets(space, rng.uniform(-0.5, 0.5, space.dim))
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


def _table_mul(a, b, space):
    """The jet product through the coefficient tables."""
    ii, jj, _ = space.mul_table
    return np.add.reduceat(a[..., ii] * b[..., jj], space.mul_starts, axis=-1)


def _table_einsum(spec, a, b, space):
    """``jet_einsum`` through the coefficient tables, with its row loop."""
    operands, out = spec.split("->")
    sa, sb = operands.split(",")
    dot = not out or (sa[-1:] == sb[-1:] and sa[-1:] not in out)
    if dot and a.ndim == len(sa) + 2 and b.ndim == len(sb) + 2:
        return np.stack([
            _table_einsum(spec, a[..., k, :], b[..., k, :], space)
            for k in range(a.shape[-2])
        ], axis=-2)
    ii, jj, _ = space.mul_table
    prod = np.einsum(f"{sa}...Z,{sb}...Z->{out}...Z", a[..., ii], b[..., jj])
    return np.add.reduceat(prod, space.mul_starts, axis=-1)


def _same_bits(got, want):
    """Equal bits, and equal memory order (the strides of the axes longer
    than 1), which sets the order in which a later einsum sums."""
    def order(x):
        return [stride for stride, n in zip(x.strides, x.shape) if n > 1]

    return got.shape == want.shape and got.tobytes() == want.tobytes() and order(got) == order(want)


@pytest.mark.parametrize("dim", [1, 3])
def test_order_zero_products_equal_the_table_formula_bit_for_bit(dim):
    # at order 0 the table pairs the value columns alone; operands that
    # carry a higher order's coefficients are truncated to their values, and
    # strided or transposed views give what the table's gathers give
    space = jet_space(dim, 0)
    rng = np.random.default_rng(dim)
    for order in (0, 1, 2):
        width = jet_space(dim, order).ncoeff
        a = rng.normal(size=(3, 3, 3, width)) * np.exp(rng.uniform(-20, 20, size=(3, 3, 3, 1)))
        b = rng.normal(size=(3, 3, 3, width))
        a[0, 0, 0, 0] = -0.0
        xs = [a, a[::-1], a[:, :, ::-1], a.transpose(1, 0, 2, 3), a.transpose(2, 1, 0, 3)]
        for x, y in itertools.product(xs, [b, b[:, ::-1], b.transpose(1, 0, 2, 3)]):
            assert _same_bits(jet_mul(x, y, space), _table_mul(x, y, space))
            assert _same_bits(jet_mul(x[0, 0], y, space), _table_mul(x[0, 0], y, space))
            for spec in ("ij,jk->ik", "ij,jk->ijk", "ij,ij->", "ij,kj->ik", "ij,ji->i",
                         "ij,kl->ijkl"):
                got = jet_einsum(spec, x, y, space)
                assert _same_bits(got, _table_einsum(spec, x, y, space)), spec


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


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_dense_determinant_matches_scalar_lu(order):
    rng = np.random.default_rng(40 + order)
    s = jet_space(3, order)
    mats = [_random_jets(s, (4, 4), rng) for _ in range(3)]
    batch = jet_determinant(np.stack([jet_stack(m, s) for m in mats], axis=2), s)
    assert batch.shape == (3, s.ncoeff)
    for b, m in enumerate(mats):
        ref = jet_det(m).coeffs
        single = jet_determinant(jet_stack(m, s), s)
        assert single.shape == (s.ncoeff,)
        assert np.max(np.abs(single - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))
        assert np.array_equal(batch[b], single)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_dense_determinant_of_singular_matrix_is_zero(order):
    # a row that is twice another row as jets: singular at every order
    rng = np.random.default_rng(50 + order)
    s = jet_space(2, order)
    regular = _random_jets(s, (3, 3), rng)
    singular = regular.copy()
    singular[2] = singular[0] * 2.0
    assert not jet_det(singular).coeffs.any()
    assert not jet_determinant(jet_stack(singular, s), s).any()
    pair = np.stack([jet_stack(regular, s), jet_stack(singular, s)], axis=2)
    both = jet_determinant(pair, s)
    assert np.array_equal(both[0], jet_determinant(jet_stack(regular, s), s))
    assert not both[1].any()


# -- the pivot gate of jet_inverse ------------------------------------------


def _orthogonal(m, rng):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def _jet_batch(values, space, rng):
    """Dense ``(m, m, B, ncoeff)`` jets with the given value matrices
    ``(B, m, m)`` and random higher coefficients."""
    values = np.asarray(values, dtype=float)
    dense = rng.standard_normal(values.shape[1:] + values.shape[:1] + (space.ncoeff,))
    dense[..., 0] = values.transpose(1, 2, 0)
    return dense


def _raises_pole(fn):
    try:
        fn()
    except PoleError:
        return True
    return False


def _last_pivot(a):
    """``|u_mm| / max|A|`` of partial-pivot elimination of ``a``."""
    u = np.array(a, dtype=float)
    m = len(u)
    for col in range(m - 1):
        piv = col + int(np.abs(u[col:, col]).argmax())
        u[[col, piv]] = u[[piv, col]]
        u[col + 1:] -= np.outer(u[col + 1:, col] / u[col, col], u[col])
    return abs(u[-1, -1]) / np.abs(a).max()


def _nearly_singular(m, rng, factor=0.5):
    """``Q1 diag(1, ..., 1, delta) Q2`` whose last pivot is ``factor`` times
    the pole tolerance relative to its largest entry (the pivot is linear
    in ``delta``)."""
    q1, q2 = _orthogonal(m, rng), _orthogonal(m, rng)

    def mixed(delta):
        return q1 @ np.diag([1.0] * (m - 1) + [delta]) @ q2

    per_delta = _last_pivot(mixed(1e-3)) / 1e-3
    return mixed(factor * jets.POLE_TOL / per_delta)


def _singular(a0):
    """Whether some value matrix of ``a0`` (``(m, m)`` or ``(m, m, B)``) is
    singular by the exact test the gated inverse falls back on."""
    return bool(jets._pivoted_elimination(a0[..., None], jet_space(1, 0))[1].any())


def _count_exact_runs(monkeypatch):
    calls = []
    real = jets._pivoted_elimination

    def counted(dense, space):
        calls.append(dense.shape)
        return real(dense, space)

    monkeypatch.setattr(jets, "_pivoted_elimination", counted)
    return calls


@pytest.mark.parametrize("order", [0, 1, 2])
def test_singular_and_nearly_singular_matrices_in_a_batch_raise(order):
    rng = np.random.default_rng(60 + order)
    s = jet_space(2, order)
    regular = _orthogonal(3, rng) @ np.diag([3.0, 1.0, 0.5]) @ _orthogonal(3, rng)
    singular = regular.copy()
    singular[2] = singular[0] * 2.0
    nearly = _nearly_singular(3, rng, factor=0.9)
    # the pivot sits just under the tolerance: just over it, none raises
    assert _singular(nearly)
    assert not _singular(_nearly_singular(3, rng, 1.1))
    assert not _singular(regular)
    for mats in ([singular, nearly, regular], [regular, nearly], [singular, regular]):
        with pytest.raises(PoleError, match="singular jet matrix"):
            jet_inverse(_jet_batch(mats, s, rng), s)
    for one in (singular, nearly):
        with pytest.raises(PoleError):
            jet_inverse(_jet_batch([one], s, rng)[:, :, 0], s)
    dense = _jet_batch([regular, regular.T], s, rng)
    inv = jet_inverse(dense, s)
    eye = jet_einsum("ij,jk->ik", dense, inv, s)
    assert np.allclose(eye[..., 0], np.eye(3)[..., None], atol=1e-13)


def test_a_well_conditioned_batch_skips_the_exact_pivot_loop(monkeypatch):
    calls = _count_exact_runs(monkeypatch)
    rng = np.random.default_rng(70)
    s = jet_space(3, 1)
    mats = [_orthogonal(4, rng) @ np.diag([1e3, 1.0, 1e-3, 1e-4]) for _ in range(5)]
    jet_inverse(_jet_batch(mats, s, rng), s)
    assert calls == []


# the elimination runs through every column, so an infinite entry meets a
# zero multiplier (inf * 0 = nan, flagged singular all the same)
@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_nan_or_inf_entry_takes_the_exact_path(monkeypatch, bad):
    calls = _count_exact_runs(monkeypatch)
    rng = np.random.default_rng(71)
    s = jet_space(2, 1)
    mats = np.stack([np.eye(3) * 2.0, np.eye(3) * 3.0])
    mats[1, 0, 2] = bad
    dense = _jet_batch(mats, s, rng)
    expect_pole = _singular(dense[..., 0])
    calls.clear()
    try:
        jet_inverse(dense, s)
        raised = None
    except (PoleError, np.linalg.LinAlgError) as err:
        raised = type(err)
    assert calls, "the gate skipped the exact loop on a non-finite matrix"
    assert (raised is PoleError) == expect_pole


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-2.0, max_value=8.0),
    st.floats(min_value=-6.0, max_value=6.0),
)
def test_the_gated_inverse_raises_exactly_when_the_pivot_loop_does(m, seed, log_factor, log_scale):
    # the smallest singular direction sits at 10^log_factor times the pole
    # tolerance, from well under it to past the gate's margin
    rng = np.random.default_rng(seed)
    s = jet_space(2, 1)
    a = _nearly_singular(m, rng, factor=10.0**log_factor) * 10.0**log_scale
    mats = np.stack([a, _orthogonal(m, rng)])
    dense = _jet_batch(mats, s, rng)
    exact = _singular(dense[..., 0])
    try:
        gated = _raises_pole(lambda: jet_inverse(dense, s))
    except np.linalg.LinAlgError:
        gated = False
    assert gated == exact


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_the_elimination_finds_the_singular_matrices_the_pivot_loop_does(m, count, seed):
    # regular, exactly singular, nearly singular (the last pivot from 1e-3
    # to 1e3 times the tolerance) and zero-row matrices, at scales 1e-6 to
    # 1e6: the determinant's elimination, which the gated inverse runs on
    # the values, flags each matrix exactly when the reference loop raises
    rng = np.random.default_rng(seed)
    mats = []
    for kind in rng.integers(4, size=count):
        a = rng.standard_normal((m, m))
        if kind == 0:
            a = _orthogonal(m, rng) @ np.diag(rng.uniform(0.5, 2.0, m)) @ _orthogonal(m, rng)
        elif kind == 1:
            a[-1] = a[0] * rng.uniform(-2.0, 2.0)
        elif kind == 2:
            a = _nearly_singular(m, rng, factor=10.0 ** rng.uniform(-3.0, 3.0))
        else:
            a[rng.integers(m)] = 0.0
        mats.append(a * 10.0 ** rng.uniform(-6.0, 6.0))
    a0 = np.stack(mats, axis=-1)
    singular = jets._pivoted_elimination(a0[..., None], jet_space(m, 0))[1]
    assert singular.tolist() == [
        _raises_pole(lambda k=k: check_pivots(a0[..., k])) for k in range(count)
    ]


# -- the pole gate of jet_reciprocal ----------------------------------------


def _ungated_reciprocal(dense, space):
    """``jet_reciprocal`` with its exact pole test run on every call."""
    a0 = dense[..., 0]
    mag = np.abs(dense)
    scale = mag.max(axis=-1)
    if space.order >= 1:
        grad = mag[..., 1 : 1 + space.dim].max(axis=-1)
        scale = np.where(grad > 0.0, grad, scale)
    pole = (mag[..., 0] <= jets.POLE_TOL * scale) | (scale == 0.0)
    if pole.any():
        raise PoleError(
            f"reciprocal of a jet with vanishing value ({a0[pole].flat[0]:.3e}); "
            "this usually means evaluation at a boundary pole"
        )
    signs, powers = space.reciprocal_terms
    return jets.jet_compose(dense, signs / a0[..., None] ** powers, space)


def _outcome(fn):
    try:
        return fn()
    except PoleError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-3.0, max_value=3.0),
    st.booleans(),
    st.sampled_from([None, 0.0, math.nan, math.inf, -math.inf]),
)
def test_the_gated_reciprocal_raises_and_computes_as_the_exact_test(
    order, dim, rows, seed, log_factor, flat, special
):
    # the first jet's value sits at 10^log_factor times the pole tolerance
    # of its largest other coefficient, from under the gate's bound to over
    # it; a flat gradient makes the exact test fall back to the full scale
    rng = np.random.default_rng(seed)
    s = jet_space(dim, order)
    dense = rng.standard_normal((rows, s.ncoeff)) * 10.0 ** rng.uniform(-6, 6, (rows, 1))
    if flat:
        dense[:, 1 : 1 + dim] = 0.0
    others = np.abs(dense[0, 1:]).max() if s.ncoeff > 1 else 1.0
    dense[0, 0] = rng.choice([-1.0, 1.0]) * 10.0**log_factor * jets.POLE_TOL * others
    if special is not None:
        dense[rng.integers(rows), rng.integers(s.ncoeff)] = special
    with np.errstate(all="ignore"):
        want = _outcome(lambda: _ungated_reciprocal(dense, s))
        got = _outcome(lambda: jets.jet_reciprocal(dense, s))
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str)
        assert np.array_equal(got, want, equal_nan=True)


def test_a_regular_batch_skips_the_exact_pole_test(monkeypatch):
    calls = []
    real = jets._check_poles
    monkeypatch.setattr(jets, "_check_poles", lambda d, s: calls.append(1) or real(d, s))
    s = jet_space(2, 1)
    dense = np.array([[2.0, 1.0, -1.0], [1e-3, 5.0, 0.0]])
    out = jets.jet_reciprocal(dense, s)
    assert calls == []
    assert np.array_equal(out, _ungated_reciprocal(dense, s))
    dense[1, 0] = 1e-15
    with pytest.raises(PoleError, match="vanishing value"):
        jets.jet_reciprocal(dense, s)
    assert calls == [1]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_nan_or_inf_coefficient_still_meets_the_pole_test(bad):
    # the value vanishes against the gradient; the bad coefficient sits in
    # the second order, outside the gradient the exact test compares with
    s = jet_space(2, 2)
    dense = np.array([[2.0, 1.0, 0.0, 0.0, 0.0, 0.0], [1e-20, 1.0, 0.0, bad, 0.0, 0.0]])
    with pytest.raises(PoleError, match="vanishing value"):
        jets.jet_reciprocal(dense, s)
