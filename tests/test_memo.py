"""The row memo of a check (``fields.row_memo``): one entry per field and
batch of rows, holding the highest jet order evaluated there, with lower
orders served as its leading coefficients.

The slicing is sound because a fresh order-k evaluation of every quantity
the memos hold equals the order-(k+1) one truncated, bit for bit up to the
sign of a zero; the tests below check that on the whole catalog, then what
the memos serve, that they serve read-only arrays, and how long they live.
"""

import dataclasses

import numpy as np
import pytest

from tractorlab import expr as ex
from tractorlab.affine import Connection, CurvaturePack, rho_one_form
from tractorlab.fields import Chart, TensorField, builtin_geometry, row_memo
from tractorlab.jets import jet_space
from tractorlab.tractor import TractorCalculus, bgg_split_metricity, contorsion_slots_lc

CATALOG = (
    ("klein", 3), ("klein", 4), ("klein", 5), ("af2_generic", 4),
    ("af2_generic", 5), ("af1_generic", 4), ("flat", 3), ("poincare_control", 3),
)


def _pack(splitting, name):
    return lambda calc, pts, k: getattr(calc, splitting).pack.dense(name, pts, k)


#: Each quantity a memo holds, as ``f(calc, points, order)``.
QUANTITIES = {
    "metric": lambda calc, pts, k: calc.metric.dense(pts, k),
    "levi_civita": lambda calc, pts, k: calc.levi_civita_splitting.connection.dense(pts, k),
    "hat": lambda calc, pts, k: calc.hat.dense(pts, k),
    "tau": lambda calc, pts, k: calc.tau.dense(pts, k),
    "metricity": lambda calc, pts, k: calc.metricity_field().dense(pts, k),
    "rho_one_form": lambda calc, pts, k: rho_one_form(calc.geom).dense(pts, k),
    **{f"{label}.{name}": _pack(splitting, name)
       for label, splitting in (("levi_civita", "levi_civita_splitting"), ("hat", "reference"))
       for name in ("riemann", "ricci", "schouten", "schouten_derivative")},
}


@pytest.mark.parametrize("name, dim", CATALOG, ids=[f"{n}-{d}" for n, d in CATALOG])
def test_a_fresh_lower_order_is_the_higher_order_truncated(name, dim):
    geom = builtin_geometry(name, dim)
    pts = geom.interior_points(2, np.random.default_rng(7))
    for label, quantity in QUANTITIES.items():
        # each order from a calculus of its own, so no memo serves it
        jets = [quantity(TractorCalculus(geom), pts, k) for k in range(4)]
        for k in range(3):
            low, high = jets[k], jets[k + 1][..., : jets[k].shape[-1]]
            assert low.shape[-1] == jet_space(dim, k).ncoeff
            np.testing.assert_array_equal(low, high, err_msg=f"{label} at order {k}")
            # bitwise once -0.0 reads +0.0: truncation keeps every other bit
            assert (low + 0.0).tobytes() == (high + 0.0).tobytes(), f"{label} at order {k}"


# -- what a memo serves ----------------------------------------------------------

CHART = Chart(("x", "y"))


def _counting(head):
    """An evaluator of ``head``-shaped jets at a batch of points that records
    its calls ``(rows, order)``; its coefficients differ between orders, so
    a test sees which evaluation served a request."""
    calls = []

    def evaluator(points, order):
        calls.append((len(points), order))
        shape = head + (len(points), jet_space(CHART.dim, order).ncoeff)
        return np.arange(np.prod(shape), dtype=float).reshape(shape) + 1000.0 * order

    return evaluator, calls


class _Pack(CurvaturePack):
    """A curvature pack with one counting tensor, ``fake``."""

    def __init__(self):
        super().__init__(Connection(CHART, _counting((2, 2, 2))[0]))
        self._build_fake, self.calls = _counting((2, 2))


def _field():
    evaluator, calls = _counting((2,))
    return TensorField(CHART, "d", evaluator).dense, calls


def _connection():
    evaluator, calls = _counting((2, 2, 2))
    return Connection(CHART, evaluator).dense, calls


def _curvature_pack():
    pack = _Pack()
    return (lambda points, order: pack.dense("fake", points, order)), pack.calls


OWNERS = {"TensorField": _field, "Connection": _connection, "CurvaturePack": _curvature_pack}


@pytest.mark.parametrize("owner", OWNERS)
def test_lower_orders_are_served_by_truncation_and_higher_ones_replace(owner):
    dense, calls = OWNERS[owner]()
    pts = np.array([[0.1, 0.2], [0.3, -0.4], [0.5, 0.6]])
    top = dense(pts, 2)
    assert calls == [(3, 2)]
    for k in (1, 0, 2):
        got = dense(pts.copy(), k)  # the same rows in another array
        np.testing.assert_array_equal(got, top[..., : jet_space(2, k).ncoeff])
    assert calls == [(3, 2)]
    higher = dense(pts, 3)
    assert calls == [(3, 2), (3, 3)]
    assert np.all(higher[..., 0] >= 3000.0)  # the order-3 evaluation
    np.testing.assert_array_equal(dense(pts, 1), higher[..., :3])
    assert calls == [(3, 2), (3, 3)]
    dense(pts[::-1], 1)  # the same rows in another order: another key
    dense(pts[:2], 0)  # a prefix of the rows: another key
    assert calls == [(3, 2), (3, 3), (3, 1), (2, 0)]


@pytest.mark.parametrize("owner", OWNERS)
def test_served_arrays_are_read_only(owner):
    dense, _ = OWNERS[owner]()
    pts = np.array([[0.1, 0.2]])
    for k in (2, 1, 0):
        out = dense(pts, k)
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[..., 0] = 1.0


def test_a_calculus_serves_read_only_arrays(klein3):
    calc = TractorCalculus(klein3)
    pts = klein3.interior_points(2, np.random.default_rng(1))
    for quantity in QUANTITIES.values():
        for k in (2, 1):
            assert not quantity(calc, pts, k).flags.writeable


def test_row_memo_keeps_one_entry_per_batch_of_rows():
    evaluator, calls = _counting(())
    memo: dict = {}
    pts = np.array([[0.1, 0.2]])
    for k in (0, 2, 1, 3, 0):
        assert row_memo(memo, pts, k, evaluator).shape == (1, jet_space(2, k).ncoeff)
    assert calls == [(1, 0), (1, 2), (1, 3)]
    assert len(memo) == 1
    assert next(iter(memo.values())).shape[-1] == jet_space(2, 3).ncoeff


def _count_evaluations(monkeypatch, owner, attribute):
    """Record the ``(rows, order)`` of each evaluation behind ``owner``'s
    memo, whose evaluator is its attribute ``attribute``."""
    real, calls = getattr(owner, attribute), []

    def counted(points, order):
        calls.append((len(points), order))
        return real(points, order)

    monkeypatch.setattr(owner, attribute, counted)
    return calls


def test_the_calculus_asks_for_the_highest_order_first(af2, monkeypatch):
    # each lower-order request is served by the memo's higher-order entry,
    # so each quantity is evaluated once per batch of rows
    pts = af2.interior_points(3, np.random.default_rng(4))
    calc = TractorCalculus(af2)
    calls = _count_evaluations(monkeypatch, calc.reference.connection, "_evaluator")
    calc.omega(calc.reference, pts, 1)
    assert calls == [(3, 2)]  # the Schouten tensor's order, then G's served

    calc = TractorCalculus(af2)
    pack = calc.levi_civita_splitting.pack
    calls = _count_evaluations(monkeypatch, pack, "_build_schouten")
    contorsion_slots_lc(calc, pts, 1)
    assert calls == [(3, 2)]  # the derivative's Schouten, then Pinv's served

    calc = TractorCalculus(af2)
    sigma = calc.metricity_field()
    calls = _count_evaluations(monkeypatch, sigma, "_checked")
    bgg_split_metricity(calc, sigma, calc.reference, pts, 1)
    assert calls == [(3, 3)]  # the second derivative's sigma, then sigma's served


# -- how long a memo lives --------------------------------------------------------


def test_a_new_calculus_starts_with_empty_memos(klein3):
    pts = klein3.interior_points(2, np.random.default_rng(2))
    first = TractorCalculus(klein3)
    for quantity in QUANTITIES.values():
        quantity(first, pts, 1)
    assert first.metric._memo and first.hat._memo and first.reference.pack._memo
    second = TractorCalculus(klein3)
    assert second.metric is not first.metric
    memos = [
        second.metric._memo, second.tau._memo, second.hat._memo,
        second.metricity_field()._memo,
        second.levi_civita_splitting.connection._memo,
        second.levi_civita_splitting.upsilon._memo,
        second.levi_civita_splitting.pack._memo, second.reference.pack._memo,
    ]
    assert not any(memos)
    # nothing evaluated is kept on the geometry
    assert not klein3.metric_field()._memo
    assert not klein3._metric._memo


def test_metric_fields_share_one_compile(monkeypatch):
    geom = dataclasses.replace(builtin_geometry("klein", 3))  # nothing compiled yet
    compiles = []
    real = ex.compile_tape
    monkeypatch.setattr(ex, "compile_tape", lambda *a, **kw: compiles.append(1) or real(*a, **kw))
    a, b = geom.metric_field(), geom.metric_field()
    assert compiles == [1]
    assert a is not b
    assert a.tape is b.tape and a.read_rows is b.read_rows
    pts = geom.interior_points(2, np.random.default_rng(3))
    a.dense(pts, 1)
    assert a._memo and not b._memo
    np.testing.assert_array_equal(a.dense(pts, 1), b.dense(pts, 1))
