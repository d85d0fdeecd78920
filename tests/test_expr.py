import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import one
from expr_reference import evaluate
from jet_reference import jet_call, point_jets
from tractorlab import boundary as bd
from tractorlab import expr as ex
from tractorlab.fields import builtin_geometry
from tractorlab.jets import DomainError, PoleError, jet_space
from tractorlab.tractor import TractorCalculus


def test_basic_ast_shape():
    e = ex.parse_expr("1 - x^2 - y^2")
    assert e == ex.Sub(
        ex.Sub(ex.Num(1.0), ex.Pow(ex.Var("x"), 2.0)),
        ex.Pow(ex.Var("y"), 2.0),
    )


def test_function_call_and_division():
    e = ex.parse_expr("exp(2*r)/ (1-r)")
    assert isinstance(e, ex.Div)
    assert isinstance(e.left, ex.Call) and e.left.func == "exp"


def test_unknown_function():
    with pytest.raises(ex.ExprError) as err:
        ex.parse_expr("foo(x)")
    assert "foo" in str(err.value)


def test_arity_mismatch():
    with pytest.raises(ex.ExprError) as err:
        ex.parse_expr("exp(x, y)")
    assert "argument" in str(err.value)


def test_unknown_variable_with_declaration():
    with pytest.raises(ex.ExprError):
        ex.parse_expr("x + z", variables=("x", "y"))


def test_syntax_error_offset():
    with pytest.raises(ex.ExprError) as err:
        ex.parse_expr("1 + * 2")
    assert err.value.offset == 4


def test_precedence():
    env = {"x": 3.0}
    assert evaluate(ex.parse_expr("-x^2"), env) == -9.0
    assert evaluate(ex.parse_expr("2*x + 1"), env) == 7.0
    assert evaluate(ex.parse_expr("1 - 2 - 3"), env) == -4.0
    assert evaluate(ex.parse_expr("12/2/3"), env) == 2.0
    assert evaluate(ex.parse_expr("pi"), env) == math.pi
    assert evaluate(ex.parse_expr("2e-2 + 1.5"), env) == 1.52


def test_evaluate_calls_math_functions_by_default():
    env = {"x": 0.3}
    for name in ex.FUNCTION_NAMES:
        got = evaluate(ex.parse_expr(f"{name}(x + 1)"), env)
        assert got == getattr(math, name)(1.3)


def test_negative_literal_folding():
    assert ex.parse_expr("-2.5") == ex.Num(-2.5)
    assert ex.parse_expr("-2*x") == ex.Mul(ex.Num(-2.0), ex.Var("x"))


def _nodes(e):
    """Every node object under ``e``, by id."""
    found, stack = {}, [e]
    while stack:
        node = stack.pop()
        if id(node) not in found:
            found[id(node)] = node
            stack.extend(ex._children(node))
    return found


def test_equal_subtrees_are_one_node_within_a_parse_call():
    a, b = ex.parse_exprs(["x*(y + 1) + exp(y + 1)", "(y + 1)^2 - x*(y + 1)"], ("x", "y"))
    assert a.left is b.right  # x*(y + 1)
    assert a.left.right is a.right.arg is b.left.base  # y + 1
    # x, y, 1, y + 1, x*(y + 1), exp(y + 1), a, (y + 1)^2, b
    assert len(_nodes(a) | _nodes(b)) == 9
    # each call has its own table: a second parse shares nothing with the first
    again = ex.parse_exprs(["x*(y + 1) + exp(y + 1)"], ("x", "y"))[0]
    alone = ex.parse_expr("x*(y + 1) + exp(y + 1)")
    assert again == alone == a
    assert not set(_nodes(again)) & set(_nodes(a))
    assert not set(_nodes(alone)) & set(_nodes(again))


def test_literals_are_interned_by_their_bits():
    zero, minus_zero = ex.parse_exprs(["x*0", "x*(-0)"], ("x",))
    assert zero is not minus_zero and zero.right is not minus_zero.right
    assert math.copysign(1.0, zero.right.value) == 1.0
    assert math.copysign(1.0, minus_zero.right.value) == -1.0
    both = ex.parse_expr("x*0 + x*(-0)")
    assert both.left is not both.right
    assert both.left.left is both.right.left  # x
    # -2 is a folded literal, one node with the -2 of another source
    a, b = ex.parse_exprs(["-2*x", "x^2 - 2"], ("x",))
    assert a.left.value == -2.0 and b.right.value == 2.0 and a.left is not b.right


def test_the_tape_keeps_signed_zeros_apart():
    # a row's bits do not depend on the rows it shares a tape with
    space = jet_space(1, 0)
    x = np.array([[2.0]])
    zero, minus_zero = ex.parse_exprs(["x*0", "x*(-0)"], ("x",))
    rows = ex.compile_tape([zero, minus_zero], ("x",)).run(x, space)[:, 0, 0]
    alone = ex.compile_tape([minus_zero], ("x",)).run(x, space)[0, 0, 0]
    assert [math.copysign(1.0, v) for v in rows] == [1.0, -1.0]
    assert math.copysign(1.0, alone) == -1.0
    tape = ex.compile_tape(ex.parse_exprs(["x + 0", "x + (-0)"], ("x",)), ("x",))
    assert [math.copysign(1.0, v) for v in tape.const_values[:, 0]] == [1.0, -1.0]


def test_parse_exprs_reports_the_first_bad_source_as_parse_expr_does():
    good = "x + 1"
    for bad in ["x + w", "x + 1)", "(" * 101 + "x" + ")" * 101, "1 + * 2"]:
        with pytest.raises(ex.ExprError) as alone:
            ex.parse_expr(bad, ("x",))
        with pytest.raises(ex.ExprError) as batch:
            ex.parse_exprs([good, bad, "y +"], ("x",))
        assert str(batch.value) == str(alone.value)
        assert batch.value.offset == alone.value.offset
    assert ex.parse_exprs([], ("x",)) == []


def _random_ast(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ex.Num(round(float(rng.uniform(-5, 5)), 3))
        return ex.Var(names[rng.integers(len(names))])
    kind = rng.integers(7)
    if kind == 0:
        return ex.Add(_random_ast(rng, names, depth - 1),
                      _random_ast(rng, names, depth - 1))
    if kind == 1:
        return ex.Sub(_random_ast(rng, names, depth - 1),
                      _random_ast(rng, names, depth - 1))
    if kind == 2:
        return ex.Mul(_random_ast(rng, names, depth - 1),
                      _random_ast(rng, names, depth - 1))
    if kind == 3:
        return ex.Div(_random_ast(rng, names, depth - 1),
                      _random_ast(rng, names, depth - 1))
    if kind == 4:
        return ex.Neg(_random_ast(rng, names, depth - 1))
    if kind == 5:
        return ex.Pow(_random_ast(rng, names, depth - 1),
                      float(rng.integers(0, 5)))
    return ex.Call(
        ex.FUNCTION_NAMES[rng.integers(len(ex.FUNCTION_NAMES))],
        _random_ast(rng, names, depth - 1),
    )


def _canonical(e):
    """Neg(Num) folds to a negative literal on reparse; normalize for
    comparison."""
    if isinstance(e, ex.Neg):
        arg = _canonical(e.arg)
        if isinstance(arg, ex.Num):
            return ex.Num(-arg.value)
        return ex.Neg(arg)
    if isinstance(e, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
        return type(e)(_canonical(e.left), _canonical(e.right))
    if isinstance(e, ex.Pow):
        return ex.Pow(_canonical(e.base), e.exponent)
    if isinstance(e, ex.Call):
        return ex.Call(e.func, _canonical(e.arg))
    return e


def test_parse_print_roundtrip_100_random_asts():
    rng = np.random.default_rng(7)
    for _ in range(100):
        e = _canonical(_random_ast(rng, ("x", "y", "z"), 4))
        src = ex.expr_to_source(e)
        assert ex.parse_expr(src) == e, src


def test_jet_evaluation_matches_floats():
    rng = np.random.default_rng(11)
    space = jet_space(2, 3)
    for _ in range(20):
        e = _random_ast(rng, ("x", "y"), 3)
        pt = {"x": 0.31, "y": 0.47}
        try:
            f = evaluate(e, pt, lambda fn, v: getattr(math, fn)(v))
        except (ValueError, ZeroDivisionError, OverflowError):
            continue
        env = {k: space.variable(i, v) for i, (k, v) in enumerate(pt.items())}
        tape = ex.compile_tape([e], ("x", "y"))
        try:
            j = evaluate(e, env)
        except ArithmeticError:
            with pytest.raises(ArithmeticError):
                tape.run(one((0.31, 0.47)), space)
            continue
        value = j.value if hasattr(j, "value") else j
        assert value == pytest.approx(f, rel=1e-12, abs=1e-12)
        ref = j.coeffs if hasattr(j, "coeffs") else space.constant(j).coeffs
        got = tape.run(one((0.31, 0.47)), space)[0, 0]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# -- compiled tapes ------------------------------------------------------------

CATALOG = [("klein", 3), ("klein", 4), ("af2_generic", 4), ("af1_generic", 4),
           ("flat", 3), ("poincare_control", 3)]


def _metric_and_rho(geom):
    """The canonical (upper-triangular) metric components and rho as ASTs."""
    d = geom.dim
    roots = [geom.metric[i, j] for i in range(d) for j in range(i, d)]
    roots = [ex.parse_expr(r, geom.chart.coord_names) if isinstance(r, str) else r
             for r in roots]
    return roots + [geom.rho]


@pytest.mark.parametrize("name,dim", CATALOG)
def test_tape_matches_evaluate_on_catalog_geometries(name, dim):
    # reference: the recursive interpreter on scalar Jets
    geom = builtin_geometry(name, dim)
    roots = _metric_and_rho(geom)
    tape = ex.compile_tape(roots, geom.chart.coord_names)
    rng = np.random.default_rng(17)
    for p in geom.interior_points(3, rng):
        for order in range(4):
            space = jet_space(dim, order)
            env = dict(zip(geom.chart.coord_names, point_jets(space, p)))
            got = tape.run(one(p), space)[:, 0]
            field = geom.metric_field().dense(one(p), order)[..., 0, :]
            for k, root in enumerate(roots):
                ref = evaluate(root, env, jet_call)
                ref = ref.coeffs if hasattr(ref, "coeffs") else space.constant(ref).coeffs
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(got[k] - ref)) <= 1e-12 * scale, (name, k, order)
            iu = np.triu_indices(dim)
            assert np.array_equal(field[iu], got[:-1])
            assert np.array_equal(field, field.transpose(1, 0, 2))
            assert np.array_equal(geom.rho_dense(one(p), order)[0], got[-1])


def test_klein_tape_shares_subexpressions():
    geom = builtin_geometry("klein", 3)
    roots = _metric_and_rho(geom)
    sources = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        sources.append(ex.expr_to_source(node))
        stack.extend(ex._children(node))
    assert (len(sources), len(set(sources))) == (139, 27)
    assert len(ex.compile_tape(roots, geom.chart.coord_names)) <= 27


# -- the tape schedule ------------------------------------------------------------

_NAMES = ("x", "y", "z")
_LEAVES = st.one_of(
    st.sampled_from([ex.Var(n) for n in _NAMES]),
    st.sampled_from([ex.Num(v) for v in (0.5, 2.0, -1.5, 3.0)]),
)


def _grow(kids):
    # denominators and the bases of negative or fractional powers are exp(.),
    # so an example meets a pole or leaves a domain only where exp(.) falls
    # below jets.POLE_TOL, as exp(x - exp(3)^1.5) does
    positive = kids.map(lambda k: ex.Call("exp", k))
    return st.one_of(
        st.builds(ex.Add, kids, kids),
        st.builds(ex.Sub, kids, kids),
        st.builds(ex.Mul, kids, kids),
        st.builds(ex.Div, kids, positive),
        st.builds(ex.Neg, kids),
        st.builds(ex.Pow, kids, st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0])),
        st.builds(ex.Pow, positive, st.sampled_from([-2.0, -1.0, 0.5, 1.5])),
        st.builds(ex.Call, st.sampled_from(["sin", "cos", "atan"]), kids),
    )


_EXPRS = st.recursive(_LEAVES, _grow, max_leaves=10)


def _slots(tape, idx):
    """The slot numbers a step index of ``tape`` (a slice or an index
    array) names, in order."""
    return np.arange(tape.n_slots)[idx].tolist()


def _assert_step_order_layout(tape):
    """The slots are numbered in step order: the variables, one block of
    constants, then each step's outputs as one slice, step after step; an
    operand is a slice wherever its slots are consecutive and ascending;
    and ``code``, ``steps``, ``outputs`` and ``const_slots`` agree."""
    n = len(tape.variables)
    assert tape.const_slots == slice(n, n + len(tape.const_values))
    start = tape.const_slots.stop
    rows = []
    for op, out, a, b, param in tape.steps:
        assert isinstance(out, slice) and out.step is None and out.start == start, op
        start = out.stop
        for idx in (a, b):
            if isinstance(idx, np.ndarray):
                assert idx.dtype == np.intp
                assert not np.array_equal(idx, np.arange(idx[0], idx[0] + len(idx))), op
        params = param[:, 0, 0].tolist() if op == "scale" else [param] * (out.stop - out.start)
        rows += zip([op] * len(params), _slots(tape, out), _slots(tape, a),
                    [None] * len(params) if b is None else _slots(tape, b), params)
    assert start == tape.n_slots == n + len(tape.const_values) + len(tape.code)
    assert sorted(rows, key=repr) == sorted(tape.code, key=repr)
    operands = {s for _, _, a, b, _ in tape.code for s in (a, b) if s is not None}
    consts = set(_slots(tape, tape.const_slots))
    assert consts <= operands | set(tape.outputs.tolist())
    assert set(tape.outputs.tolist()) <= set(range(tape.n_slots))


def _asap_groups(tape):
    """Number of steps of a schedule that groups instructions by ASAP level
    and ``(op, param)``."""
    level = {}
    keys = set()
    for op, out, a, b, param in tape.code:
        level[out] = 1 + max(level.get(a, 0), level.get(b, 0))
        keys.add((level[out], op, None if op == "scale" else param))
    return len(keys)


@settings(max_examples=150, deadline=None)
@given(roots=st.lists(_EXPRS, min_size=1, max_size=4))
def test_the_schedule_keeps_dependencies_and_values(roots):
    try:
        tape = ex.compile_tape(roots, _NAMES)
    except ex.ExprError:  # a constant subtree without a finite value
        assume(False)
    # each step reads only inputs, constants and slots of earlier steps, and
    # each instruction runs in exactly one step
    written = set(range(len(_NAMES))) | set(_slots(tape, tape.const_slots))
    for op, out, a, b, param in tape.steps:
        reads = set(_slots(tape, a)) | (set() if b is None else set(_slots(tape, b)))
        assert reads <= written, op
        written |= set(_slots(tape, out))
    assert set(tape.outputs.tolist()) <= written
    outs = [slot for step in tape.steps for slot in _slots(tape, step[1])]
    assert sorted(outs) == sorted(out for _, out, *_ in tape.code)
    assert len(tape.steps) <= _asap_groups(tape)
    _assert_step_order_layout(tape)
    # and the values are the reference interpreter's
    space = jet_space(len(_NAMES), 2)
    point = (0.31, -0.47, 0.23)
    env = dict(zip(_NAMES, point_jets(space, point)))
    try:
        refs = [evaluate(root, env, jet_call) for root in roots]
    except (ArithmeticError, ValueError):  # float overflow in the reference
        assume(False)
    refs = [r.coeffs if hasattr(r, "coeffs") else space.constant(r).coeffs for r in refs]
    assume(all(np.all(np.isfinite(r)) and np.max(np.abs(r)) < 1e100 for r in refs))
    got = tape.run(one(point), space)[:, 0]
    for k, ref in enumerate(refs):
        assert np.max(np.abs(got[k] - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref))), k


def _restricted_steps(tape, rows):
    """The steps of ``tape`` restricted to the instructions that the outputs
    ``rows`` depend on (found by walking ``code`` back from them), each as
    ``(op, out, a, b, params)`` slot lists; steps left empty are dropped."""
    writer = {out: (a, b) for _, out, a, b, _ in tape.code}
    needed, stack = set(), tape.outputs[rows].tolist()
    while stack:
        slot = stack.pop()
        if slot in writer and slot not in needed:
            needed.add(slot)
            stack += [s for s in writer[slot] if s is not None]
    steps = []
    for op, out, a, b, param in _listed_steps(tape):
        keep = [k for k, slot in enumerate(out) if slot in needed]
        if keep:
            steps.append((op, [out[k] for k in keep], [a[k] for k in keep],
                          None if b is None else [b[k] for k in keep], [param[k] for k in keep]))
    return steps


def _listed_steps(tape):
    """The steps of ``tape`` with their slots and parameters as lists."""
    return [
        (op, _slots(tape, out), _slots(tape, a), None if b is None else _slots(tape, b),
         param[:, 0, 0].tolist() if op == "scale" else [param] * len(_slots(tape, out)))
        for op, out, a, b, param in tape.steps
    ]


def _assert_view_of(view, tape, rows):
    """``view`` is ``tape``'s selection of ``rows``: the same slots and
    constants, those outputs, and each step cut to the instructions they
    depend on."""
    assert (view.n_slots, view.const_slots) == (tape.n_slots, tape.const_slots)
    assert view.code is tape.code
    assert view.const_values is tape.const_values
    assert np.array_equal(view.outputs, tape.outputs[rows])
    assert _listed_steps(view) == _restricted_steps(tape, rows)


@settings(max_examples=100, deadline=None)
@given(roots=st.lists(_EXPRS, min_size=1, max_size=4), data=st.data())
def test_a_selection_runs_its_rows_instructions_and_gives_the_full_runs_bits(roots, data):
    try:
        tape = ex.compile_tape(roots, _NAMES)
    except ex.ExprError:  # a constant subtree without a finite value
        assume(False)
    rows = data.draw(st.lists(st.integers(0, len(roots) - 1), min_size=1, max_size=4))
    view = tape.select(rows)
    _assert_view_of(view, tape, rows)
    space = jet_space(len(_NAMES), 2)
    for points in (np.array([[0.31, -0.47, 0.23], [-0.2, 0.1, 0.4]]), np.empty((0, 3))):
        with np.errstate(all="ignore"):  # large products may overflow alike
            try:
                full = tape.run(points, space)
            except ArithmeticError:  # exp(-90) and less count as zero (jets.POLE_TOL)
                assume(False)
            got = view.run(points, space)
        assert got.shape == (len(rows), len(points), space.ncoeff)
        assert np.array_equal(got, full[rows], equal_nan=True)


def test_a_selection_skips_the_other_rows_of_a_shared_step():
    # 1/exp(x) and 1/log(y) share one recip step; the view of the first row
    # runs exp and that row of the reciprocals, so at y < 0, where log
    # raises, the first row still evaluates, to the full run's bits at y > 0
    tape = ex.compile_tape([ex.parse_expr("1/exp(x)"), ex.parse_expr("1/log(y)")], _NAMES)
    assert [(op, step[1].stop - step[1].start) for op, *step in tape.steps] == [
        ("exp", 1), ("log", 1), ("recip", 2)]
    view = tape.select([0])
    assert [op for op, *_ in view.steps] == ["exp", "recip"]
    space = jet_space(len(_NAMES), 1)
    inside, outside = one((0.3, 0.5, 0.7)), one((0.3, -0.5, 0.7))
    assert np.array_equal(view.run(inside, space), tape.run(inside, space)[:1])
    with pytest.raises(DomainError):
        tape.run(outside, space)
    assert np.array_equal(view.run(outside, space), view.run(inside, space))


def test_the_metric_rows_of_flat_run_no_step(monkeypatch):
    # flat's metric is constant and rho is no subexpression of it: only a
    # run of the whole tape computes rho
    geom = builtin_geometry("flat", 3)
    pts = geom.interior_points(2, np.random.default_rng(0))
    steps = []
    real = ex.Tape.run
    monkeypatch.setattr(
        ex.Tape, "run", lambda self, p, space: steps.append(len(self.steps)) or real(self, p, space)
    )
    geom.metric_field().dense(pts, 1)
    geom.rho_and_metric(pts, 1)
    geom.rho_dense(pts, 1)
    assert steps == [0, 1, 1]


@pytest.mark.parametrize("name", ["flat", "klein", "af2_generic", "af1_generic",
                                  "poincare_control"])
@pytest.mark.parametrize("dim", [3, 4])
def test_the_slots_of_catalog_tapes_are_numbered_in_step_order(name, dim):
    geom = builtin_geometry(name, dim)
    tape = geom.metric_field().tape
    _assert_step_order_layout(tape)
    # rho is the tape's last row, and rho_dense runs its view
    _assert_view_of(geom._rho_row, tape, [-1])
    # the klein-3 metric tape reads most operands as views
    if (name, dim) == ("klein", 3):
        operands = [idx for step in tape.steps for idx in step[2:4] if idx is not None]
        assert sum(isinstance(idx, slice) for idx in operands) > len(operands) // 2


@pytest.mark.parametrize("name, dim, steps", [
    ("klein", 3, 8), ("klein", 4, 9), ("af2_generic", 4, 7), ("af1_generic", 4, 7),
])
def test_the_metric_tape_merges_its_groups(name, dim, steps):
    # one step per (op, param) and level, where a level-by-level schedule
    # takes one more on klein (1/rho and 1/rho^2 sit at consecutive levels)
    # and two more on the asymptotic forms
    tape = builtin_geometry(name, dim).metric_field().tape
    assert len(tape.steps) <= steps
    assert len(tape.steps) < _asap_groups(tape)


def test_tape_integer_powers_are_products():
    x_ = ex.Var("x")
    tape = ex.compile_tape([ex.Pow(x_, 4.0), ex.Pow(x_, -3.0)], ("x",))
    assert [op for op, *_ in tape.code] == ["mul", "mul", "mul", "recip"]
    space = jet_space(1, 3)
    got = tape.run(one((0.5,)), space)[:, 0]
    x = space.variable(0, 0.5)
    assert np.allclose(got[0], (x * x * x * x).coeffs, rtol=1e-14, atol=0)
    assert np.allclose(got[1], (1.0 / (x * x * x)).coeffs, rtol=1e-14, atol=0)


@pytest.mark.parametrize("src", ["(0-1)^0.5", "log(0-1)", "1/0", "x/(2-2)",
                                 "exp(1000)", "sqrt(0-4)*x"])
def test_tape_constant_fold_must_be_real_and_finite(src):
    with pytest.raises(ex.ExprError):
        ex.compile_tape([ex.parse_expr(src)], ("x",))


def test_tape_unknown_variable():
    with pytest.raises(ex.ExprError):
        ex.compile_tape([ex.parse_expr("x + z")], ("x", "y"))


def test_tape_raises_pole_and_domain_errors():
    space = jet_space(1, 2)
    with pytest.raises(PoleError):
        ex.compile_tape([ex.parse_expr("1/(1 - x^2)")], ("x",)).run(one((1.0,)), space)
    with pytest.raises(DomainError):
        ex.compile_tape([ex.parse_expr("sqrt(x - 1)")], ("x",)).run(one((0.5,)), space)


def test_tape_runs_on_a_batch_of_points_only():
    tape = ex.compile_tape([ex.parse_expr("x*y")], ("x", "y"))
    space = jet_space(2, 1)
    assert tape.run(one((2.0, 3.0)), space).shape == (1, 1, space.ncoeff)
    for bad in ((2.0, 3.0), np.zeros((2, 3)), np.zeros((1, 2, 1))):
        with pytest.raises(ValueError, match=r"\(B, 2\) array"):
            tape.run(bad, space)


@pytest.mark.parametrize(
    "src", ["exp(x)", "log(x)", "sqrt(x)", "x^1.5", "sin(x)", "cos(x)", "tan(x)", "atan(x)"]
)
@pytest.mark.parametrize("order", [0, 2])
def test_every_elementary_function_runs_on_an_empty_batch(src, order):
    # an empty batch gives the empty shape of a rational tape, not a reshape error
    space = jet_space(1, order)
    empty = np.zeros((0, 1))
    expected = ex.compile_tape([ex.parse_expr("1/x")], ("x",)).run(empty, space).shape
    assert expected == (1, 0, space.ncoeff)
    assert ex.compile_tape([ex.parse_expr(src)], ("x",)).run(empty, space).shape == expected


@pytest.mark.parametrize("name,dim", [("klein", 3), ("af2_generic", 4)])
def test_direct_evaluation_at_boundary_raises_pole(name, dim):
    geom = builtin_geometry(name, dim)
    y = one(geom.boundary_points(1, np.random.default_rng(1))[0])
    with pytest.raises(PoleError):
        geom.metric_field().dense(y, 1)
    with pytest.raises(PoleError):
        bd.hat_christoffels(TractorCalculus(geom), y)


def test_deep_expressions():
    # a long sum compiles and evaluates without recursion; deep nesting is
    # a parse error, not a RecursionError
    src = " + ".join(["x"] * 3000)
    e = ex.parse_expr(src)
    assert ex.expr_variables(e) == {"x"}
    got = ex.compile_tape([e], ("x",)).run(one((0.5,)), jet_space(1, 1))
    assert np.allclose(got[0, 0], [1500.0, 3000.0])
    with pytest.raises(ex.ExprError):
        ex.parse_expr("(" * 2000 + "x" + ")" * 2000)
    with pytest.raises(ex.ExprError):
        ex.parse_expr("-" * 2000 + "x")
