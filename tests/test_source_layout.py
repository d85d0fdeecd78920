"""Source layout rules of the package.

It computes with dense jet arrays only: the scalar ``Jet`` class lives in
``tractorlab/jets.py`` as the reference the tests compare against, and no
other module may use it or the helpers of the removed scalar path.  Boundary
ladders are placed once per boundary point and passed as values, so the
ladder settings ``eps0`` and ``levels`` are named only where a ladder is
placed (``extrapolate``) and where a sampling plan sets them (``verify``,
``cli``).  The pole tolerance, the rank test of a singular matrix and
the value inverse's condition gate live in ``jets`` alone, so no other
module names ``POLE_TOL``, ``RANK_TOL`` or ``PIVOT_MARGIN``.  A run's connections, curvature packs and tau are built
by its ``TractorCalculus`` alone, so only ``tractor`` calls their
builders.  The
point functions of the boundary quantities live in ``boundary``, so the
command line evaluates no tensor, curvature pack or inverse of its own.
A check's own computation lives in its ``verify`` runner, so the boundary
routines and report classes that served one check stay removed.
Expressions are evaluated only through compiled tapes: the recursive
interpreter ``evaluate`` is a test reference (``tests/expr_reference.py``).
A ladder is evaluated as one batch of points, so only ``extrapolate``
iterates a ladder's levels, and a check's ladders are evaluated as one
stacked batch, so no routine calls a ladder evaluator in a loop over them;
how the ladders are stacked is known to ``extrapolate`` alone, so no other
module concatenates their ``eps`` or ``points``, and a point function
depends on its points only; a check's limits along its ladders come from
one Richardson table of their stack, so no module but ``extrapolate`` calls
the one-ladder ``richardson_limit``, save the curve limit of ``prop-2.5-mu``;
likewise an interior check evaluates its sample points as one batch, so no
``verify`` runner loops over them.  A
runner returns its facets by name and ``run_suite`` alone turns them into a
verdict, so no other code of ``verify`` writes an infinite residual or
rescales a residual by a tolerance ratio.  Every layer takes a batch of
points ``(B, d)`` and one point is a batch of one, so no code keeps a
single-point path beside the batch one: none tests ``is_batch``, annotates
a ``Point | np.ndarray`` union or branches on the ``ndim`` of a point.  A
batch that raises has one failure path, ``fields.first_failure``, so no
other code catches ``Exception`` but the boundaries that must keep
running.  Every memo of evaluated jets is keyed by its batch's rows alone
and read through ``fields.row_memo``, which serves lower orders by
truncation, so no code but that helper builds a row key, and no key holds a
jet order.  A valid geometry document is decided without jsonschema, so only
the branch of ``load_geometry`` that a rejected document takes imports it."""

import ast
import importlib
import math
from pathlib import Path

import pytest

import tractorlab

SRC = Path(__file__).resolve().parents[1] / "src" / "tractorlab"
MODULES = sorted(SRC.glob("*.py"))

#: Helpers and accessors of the scalar-jet object path, the per-call
#: ladder options of the transversal integrator, the builders that bypassed
#: the calculus, the second expression evaluator, the single-use boundary
#: routines and report classes that the verify runners absorbed, the two
#: lem-2.4 facets that could not fire, unused names, the splitting
#: registries and contorsion class that a splitting object replaced, the
#: second value path of the rho-modified connection, the rho-first stage
#: path and the second pivot loop, and the second producers of the standard
#: tractor curvature, the Hessian of rho and the constant C, with the report
#: fields and options that nothing read, and the memo read that stored
#: nothing, that left the package.
REMOVED = {
    "jet_views", "jet_stack", "jet_values", "jet_det", "jet_apply",
    "jet_partial", "jet_constant", "jet_variable", "APPLY_FUNCTIONS",
    "DEFAULT_ORDER", "_jet_call", "_scalar_array", "_float_call",
    "rho_jet", "tau_jet", "tau_hat_jet", "metric_jets", "components",
    "geodetic_transversal", "mu0s",
    "geometry_curvature", "metric_tractor_connection", "christoffels",
    "s2tstar_slots", "n_upper", "n_lower", "divergence_floor",
    "gamma_at", "t_at", "h_at", "_h_form", "_pointwise_tracefree_ricci",
    "Density", "q_full",
    "evaluate", "_expr_src", "torsion_free",
    "ExtensionReport", "CollarSample", "EinsteinAsymptoticsReport",
    "ConformalTractorData", "AsymptoticallyParallelReport", "DefiningDensityReport",
    "rho_connection_extension", "collar_sample", "einstein_asymptotics",
    "boundary_tractor_bundle", "expected_gram_split", "asymptotically_parallel_check",
    "defining_density_check", "metricity_residual", "splitting_from_lc", "is_finite",
    "h_diverged", "t0_row_defect", "collar_not_injective",
    "symmetry_defect", "is_boundary_point",
    "TractorConnection", "connection_of", "pack_of", "upsilon_jets", "change_upsilon",
    "exact_boundary",
    "christoffel_values", "acc_rows_on_boundary", "_check_pivots",
    "tractor_curvature", "hessian_of_rho", "_constructor_c", "h_limits", "h_errors",
    "dual_gamma_defect", "density_sign", "_peek",
}

#: Removed names that a report still uses as a key: no code binds, reads or
#: passes them, but a string may name them (``thm-2.5-C`` keeps its
#: ``tangential_min_eigs`` detail, computed by its runner).
REMOVED_FIELDS = {"tangential_min_eigs"}

#: The builders of the connections, curvature packs and tau of a geometry;
#: only the calculus (``tractor.py``) calls them.
BUILDERS = {"levi_civita", "rho_connection", "canonical_tau", "CurvaturePack"}

#: Calls ``cli.py`` leaves to the point functions of ``boundary``.
CLI_FORBIDDEN = {"dense", "np.linalg.inv"}

#: The modules that place ladders or set their sampling plan.
LADDER_SETTINGS = {"eps0", "levels"}
LADDER_MODULES = {"extrapolate.py", "verify.py", "cli.py"}


def _names(tree, strings=True):
    """Every identifier a module binds, reads, imports or quotes (unless
    ``strings`` is false), including parameters and keyword arguments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.arg):
            yield node.arg, node.lineno
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():  # string annotations, __all__
                yield node.value, node.lineno


def test_package_modules_are_found():
    assert {m.name for m in MODULES} >= {"jets.py", "fields.py", "verify.py"}


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_only_jets_names_the_scalar_jet(module):
    if module.name == "jets.py":
        return
    tree = ast.parse(module.read_text(), filename=str(module))
    uses = [line for name, line in _names(tree) if name == "Jet"]
    assert not uses, f"{module.name} names Jet on lines {uses}"


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_scalar_path_helpers_stay_removed(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    found = sorted(
        {(name, line) for name, line in _names(tree) if name in REMOVED}
        | {(name, line) for name, line in _names(tree, strings=False) if name in REMOVED_FIELDS}
    )
    assert not found, f"{module.name} uses {found}"


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_only_ladder_modules_name_the_ladder_settings(module):
    if module.name in LADDER_MODULES:
        return
    tree = ast.parse(module.read_text(), filename=str(module))
    found = sorted({(n, line) for n, line in _names(tree) if n in LADDER_SETTINGS})
    assert not found, f"{module.name} names {found}"


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_only_the_calculus_builds_connections_packs_and_tau(module):
    if module.name == "tractor.py":
        return
    tree = ast.parse(module.read_text(), filename=str(module))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in BUILDERS:
                found.append((name, node.lineno))
    assert not found, f"{module.name} calls {sorted(found)}"


#: The pole tolerance of the jets, the rank level of a singular matrix and
#: the margin of the value inverse's condition gate; the pole tests and that
#: gate live in ``jets`` alone.
POLE_CONSTANTS = {"POLE_TOL", "RANK_TOL", "PIVOT_MARGIN"}


def _names_pole_constants(tree):
    return sorted({(name, line) for name, line in _names(tree) if name in POLE_CONSTANTS})


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_only_jets_names_the_pole_constants(module):
    if module.name == "jets.py":
        return
    found = _names_pole_constants(ast.parse(module.read_text(), filename=str(module)))
    assert not found, f"{module.name} names {found}"


def test_the_pole_constant_rule_sees_a_copied_gate():
    for src in (
        "from .jets import POLE_TOL",
        "from .jets import PIVOT_MARGIN as margin",
        "ok = big * norm < 1.0 / (m * jets.POLE_TOL * jets.PIVOT_MARGIN)",
        "tol = getattr(jets, 'POLE_TOL') * scale",
        "rank = smallest <= m * RANK_TOL * big",
        "def gate(a, tol=POLE_TOL):\n    return abs(a) > tol",
    ):
        assert _names_pole_constants(ast.parse(src)), src
    for src in (
        "ginv = value_inverse(g[..., 0])",
        "inv = jet_reciprocal(scaled, jet_space(d, 0))",
        "pole_tol = 1e-13",
        "raise PoleError('singular jet matrix (no usable pivot)')",
    ):
        assert not _names_pole_constants(ast.parse(src)), src


def test_every_export_resolves():
    for name, module in tractorlab._EXPORTS.items():
        assert getattr(tractorlab, name) is getattr(
            importlib.import_module(f"tractorlab.{module}"), name
        )
    assert "curvature" not in tractorlab._EXPORTS
    assert not hasattr(importlib.import_module("tractorlab.affine"), "curvature")


def test_cli_evaluates_through_the_boundary_point_functions():
    tree = ast.parse((SRC / "cli.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name in CLI_FORBIDDEN or name.rsplit(".", 1)[-1] in CLI_FORBIDDEN:
                found.append((name, node.lineno))
    assert not found, f"cli.py calls {sorted(found)}"


def _iterates_ladder_levels(tree):
    """Lines of ``for`` loops and comprehensions that iterate the levels of
    a ladder: their iterable reads ``.points``, ``.batch`` or ``.eps`` of a
    value named like a ladder (``ladder``, ``lad``, ``frame.ladder``)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)):
            for sub in ast.walk(node.iter):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr in ("points", "batch", "eps")
                    and "lad" in ast.unparse(sub.value)
                ):
                    yield sub.lineno


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_only_extrapolate_iterates_ladder_levels(module):
    if module.name == "extrapolate.py":
        return
    tree = ast.parse(module.read_text(), filename=str(module))
    found = sorted(set(_iterates_ladder_levels(tree)))
    assert not found, f"{module.name} iterates ladder levels on lines {found}"


def test_the_ladder_loop_rule_sees_per_level_loops():
    for src in (
        "values = [f(p) for p in ladder.points]",
        "for eps, p in zip(ladder.eps, ladder.points):\n    pass",
        "for k in range(len(frame.ladder.points)):\n    pass",
        "rows = [g(r) for r in lad.batch]",
        "located = [curve.at_rho(eps) for eps in ladder.eps]",
    ):
        assert list(_iterates_ladder_levels(ast.parse(src))), src
    assert not list(_iterates_ladder_levels(ast.parse("ys = [y for y in rep.points]")))


#: The ``numpy`` and builtin joiners of sequences.
JOINERS = {"concatenate", "hstack", "vstack", "stack", "column_stack", "append",
           "chain", "sum"}


def _stacks_ladders(tree):
    """Lines of calls of a joiner whose arguments read ``.eps`` or
    ``.points`` of a value named like a ladder (``ladder``, ``lad``,
    ``frame.ladder``): the stacking of the ladders' levels into one batch."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and ast.unparse(node.func).rsplit(".", 1)[-1] in JOINERS
        ):
            for arg in node.args:
                for sub in ast.walk(arg):
                    if (
                        isinstance(sub, ast.Attribute)
                        and sub.attr in ("eps", "points")
                        and "lad" in ast.unparse(sub.value)
                    ):
                        yield node.lineno


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_only_extrapolate_stacks_ladders(module):
    if module.name == "extrapolate.py":
        return
    tree = ast.parse(module.read_text(), filename=str(module))
    found = sorted(set(_stacks_ladders(tree)))
    assert not found, f"{module.name} stacks ladders' levels on lines {found}"


def test_the_ladder_stacking_rule_sees_stacked_levels():
    for src in (
        # the forms of boundary_frame and _defining_density
        "eps = np.concatenate([ladder.eps for ladder in ladders])",
        "scale = np.float_power(\n"
        "    np.concatenate([lad.eps for lad in ladders]), 2.0 / alpha\n)",
        "batch = np.concatenate([lad.points for lad in ladders])",
        "rows = np.vstack([frame.ladder.points for frame in frames])",
        "eps = np.hstack(tuple(lad.eps for lad in lads))",
        "eps = sum((ladder.eps for ladder in ladders), ())",
        "eps = list(itertools.chain(*(lad.eps for lad in ladders)))",
    ):
        assert list(_stacks_ladders(ast.parse(src))), src
    for src in (
        "ys = np.array([ladder.y for ladder in ladders])",
        "directions = np.stack([ladder.direction for ladder in ladders])",
        "est = richardson_limit(tau / np.asarray(ladder.eps))",
        "rows = np.concatenate([curve.points[ks] for curve in curves])",
        "total = sum(len(lad.y) for lad in ladders)",
    ):
        assert not list(_stacks_ladders(ast.parse(src))), src


#: The routines that evaluate all the ladders (or frames) of a check at once.
LADDER_EVALUATORS = {
    "boundary_limit", "ladder_samples", "extended_christoffels",
    "boundary_frame", "curvature_blocks",
}


def _evaluates_ladders_in_a_loop(tree):
    """Lines of calls of a ladder evaluator that run once per iteration: in
    the body of a ``for`` or ``while`` loop (or a ``while`` test), or in a
    comprehension other than its first iterable, which runs once."""
    repeated = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            repeated += node.body + node.orelse
        elif isinstance(node, ast.While):
            repeated += [node.test] + node.body + node.orelse
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            repeated += [getattr(node, a) for a in ("elt", "key", "value") if hasattr(node, a)]
            repeated += node.generators[0].ifs
            repeated += node.generators[1:]
    for part in repeated:
        for sub in ast.walk(part):
            if (
                isinstance(sub, ast.Call)
                and ast.unparse(sub.func).rsplit(".", 1)[-1] in LADDER_EVALUATORS
            ):
                yield sub.lineno


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_ladder_evaluator_runs_per_ladder(module):
    if module.name == "extrapolate.py":
        return
    tree = ast.parse(module.read_text(), filename=str(module))
    found = sorted(set(_evaluates_ladders_in_a_loop(tree)))
    assert not found, f"{module.name} evaluates ladders in a loop on lines {found}"


def test_the_ladder_evaluator_rule_sees_per_ladder_evaluation():
    for src in (
        # the per-ladder forms of _per_ladder, asymptotic_h,
        # einstein_asymptotics and _run_thm44
        "for k, ladder in enumerate(ladders):\n"
        "    est = boundary_limit(f, ladder)\n"
        "    if est.diverged:\n"
        "        continue\n"
        "    found, detail = judge(k, est)",
        "for ladder in ladders:\n"
        "    est = boundary_limit(lambda p: scalar_curvature(calc, p), ladder)\n"
        "    if est.diverged:\n"
        "        return report\n"
        "    s_limits.append(float(est.value))",
        "for ladder in ladders:\n"
        "    est = boundary_limit(adjusted_ricci, ladder)\n"
        "    est2 = boundary_limit(tail, ladder)\n"
        "    est3 = boundary_limit(lambda p: tracefree_ricci(calc, p), ladder)",
        "for ladder in ladders:\n"
        "    frame = bd.boundary_frame(calc, ladder)\n"
        "    blocks = bd.curvature_blocks(calc, frame)",
        "gamma = np.stack([extended_christoffels(conn, lad) for lad in ladders])",
        "while todo:\n    values = ladder_samples(f, todo.pop())",
        "ests = {k: boundary_limit(f, [lad]) for k, lad in enumerate(ladders)}",
        "x = [y for lad in ladders for y in boundary_limit(f, [lad])]",
    ):
        assert list(_evaluates_ladders_in_a_loop(ast.parse(src))), src
    for src in (
        "ests = boundary_limit(f, ladders)\nfor ladder, est in zip(ladders, ests):\n    pass",
        "for ladder, est in zip(ladders, boundary_limit(f, ladders)):\n    pass",
        "limits = [est.value for est in boundary_limit(f, ladders)]",
        "frames = bd.boundary_frame(calc, ladders)\nfor frame in frames:\n    pass",
    ):
        assert not list(_evaluates_ladders_in_a_loop(ast.parse(src))), src


def _calls_richardson_limit(tree):
    """Lines of the calls of ``richardson_limit``, the table of one ladder;
    a ladder stack's limits come from ``richardson_limits``."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rsplit(".", 1)[-1] == "richardson_limit"
    )


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_only_extrapolate_calls_the_one_ladder_richardson(module):
    if module.name == "extrapolate.py":
        return
    tree = ast.parse(module.read_text(), filename=str(module))
    found = _calls_richardson_limit(tree)
    assert not found, f"{module.name} calls richardson_limit on lines {found}"


def test_the_richardson_rule_sees_a_copied_call():
    def found(src):
        return _calls_richardson_limit(ast.parse(src))

    for src in (
        # the per-ladder loops that one stacked table replaced
        "def _defining_density(calc, ladders):\n"
        "    for lad, taus in zip(ladders, samples):\n"
        "        est = richardson_limit(taus / np.float_power(lad.eps, 2.0 / alpha))",
        "def boundary_frame(calc, ladders):\n"
        "    est_inv = richardson_limit(np.linalg.inv(grams))",
        "ests = [ext.richardson_limit(s) for s in ladder_samples(f, ladders)]",
        "def _run_rho_extends(geom, plan, rng, session):\n"
        "    def limit(values):\n"
        "        return richardson_limit(values)",
        # the curve limit of prop-2.5-mu, one transversal at a time
        "def _run_mu(geom, plan, rng, session):\n    est = richardson_limit(at_levels)",
    ):
        assert found(src), src
    for src in (
        "ests = richardson_limits(samples)",
        "from .extrapolate import richardson_limit",
        "limit = richardson_limit",
    ):
        assert not found(src), src


def _is_interior_call(node):
    return isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".interior")


def _loops_over_interior_points(tree):
    """Lines of ``for`` loops and comprehensions, in a function, whose
    iterable reads the points a ``session.interior(...)`` call returned: the
    call itself, or a name the function bound to an expression holding it."""
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        names = {
            target.id
            for node in ast.walk(func)
            if isinstance(node, ast.Assign)
            and any(_is_interior_call(sub) for sub in ast.walk(node.value))
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.comprehension)) and any(
                _is_interior_call(sub) or (isinstance(sub, ast.Name) and sub.id in names)
                for sub in ast.walk(node.iter)
            ):
                yield node.iter.lineno


def test_no_verify_runner_loops_over_its_interior_points():
    tree = ast.parse((SRC / "verify.py").read_text())
    found = sorted(set(_loops_over_interior_points(tree)))
    assert not found, f"verify.py loops over interior points on lines {found}"


def test_the_interior_loop_rule_sees_per_point_loops():
    head = "def run(geom, plan, rng, session):\n"
    for body in (
        "    pts = session.interior(rng, 3)\n    for p in pts:\n        pass",
        "    pts = np.array(session.interior(rng))\n    return [f(p) for p in pts]",
        "    for k, p in enumerate(session.interior(rng)):\n        pass",
        "    pts = session.interior(rng)\n    for p, q in zip(pts, qs):\n        pass",
        "    pts = session.interior(rng)\n    def f():\n        return [g(p) for p in pts]",
    ):
        assert list(_loops_over_interior_points(ast.parse(head + body))), body
    for body in (
        "    pts = session.interior(rng)\n    for pair in pairs:\n        f(pair, pts)",
        "    for lad in session.ladders(rng):\n        pass",
    ):
        assert not list(_loops_over_interior_points(ast.parse(head + body))), body


#: The functions of ``verify.py`` that may name infinity: the sampling plan's
#: validation and the verdict of ``run_suite``.
VERDICT_EXEMPT = {"__post_init__", "run_suite"}


def _is_power_of_ten(node):
    """A numeric literal ``10^k`` with ``k != 0`` (a tolerance ratio)."""
    if not isinstance(node, ast.Constant) or type(node.value) not in (int, float):
        return False
    exponent = math.log10(abs(node.value)) if node.value else 0.0
    return exponent != 0 and exponent == round(exponent)


def _verdict_forms(tree):
    """Lines, outside the exempt functions, that name infinity (``math.inf``,
    ``np.inf``, ``inf``, ``float("inf")``) or multiply or divide by a
    power-of-ten literal."""
    exempt = {
        id(sub)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name in VERDICT_EXEMPT
        for sub in ast.walk(func)
    }
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        infinite = (
            (isinstance(node, ast.Attribute) and node.attr == "inf")
            or (isinstance(node, ast.Name) and node.id == "inf")
            or (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.strip().lower() in ("inf", "infinity"))
        )
        rescaled = (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.Mult, ast.Div))
            and (_is_power_of_ten(node.left) or _is_power_of_ten(node.right))
        )
        if infinite or rescaled:
            yield node.lineno


def test_verify_leaves_the_verdict_to_run_suite():
    tree = ast.parse((SRC / "verify.py").read_text())
    found = sorted(set(_verdict_forms(tree)))
    assert not found, f"verify.py writes a verdict outside run_suite on lines {found}"


def test_the_verdict_rule_sees_infinite_and_rescaled_residuals():
    head = "def _run_x(geom, plan, rng, session):\n"
    for body in (
        "    residual = max(residual, rep.skew_defect * 10.0)",
        "    residual = max(residual, pairing / 1e-2)",
        "    r = 0.0 if sig_ok else math.inf",
        "    return abs(float(est.value) - 1.0) * 1e-3, {}",
        "    r = max(r, iso * 1e3, gram_defect * 1e2)",
        "    r = max(r, cross / 10.0)",
        "    r = float('inf')",
        "    r = np.inf",
        "    def judge(k, est):\n        return math.inf, {}",
    ):
        assert list(_verdict_forms(ast.parse(head + body))), body
    for body in (
        "    x = 0.5 * grad + (n + 1) / (4 * rho) + g * (1.0 / (n * (n + 1)))",
        "    r = _scaled(gap, scale)",
        "    return {'tangentially_degenerate': min_eig < 1e-6}, {}",
    ):
        assert not list(_verdict_forms(ast.parse(head + body))), body
    exempt = "def run_suite(geom):\n    return math.inf * (1e-5 / 1e-6)"
    assert not list(_verdict_forms(ast.parse(exempt)))


#: Names of values that hold points (or rho levels), on whose ``ndim`` no
#: code may branch.
POINT_NAMES = {"point", "points", "pts", "pt", "p", "x", "y", "ys", "eps"}


def _names_a_point(node):
    return any(isinstance(sub, ast.Name) and sub.id in POINT_NAMES for sub in ast.walk(node))


def _single_point_paths(tree):
    """Lines of a single-point path kept beside the batch one: a use of
    ``is_batch``, a ``Point | ...`` union, a branch (``if``, conditional
    expression, ``while``) whose test reads the ``ndim`` of a point, or an
    ``np.atleast_1d`` / ``np.atleast_2d`` of one."""
    for name, line in _names(tree):
        if name == "is_batch":
            yield line
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            if "Point" in (ast.unparse(node.left), ast.unparse(node.right)):
                yield node.lineno
        elif isinstance(node, (ast.If, ast.IfExp, ast.While)):
            for sub in ast.walk(node.test):
                ndim = (
                    isinstance(sub, ast.Attribute) and sub.attr == "ndim"
                    and _names_a_point(sub.value)
                ) or (
                    isinstance(sub, ast.Call) and ast.unparse(sub.func) == "np.ndim"
                    and any(_names_a_point(arg) for arg in sub.args)
                )
                if ndim:
                    yield sub.lineno
        elif (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("np.atleast_1d", "np.atleast_2d")
            and any(_names_a_point(arg) for arg in node.args)
        ):
            yield node.lineno


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_single_point_path(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    found = sorted(set(_single_point_paths(tree)))
    assert not found, f"{module.name} keeps a single-point path on lines {found}"


def test_the_single_point_rule_sees_the_point_paths():
    for src in (
        "def is_batch(point):\n    return point.ndim == 2",
        "batch = point.shape[:1] if is_batch(point) else ()",
        "def coords(self, point: Point | np.ndarray) -> np.ndarray:\n    pass",
        "Evaluator = Callable[[Point | np.ndarray, int], np.ndarray]",
        "out = slots[outputs]\nreturn out if pts.ndim == 2 else out[:, 0]",
        "if np.ndim(eps):\n    pass",
        "while np.asarray(point).ndim < 2:\n    point = [point]",
        "targets = np.atleast_1d(np.asarray(eps, dtype=float))",
        "rows = np.atleast_2d(p)",
    ):
        assert list(_single_point_paths(ast.parse(src))), src
    for src in (
        "def dense(self, points: np.ndarray, order: int) -> np.ndarray:\n    pass",
        "upsilon: Callable[[np.ndarray, int], np.ndarray] | TensorField",
        "if dot and a.ndim == len(sa) + 2 and b.ndim == len(sb) + 2:\n    pass",
        "if np.ndim(w_perturbation) == 0:\n    pass",
        "if points.shape[1:] != (self.dim,):\n    raise GeometryError('shape')",
        "nd = out.ndim",
    ):
        assert not list(_single_point_paths(ast.parse(src))), src


#: The functions that may catch ``Exception``: the one failure path of a
#: batch, which finds whose error a batch raised, and the boundaries that
#: must keep running (a suite completes whatever a check raises, and any
#: failure of the compactness probe means "not compact").
BROAD_EXCEPT_ALLOWED = {
    "fields.first_failure", "verify.run_suite", "verify._Session.probe_compact",
}


def _broad_excepts(tree, module):
    """``(function, line)`` of each handler of ``module`` (a file's stem)
    outside ``BROAD_EXCEPT_ALLOWED`` that catches ``Exception`` or broader
    (``BaseException``, a bare ``except``), alone or in a tuple; the
    function is named with its enclosing classes and functions."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.ExceptHandler):
                kinds = getattr(child.type, "elts", [child.type])
                if child.type is None or any(
                    ast.unparse(kind).rsplit(".", 1)[-1] in ("Exception", "BaseException")
                    for kind in kinds
                ):
                    name = ".".join(scope)
                    if f"{module}.{name}" not in BROAD_EXCEPT_ALLOWED:
                        yield name, child.lineno
            yield from visit(child, scope)

    return list(visit(tree, ()))


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_only_the_failure_path_and_the_suite_catch_every_exception(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    found = _broad_excepts(tree, module.stem)
    assert not found, f"{module.name} catches Exception in {found}"


def test_the_broad_except_rule_sees_a_copied_fallback():
    for module, src in (
        # the level-by-level rerun that first_failure replaced
        ("extrapolate",
         "def ladder_samples(f, ladders):\n"
         "    batch = np.concatenate([lad.points for lad in ladders])\n"
         "    try:\n"
         "        values = np.asarray(f(batch), dtype=float)\n"
         "    except Exception:\n"
         "        for ladder in ladders:\n"
         "            for k in range(len(ladder.points)):\n"
         "                f(ladder.points[k : k + 1])\n"
         "        raise"),
        ("verify",
         "class _Session:\n"
         "    def transversals(self, rng):\n"
         "        try:\n"
         "            curves = self._integrate(ladders + later)\n"
         "        except Exception:\n"
         "            curves = None"),
        ("fields", "def f():\n    try:\n        pass\n    except (ValueError, Exception):\n        pass"),
        ("fields", "def first_failure(f, count):\n    def g():\n"
                   "        try:\n            pass\n        except:\n            pass"),
        ("cli", "try:\n    main()\nexcept BaseException:\n    pass"),
    ):
        assert _broad_excepts(ast.parse(src), module), src
    for module, src in (
        ("fields", "def first_failure(f, count):\n"
                   "    try:\n        pass\n    except Exception as err:\n        error = err"),
        ("verify", "class _Session:\n    def probe_compact(self):\n"
                   "        try:\n            pass\n        except Exception as err:\n            ok = False"),
        ("boundary", "def acc(x):\n    try:\n        pass\n"
                     "    except (ArithmeticError, ValueError) as err:\n        failure = err"),
    ):
        assert not _broad_excepts(ast.parse(src), module), src


#: The functions that may key by a batch's rows: ``point_key`` makes the key
#: (the only ``tobytes`` of the package), and ``row_memo`` alone uses it.
ROW_KEY_ALLOWED = {"fields.point_key": "tobytes", "fields.row_memo": "point_key"}

#: Expressions that would join a row key with something else, such as a jet
#: order or a tensor name.
COMPOSITE = (ast.Tuple, ast.List, ast.Set, ast.BinOp, ast.JoinedStr)


def _row_keys(tree, module):
    """``(function, line)`` of each row key made outside ``ROW_KEY_ALLOWED``
    (a call of ``point_key``, or of ``tobytes``), and of each one joined
    into a composite key anywhere."""

    def called(node):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and getattr(func, "id", getattr(func, "attr", None))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, scope + (child.name,))
                continue
            name = ".".join(scope)
            if called(child) in ("point_key", "tobytes"):
                if ROW_KEY_ALLOWED.get(f"{module}.{name}") != called(child):
                    yield name, child.lineno
            if isinstance(child, COMPOSITE) and any(
                called(sub) in ("point_key", "tobytes") for sub in ast.walk(child)
            ):
                yield name, child.lineno
            yield from visit(child, scope)

    return list(visit(tree, ()))


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_every_memo_is_keyed_by_rows_through_the_one_helper(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    found = _row_keys(tree, module.stem)
    assert not found, f"{module.name} makes a row key in {found}"


def test_the_row_key_rule_sees_a_copied_order_key():
    for module, src in (
        # the memo of a connection before it served lower orders
        ("affine",
         "class Connection:\n"
         "    def dense(self, points, order):\n"
         "        key = (point_key(points), order)\n"
         "        hit = self._cache.get(key)"),
        ("affine",
         "class Connection:\n"
         "    def _peek(self, points, order):\n"
         "        hit = self._cache.get((point_key(points), order))"),
        ("affine",
         "class CurvaturePack:\n"
         "    def dense(self, name, points, order):\n"
         "        key = (name, point_key(points), order)"),
        ("fields", "def row_memo(memo, points, order, evaluator):\n"
                   "    key = (point_key(points), order)"),
        ("fields", "def row_memo(memo, points, order, evaluator):\n"
                   "    key = point_key(points) + bytes([order])"),
        ("fields", "def row_memo(memo, points, order, evaluator):\n"
                   "    key = f'{point_key(points)}:{order}'"),
        ("tractor", "def omega(self, s, points, order):\n"
                    "    memo[fields.point_key(points)] = order"),
        ("verify", "def _run(geom, plan, rng, session):\n"
                   "    seen[points.tobytes(), order] = True"),
    ):
        assert _row_keys(ast.parse(src), module), src
    for module, src in (
        ("fields", "def point_key(points):\n"
                   "    return np.ascontiguousarray(points, dtype=float).tobytes()"),
        ("fields", "def row_memo(memo, points, order, evaluator):\n"
                   "    key = point_key(points)\n"
                   "    hit = memo.get(key)"),
        ("affine",
         "class Connection:\n"
         "    def dense(self, points, order):\n"
         "        return row_memo(self._memo, points, order, self._evaluator)"),
    ):
        assert not _row_keys(ast.parse(src), module), src


#: The rejection path of a geometry document: ``load_geometry`` imports
#: jsonschema only in the branch that ``_conforms`` sends a rejected document
#: down, and ``_doc_validator`` builds jsonschema's validator there.
JSONSCHEMA_BRANCH = "not _conforms("


def _jsonschema_imports(tree, module):
    """``(function, line)`` of each import of jsonschema in ``module`` (a
    file's stem) outside ``fields._doc_validator`` and the branch of
    ``fields.load_geometry`` whose test is ``not _conforms(...)``."""

    def imports(node):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            return False
        return any(name.split(".")[0] == "jsonschema" for name in names)

    def visit(nodes, scope, rejecting):
        for child in nodes:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child.body, scope + (child.name,), False)
                continue
            where = f"{module}.{'.'.join(scope)}"
            if imports(child) and not (
                where == "fields._doc_validator" or where == "fields.load_geometry" and rejecting
            ):
                yield ".".join(scope), child.lineno
            if isinstance(child, ast.If) and ast.unparse(child.test).startswith(JSONSCHEMA_BRANCH):
                yield from visit(child.body, scope, True)
                yield from visit(child.orelse, scope, rejecting)
                continue
            yield from visit(ast.iter_child_nodes(child), scope, rejecting)

    return list(visit(tree.body, (), False))


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_only_a_rejected_document_imports_jsonschema(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    found = _jsonschema_imports(tree, module.stem)
    assert not found, f"{module.name} imports jsonschema in {found}"


def test_the_jsonschema_rule_sees_an_import_on_the_valid_path():
    for module, src in (
        # the load that validated every document with jsonschema
        ("fields", "def load_geometry(doc):\n"
                   "    from jsonschema.exceptions import best_match\n"
                   "    err = best_match(_doc_validator().iter_errors(doc))"),
        ("fields", "import jsonschema"),
        ("fields", "def load_geometry(doc):\n"
                   "    if not _conforms(doc, GEOMETRY_DOC_SCHEMA):\n"
                   "        pass\n"
                   "    else:\n"
                   "        import jsonschema"),
        ("fields", "def load_geometry(doc):\n"
                   "    if not _conforms(doc, GEOMETRY_DOC_SCHEMA):\n"
                   "        def explain():\n"
                   "            import jsonschema"),
        ("cli", "def main():\n"
                "    if not _conforms(doc, GEOMETRY_DOC_SCHEMA):\n"
                "        from jsonschema import validate"),
    ):
        assert _jsonschema_imports(ast.parse(src), module), src
    for module, src in (
        ("fields", "def load_geometry(doc):\n"
                   "    if not _conforms(doc, GEOMETRY_DOC_SCHEMA):\n"
                   "        from jsonschema.exceptions import best_match\n"
                   "        err = best_match(_doc_validator().iter_errors(doc))"),
        ("fields", "def _doc_validator():\n"
                   "    from jsonschema.validators import validator_for"),
    ):
        assert not _jsonschema_imports(ast.parse(src), module), src
