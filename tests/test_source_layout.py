"""Source layout rules of the package.

It computes with dense jet arrays only: the scalar ``Jet`` class lives in
``tractorlab/jets.py`` as the reference the tests compare against, and no
other module may use it or the helpers of the removed scalar path.  Boundary
ladders are placed once per boundary point and passed as values, so the
ladder settings ``eps0`` and ``levels`` are named only where a ladder is
placed (``extrapolate``) and where a sampling plan sets them (``verify``,
``cli``).  A run's connections, curvature packs and tau are built by its
``TractorCalculus`` alone, so only ``tractor`` calls their builders.  The
point functions of the boundary quantities live in ``boundary``, so the
command line evaluates no tensor, curvature pack or inverse of its own.
Expressions are evaluated only through compiled tapes: the recursive
interpreter ``evaluate`` is a test reference (``tests/expr_reference.py``)."""

import ast
import importlib
from pathlib import Path

import pytest

import tractorlab

SRC = Path(__file__).resolve().parents[1] / "src" / "tractorlab"
MODULES = sorted(SRC.glob("*.py"))

#: Helpers and accessors of the scalar-jet object path, the per-call
#: ladder options of the transversal integrator, the builders that bypassed
#: the calculus, the second expression evaluator, and unused names, that
#: left the package.
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
}

#: The builders of the connections, curvature packs and tau of a geometry;
#: only the calculus (``tractor.py``) calls them.
BUILDERS = {"levi_civita", "rho_connection", "canonical_tau", "CurvaturePack"}

#: Calls ``cli.py`` leaves to the point functions of ``boundary``.
CLI_FORBIDDEN = {"dense", "pack_of", "np.linalg.inv"}

#: The modules that place ladders or set their sampling plan.
LADDER_SETTINGS = {"eps0", "levels"}
LADDER_MODULES = {"extrapolate.py", "verify.py", "cli.py"}


def _names(tree):
    """Every identifier a module binds, reads, imports or quotes, including
    parameters and keyword arguments."""
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
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
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
    found = sorted({(name, line) for name, line in _names(tree) if name in REMOVED})
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
