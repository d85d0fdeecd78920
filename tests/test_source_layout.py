"""The package computes with dense jet arrays only: the scalar ``Jet`` class
lives in ``tractorlab/jets.py`` as the reference the tests compare against,
and no other module may use it or the helpers of the removed scalar path."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tractorlab"
MODULES = sorted(SRC.glob("*.py"))

#: Helpers and accessors of the scalar-jet object path that left the package.
REMOVED = {
    "jet_views", "jet_stack", "jet_values", "jet_det", "jet_apply",
    "jet_partial", "jet_constant", "jet_variable", "APPLY_FUNCTIONS",
    "DEFAULT_ORDER", "_jet_call", "_scalar_array", "_float_call",
    "rho_jet", "tau_jet", "tau_hat_jet", "metric_jets", "components",
}


def _names(tree):
    """Every identifier a module binds, reads, imports or quotes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
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
