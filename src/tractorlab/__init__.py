"""Numerical projective tractor calculus on manifolds with boundary.

The package evaluates curvature, tractor and boundary-asymptotic quantities
of projectively compact geometries with truncated Taylor (jet) arithmetic,
and ships a registry of proposition-level numerical checks together with a
command line front end (``tractorlab verify`` / ``tractorlab eval``).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "JetError": "jets",
    "PoleError": "jets",
    "DomainError": "jets",
    "jet_space": "jets",
    "parse_expr": "expr",
    "expr_to_source": "expr",
    "ExprError": "expr",
    "Chart": "fields",
    "TensorField": "fields",
    "Geometry": "fields",
    "GeometryError": "fields",
    "builtin_geometry": "fields",
    "load_geometry": "fields",
    "Connection": "affine",
    "levi_civita": "affine",
    "projective_modify": "affine",
    "rho_connection": "affine",
    "curvature": "affine",
    "covariant_derivative": "affine",
    "canonical_tau": "affine",
    "defining_density_check": "affine",
    "TractorCalculus": "tractor",
    "SamplingPlan": "verify",
    "run_suite": "verify",
    "registry": "verify",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'tractorlab' has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
