import json

import numpy as np
import pytest

from conftest import jet_values
from tractorlab.extrapolate import boundary_ladder, richardson_limit
from tractorlab.fields import (
    Chart,
    GeometryError,
    TensorField,
    builtin_geometry,
    load_geometry,
)
from tractorlab.jets import PoleError


def test_flat_metric_is_identity(flat3):
    g = flat3.metric_field().components((0.2, 0.1, -0.3), 1)
    assert np.allclose(jet_values(g), np.eye(3))


def test_klein_metric_at_origin(klein3):
    g = klein3.metric_field().components((0.0, 0.0, 0.0), 2)
    assert np.allclose(jet_values(g), np.eye(3))


def test_klein_pole_at_boundary(klein3):
    with pytest.raises(PoleError):
        klein3.metric_field().components((1.0, 0.0, 0.0), 1)


def test_klein_closed_form(klein3):
    p = (0.3, -0.2, 0.1)
    x = np.array(p)
    rho = 1 - x @ x
    expected = np.eye(3) / rho + np.outer(x, x) / rho**2
    g = klein3.metric_field().components(p, 0)
    assert np.max(np.abs(jet_values(g) - expected)) < 1e-14


def test_symmetry_is_exact(af2, rng):
    p = af2.interior_points(1, rng)[0]
    assert af2.metric_field().symmetry_defect(p, 1) == 0.0


def test_dim_validation():
    with pytest.raises(GeometryError):
        builtin_geometry("klein", 2)
    with pytest.raises(GeometryError):
        builtin_geometry("nosuch", 3)


def test_af2_matches_klein_leading_asymptotics(klein3):
    # rho*g - h - C drho^2/rho vanishes identically for both data shapes
    # (h = delta for the Klein ball).
    geom = klein3
    rng = np.random.default_rng(5)
    for p in geom.interior_points(5, rng):
        g = jet_values(geom.metric_field().components(p, 0))
        rho = geom.rho_value(p)
        grad = geom.drho(p)
        rem = rho * g - np.eye(3) - 0.25 * np.outer(grad, grad) / rho
        assert np.max(np.abs(rem)) < 1e-12

    delta = np.array([["1" if i == j else "0" for j in range(4)] for i in range(4)],
                     dtype=object)
    af = builtin_geometry("af2_generic", 4, h=delta)
    for p in af.interior_points(5, rng):
        g = jet_values(af.metric_field().components(p, 0))
        rho = af.rho_value(p)
        grad = af.drho(p)
        rem = rho * g - np.eye(4) - 0.25 * np.outer(grad, grad) / rho
        assert np.max(np.abs(rem)) < 1e-12


def test_poincare_volume_law_fails(poincare3, klein3):
    # the order-2 law needs det(g) ~ rho^-(n+2); for the conformally compact
    # ball rho^(n+2) det(g) still diverges, while the Klein ball gives 1
    y = (1.0, 0.0, 0.0)

    def scaled_det(geom):
        def f(p):
            g = jet_values(geom.metric_field().components(p, 0))
            return geom.rho_value(p) ** (geom.dim + 1) * abs(np.linalg.det(g))

        ladder = boundary_ladder(geom, y)
        return richardson_limit([f(p) for _, p in ladder])

    assert scaled_det(poincare3).diverged
    est = scaled_det(klein3)
    assert not est.diverged
    assert est.value == pytest.approx(1.0, abs=1e-10)


def test_klein_radial_boundedness(klein3):
    # rho^2 g(mu, mu) for the Euclidean radial unit field stays bounded
    geom = klein3
    vals = []
    for s in (0.9, 0.99, 0.999):
        p = (s, 0.0, 0.0)
        g = jet_values(geom.metric_field().components(p, 0))
        mu = np.array([1.0, 0.0, 0.0])
        vals.append(geom.rho_value(p) ** 2 * float(mu @ g @ mu))
    assert max(vals) < 10.0


KLEIN3_DOC = {
    "name": "klein-doc",
    "dim": 3,
    "coords": ["x0", "x1", "x2"],
    "rho": "1 - (x0^2 + x1^2 + x2^2)",
    "alpha": 2.0,
    "metric": [
        [
            "1/(1 - (x0^2 + x1^2 + x2^2)) + x0*x0/(1 - (x0^2 + x1^2 + x2^2))^2",
            "x0*x1/(1 - (x0^2 + x1^2 + x2^2))^2",
            "x0*x2/(1 - (x0^2 + x1^2 + x2^2))^2",
        ],
        [
            "x0*x1/(1 - (x0^2 + x1^2 + x2^2))^2",
            "1/(1 - (x0^2 + x1^2 + x2^2)) + x1*x1/(1 - (x0^2 + x1^2 + x2^2))^2",
            "x1*x2/(1 - (x0^2 + x1^2 + x2^2))^2",
        ],
        [
            "x0*x2/(1 - (x0^2 + x1^2 + x2^2))^2",
            "x1*x2/(1 - (x0^2 + x1^2 + x2^2))^2",
            "1/(1 - (x0^2 + x1^2 + x2^2)) + x2*x2/(1 - (x0^2 + x1^2 + x2^2))^2",
        ],
    ],
}


def test_load_geometry_roundtrip(klein3):
    doc = json.loads(json.dumps(KLEIN3_DOC))
    geom = load_geometry(doc)
    rng = np.random.default_rng(2)
    for p in klein3.interior_points(10, rng):
        a = jet_values(geom.metric_field().components(p, 1))
        b = jet_values(klein3.metric_field().components(p, 1))
        assert np.max(np.abs(a - b)) < 1e-12


def test_load_geometry_missing_rho():
    doc = {k: v for k, v in KLEIN3_DOC.items() if k != "rho"}
    with pytest.raises(GeometryError) as err:
        load_geometry(doc)
    assert "rejected" in str(err.value)


def test_load_geometry_asymmetric_metric():
    doc = json.loads(json.dumps(KLEIN3_DOC))
    doc["metric"][0][1] = "x0*x1/(1 - (x0^2 + x1^2 + x2^2))^2 + 1"
    with pytest.raises(GeometryError) as err:
        load_geometry(doc)
    assert "asymmetric" in str(err.value)


def test_load_geometry_asymptotic_form(af2):
    doc = {
        "kind": "asymptotic_form",
        "dim": 4,
        "alpha": 2.0,
        "C": 0.25,
        "h": [["1" if i == j else "0" for j in range(4)] for i in range(4)],
    }
    geom = load_geometry(doc)
    assert geom.alpha == 2.0
    rng = np.random.default_rng(3)
    p = geom.interior_points(1, rng)[0]
    g = jet_values(geom.metric_field().components(p, 0))
    rho = geom.rho_value(p)
    expected = np.eye(4) / rho
    expected[0, 0] += 0.25 / rho**2
    assert np.max(np.abs(g - expected)) < 1e-12


def test_af_boundary_h_degeneracy_rejected():
    h = np.array([["rho" if i == j else "0" for j in range(4)] for i in range(4)],
                  dtype=object)
    with pytest.raises(GeometryError):
        builtin_geometry("af2_generic", 4, h=h)


def test_tensor_field_shape_validation(klein3):
    bad = TensorField(Chart(("a", "b")), "d", lambda p, k: np.empty(3, dtype=object))
    with pytest.raises(GeometryError):
        bad.components((0.0, 0.0), 1)


def test_boundary_samplers(klein3, af2, flat3):
    rng = np.random.default_rng(0)
    for geom in (klein3, af2, flat3):
        for y in geom.boundary_points(4, rng):
            assert abs(geom.rho_value(y)) < 1e-10
            assert np.linalg.norm(geom.drho(y)) > 1e-8


def test_interior_sampler_stays_interior(af1):
    rng = np.random.default_rng(0)
    for p in af1.interior_points(10, rng):
        assert af1.rho_value(p) > 0.05
