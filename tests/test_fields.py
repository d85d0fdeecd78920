import copy
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ladder, one
from jet_reference import jet_views
from tractorlab import expr as ex
from tractorlab.extrapolate import boundary_limit
from tractorlab.fields import (
    GEOMETRY_DOC_SCHEMA,
    MAX_DIM,
    Chart,
    Geometry,
    GeometryError,
    TensorField,
    _conforms,
    _make_ray_boundary_sampler,
    builtin_geometry,
    load_geometry,
)
from tractorlab.jets import DomainError, JetError, PoleError, jet_space


def test_flat_metric_is_identity(flat3):
    g = flat3.metric_field().dense(one((0.2, 0.1, -0.3)), 1)
    assert np.allclose(g[..., 0, 0], np.eye(3))


def test_klein_metric_at_origin(klein3):
    g = klein3.metric_field().dense(one((0.0, 0.0, 0.0)), 2)
    assert np.allclose(g[..., 0, 0], np.eye(3))


def test_klein_pole_at_boundary(klein3):
    with pytest.raises(PoleError):
        klein3.metric_field().dense(one((1.0, 0.0, 0.0)), 1)


def test_klein_closed_form(klein3):
    p = (0.3, -0.2, 0.1)
    x = np.array(p)
    rho = 1 - x @ x
    expected = np.eye(3) / rho + np.outer(x, x) / rho**2
    g = klein3.metric_field().dense(one(p), 0)[..., 0, 0]
    assert np.max(np.abs(g - expected)) < 1e-14


def test_chart_coords_take_a_batch_of_points(klein3):
    chart = Chart(("a", "b", "c"))
    assert chart.coords(one((0.1, 0.2, 0.3))).shape == (1, 3)
    # one point is a batch of one: a bare point is rejected, naming the shape
    for bad in ((0.1, 0.2, 0.3), np.zeros(3), np.zeros((2, 2)), np.zeros((1, 3, 1))):
        with pytest.raises(GeometryError, match=r"\(B, 3\) array"):
            chart.coords(bad)
    with pytest.raises(GeometryError, match=r"\(B, 3\) array, got shape \(3,\)"):
        klein3.rho_value(np.zeros(3))


def test_symmetry_is_exact(af2, rng):
    # the declared symmetry holds bit for bit, at every jet coefficient of
    # every point of a batch
    pts = af2.interior_points(4, rng)
    g = af2.metric_field().dense(pts, 1)
    assert np.array_equal(g, g.transpose(1, 0, 2, 3))


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
    for p in map(one, geom.interior_points(5, rng)):
        g = geom.metric_field().dense(p, 0)[..., 0, 0]
        (rho,), grad = geom.rho_and_drho(p)
        grad = grad[:, 0]
        rem = rho * g - np.eye(3) - 0.25 * np.outer(grad, grad) / rho
        assert np.max(np.abs(rem)) < 1e-12

    delta = np.array([["1" if i == j else "0" for j in range(4)] for i in range(4)],
                     dtype=object)
    af = builtin_geometry("af2_generic", 4, h=delta)
    for p in map(one, af.interior_points(5, rng)):
        g = af.metric_field().dense(p, 0)[..., 0, 0]
        (rho,), grad = af.rho_and_drho(p)
        grad = grad[:, 0]
        rem = rho * g - np.eye(4) - 0.25 * np.outer(grad, grad) / rho
        assert np.max(np.abs(rem)) < 1e-12


def test_poincare_volume_law_fails(poincare3, klein3):
    # the order-2 law needs det(g) ~ rho^-(n+2); for the conformally compact
    # ball rho^(n+2) det(g) still diverges, while the Klein ball gives 1
    y = (1.0, 0.0, 0.0)

    def scaled_det(geom):
        def f(p):
            g = geom.metric_field().dense(p, 0)[..., 0]
            det = np.linalg.det(np.moveaxis(g, -1, 0))  # g at a ladder batch
            return geom.rho_value(p) ** (geom.dim + 1) * abs(det)

        (est,) = boundary_limit(f, [ladder(geom, y)])
        return est

    assert scaled_det(poincare3).diverged
    est = scaled_det(klein3)
    assert not est.diverged
    assert est.value == pytest.approx(1.0, abs=1e-10)


def test_klein_radial_boundedness(klein3):
    # rho^2 g(mu, mu) for the Euclidean radial unit field stays bounded
    geom = klein3
    vals = []
    for s in (0.9, 0.99, 0.999):
        p = one((s, 0.0, 0.0))
        g = geom.metric_field().dense(p, 0)[..., 0, 0]
        mu = np.array([1.0, 0.0, 0.0])
        vals.append(geom.rho_value(p)[0] ** 2 * float(mu @ g @ mu))
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
    for p in map(one, klein3.interior_points(10, rng)):
        a = geom.metric_field().dense(p, 1)[..., 0, 0]
        b = klein3.metric_field().dense(p, 1)[..., 0, 0]
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
    p = one(geom.interior_points(1, rng)[0])
    g = geom.metric_field().dense(p, 0)[..., 0, 0]
    (rho,) = geom.rho_value(p)
    expected = np.eye(4) / rho
    expected[0, 0] += 0.25 / rho**2
    assert np.max(np.abs(g - expected)) < 1e-12


def test_af_boundary_h_degeneracy_rejected():
    h = np.array([["rho" if i == j else "0" for j in range(4)] for i in range(4)],
                  dtype=object)
    with pytest.raises(GeometryError):
        builtin_geometry("af2_generic", 4, h=h)


def test_tensor_field_shape_validation():
    outputs = [
        np.empty(3, dtype=object),
        np.zeros((3, 3)),
        # the dense shape without the batch axis
        np.zeros((2, 3)),
        # an object array of scalar jets with the field's tensor shape
        jet_views(np.zeros((2, 3)), jet_space(2, 1)),
        # an object array with the dense shape
        np.zeros((2, 3)).astype(object),
    ]
    for output in outputs:
        bad = TensorField(Chart(("a", "b")), "d", lambda p, k: output)
        with pytest.raises(GeometryError):
            bad.dense(one((0.0, 0.0)), 1)


def test_boundary_samplers(klein3, af2, flat3):
    rng = np.random.default_rng(0)
    for geom in (klein3, af2, flat3):
        for y in map(one, geom.boundary_points(4, rng)):
            (rho,), grad = geom.rho_and_drho(y)
            assert abs(rho) < 1e-10
            assert np.linalg.norm(grad[:, 0]) > 1e-8


def test_interior_sampler_stays_interior(af1):
    rng = np.random.default_rng(0)
    for p in af1.interior_points(10, rng):
        assert af1.rho_value(one(p))[0] > 0.05


# -- loader contracts -------------------------------------------------------


def _af_doc(**changes):
    doc = {
        "kind": "asymptotic_form",
        "dim": 3,
        "alpha": 2.0,
        "C": 0.25,
        "h": [["1" if i == j else "0" for j in range(3)] for i in range(3)],
    }
    doc.update(changes)
    return doc


def _klein_doc(dim):
    coords = [f"u{i}" for i in range(1, dim + 1)]
    rho = "1 - (" + " + ".join(f"{c}^2" for c in coords) + ")"
    metric = [[(f"1/({rho}) + " if i == j else "") + f"{ci}*{cj}/({rho})^2"
               for j, cj in enumerate(coords)] for i, ci in enumerate(coords)]
    return {"dim": dim, "coords": coords, "rho": rho, "alpha": 2.0,
            "metric": metric}


def test_geometry_doc_schema_is_valid():
    from jsonschema.validators import validator_for

    validator_for(GEOMETRY_DOC_SCHEMA).check_schema(GEOMETRY_DOC_SCHEMA)


def test_load_geometry_schema_messages_match_jsonschema():
    import jsonschema
    from test_cli_fuzz import DOCUMENTS

    docs = []
    for text, _ in DOCUMENTS.values():
        try:
            docs.append(json.loads(text))
        except json.JSONDecodeError:
            continue
    docs += [
        None,
        "klein",
        {},
        dict(KLEIN3_DOC, dim="3"),
        dict(KLEIN3_DOC, extra=1),
        dict(KLEIN3_DOC, metric=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        dict(KLEIN3_DOC, coords="x0"),
        _af_doc(C=[0.25]),
        _af_doc(kind="asymptotic"),
        _af_doc(dim=2),
        {k: v for k, v in _af_doc().items() if k != "h"},
    ]
    rejected = 0
    for doc in docs:
        try:
            jsonschema.validate(doc, GEOMETRY_DOC_SCHEMA)
        except jsonschema.ValidationError as expected:
            rejected += 1
            with pytest.raises(GeometryError) as err:
                load_geometry(doc)
            assert str(err.value) == f"geometry document rejected: {expected.message}"
    assert rejected >= 12


#: Values a mutated document takes: what JSON can hold, and the Python and
#: numpy numbers whose types the schema tells apart.
#: Values a changed document takes: what JSON can hold, the Python and
#: numpy numbers whose types the schema tells apart, and integers below a
#: ``dim`` minimum, at its maximum and above it.
ODD_VALUES = [
    None, True, 1, 2, 3, 3.0, 2.5, math.nan, math.inf, np.float64(3.0), np.int64(3),
    MAX_DIM, MAX_DIM + 1, float(MAX_DIM + 1), 10**9,
    "x", "asymptotic_form", "1 + u1", ("x",), [1], [["x"], [None]],
]
#: Keys a changed document gains, the schema's among them.
ODD_KEYS = ["name", "dim", "coords", "rho", "alpha", "metric", "interior_box",
            "kind", "C", "h", "extra", 1, None, 2.5, True]
_VALUES = st.recursive(
    st.sampled_from(ODD_VALUES).map(copy.deepcopy),  # a mutation may change it
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner),
    max_leaves=6,
)


def _schema_docs():
    return [
        _klein_doc(3),
        _af_doc(name="af", coords=["rho", "y1", "y2"], interior_box=[[0.1] * 3, [0.9] * 3]),
    ]


def _containers(doc):
    """The document's dicts and lists, the document first."""
    found = [doc] if isinstance(doc, (dict, list)) else []
    for node in found:
        inner = node.values() if isinstance(node, dict) else node
        found += [v for v in inner if isinstance(v, (dict, list))]
    return found


def _single_changes():
    """Each document with one value replaced by each odd value, one key or
    element dropped, or one odd key added, at every depth."""
    for base in _schema_docs():
        for k in range(len(_containers(base))):
            node = _containers(base)[k]
            for key in list(node) if isinstance(node, dict) else range(len(node)):
                for value in ODD_VALUES:
                    doc = json.loads(json.dumps(base))
                    _containers(doc)[k][key] = value
                    yield doc
                doc = json.loads(json.dumps(base))
                del _containers(doc)[k][key]
                yield doc
        for key in ODD_KEYS:
            for value in ("x", 3):
                yield {**base, key: value}


@st.composite
def _mutated_documents(draw):
    """A Klein or asymptotic-form document with some of its dicts and lists,
    or the whole of it, changed: keys dropped or added, values replaced."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_schema_docs()))))
    for _ in range(draw(st.integers(1, 4))):
        containers = _containers(doc)
        if not containers or draw(st.integers(0, 9)) == 0:
            doc = draw(_VALUES)
            continue
        node = draw(st.sampled_from(containers))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if keys and draw(st.booleans()):
            del node[draw(st.sampled_from(keys))]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(ODD_KEYS + keys))] = draw(_VALUES)
        elif keys:
            node[draw(st.sampled_from(keys))] = draw(_VALUES)
        else:
            node.append(draw(_VALUES))
    return doc


def _schema_validator():
    from jsonschema.validators import validator_for

    return validator_for(GEOMETRY_DOC_SCHEMA)(GEOMETRY_DOC_SCHEMA)


def test_the_schema_check_agrees_with_jsonschema_on_each_single_change():
    validator, seen = _schema_validator(), [0, 0]
    for doc in _single_changes():
        valid = validator.is_valid(doc)
        assert _conforms(doc, GEOMETRY_DOC_SCHEMA) == valid, doc
        seen[valid] += 1
    assert min(seen) > 50, seen  # both verdicts are well represented


@settings(max_examples=400, deadline=None)
@given(doc=_mutated_documents())
def test_the_schema_check_agrees_with_jsonschema(doc):
    assert _conforms(doc, GEOMETRY_DOC_SCHEMA) == _schema_validator().is_valid(doc)


@pytest.mark.parametrize("value, schema, valid", [
    (True, {"type": "number"}, False),
    (True, {"type": "integer"}, False),
    (3.0, {"type": "integer"}, True),
    (np.float64(3.0), {"type": "integer"}, True),
    (np.int64(3), {"type": "integer"}, False),
    (np.int64(3), {"type": "number"}, True),
    (math.nan, {"type": "number", "minimum": 2}, True),
    ("1", {"type": "string", "minimum": 2}, True),
    (1, {"minimum": 2}, False),
    (("a",), {"type": "array"}, False),
    ((1,), {"items": {"type": "string"}}, True),
    ({1: "a"}, {"properties": {"a": {}}, "additionalProperties": False}, False),
    (2.5, {"oneOf": [{"type": "number"}, {"minimum": 2}]}, False),
    (3, {"maximum": 3}, True),
    (3.5, {"type": "number", "maximum": 3}, False),
    (math.inf, {"type": "number", "maximum": 3}, False),
    (math.nan, {"type": "number", "maximum": 3}, True),
    ("4", {"type": "string", "maximum": 3}, True),
    (10**9, {"type": "integer", "minimum": 3, "maximum": 16}, False),
])
def test_the_schema_check_reads_types_as_jsonschema_does(value, schema, valid):
    from jsonschema.validators import validator_for

    assert validator_for(schema)(schema).is_valid(value) == valid
    assert _conforms(value, schema) == valid


@pytest.mark.parametrize("schema", [
    {"type": "string", "maxLength": 3},
    {"type": "boolean"},
    {"type": ["string", "null"]},
    {"const": 3},
    {"additionalProperties": {"type": "string"}},
    {"oneOf": [{"type": "string"}, {"type": "null"}]},
])
def test_the_schema_check_raises_on_a_keyword_it_does_not_implement(schema):
    # whatever the value, also one that an implemented keyword rejects
    for value in (None, 3, "x", {"name": "b"}):
        with pytest.raises(ValueError, match="not implemented"):
            _conforms(value, schema)
    # a subschema is read when its value is
    nested = {"type": "object", "properties": {"name": schema}}
    assert _conforms({}, nested)
    with pytest.raises(ValueError, match="not implemented"):
        _conforms({"name": "b"}, nested)


def test_a_valid_document_loads_without_importing_jsonschema():
    script = (
        "import json, sys\n"
        "from tractorlab.fields import GeometryError, load_geometry\n"
        "load_geometry(json.loads(sys.argv[1]))\n"
        "print('jsonschema' in sys.modules)\n"
        "try:\n"
        "    load_geometry(dict(json.loads(sys.argv[1]), dim='3'))\n"
        "except GeometryError as err:\n"
        "    print(err)\n"
        "print('jsonschema' in sys.modules)\n"
    )
    src = str(Path(ex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(dict(_klein_doc(3), name="klein"))],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=120, check=True,
    )
    loaded, rejected, after = done.stdout.splitlines()
    assert loaded == "False"
    assert rejected.startswith("geometry document rejected: ")
    assert after == "True"


@pytest.mark.parametrize("name, message", [
    ("pi", "coordinate name 'pi' is a constant"),
    ("a b", "coordinate name 'a b' is not one identifier"),
    ("", "coordinate name '' is not one identifier"),
    ("1x", "coordinate name '1x' is not one identifier"),
    ("u1 ", "coordinate name 'u1 ' is not one identifier"),
])
def test_a_coordinate_name_must_be_one_variable(name, message):
    klein = _klein_doc(3)
    klein["coords"][0] = name
    af = _af_doc(coords=["rho", name, "y2"])
    for doc in (klein, af):
        with pytest.raises(GeometryError) as err:
            load_geometry(doc)
        assert str(err.value) == message
    # a flat document whose first coordinate is pi: the metric it writes,
    # not one with the constant in place of the coordinate
    flat = {"dim": 3, "coords": ["pi", "b", "c"], "rho": "1 - b", "alpha": 2.0,
            "metric": [["1" if i == j else "0" for j in range(3)] for i in range(3)]}
    flat["metric"][2][2] = "1 + pi^2"
    with pytest.raises(GeometryError, match="'pi' is a constant"):
        load_geometry(flat)


@pytest.mark.parametrize("alpha", [0, -0.0, math.nan, math.inf, -1.0, 3.0])
def test_an_asymptotic_form_alpha_outside_its_range_is_rejected_first(alpha):
    with pytest.raises(GeometryError) as err:
        load_geometry(_af_doc(alpha=alpha, C="1/0"))
    assert str(err.value) == f"alpha must lie in (0, 2], got {float(alpha)}"


def test_load_geometry_symmetric_pair_written_differently():
    doc = _klein_doc(3)
    doc["metric"][0][1] = "u1*u2"
    doc["metric"][1][0] = "u2*u1"
    geom = load_geometry(doc)
    # the pair shares one tape row, so the full tape is no longer than one
    # compiled from the upper triangle alone
    upper = [ex.parse_expr(doc["metric"][i][j], geom.chart.coord_names)
             for i in range(3) for j in range(i, 3)]
    assert len(geom.metric_field().tape) == len(
        ex.compile_tape(upper, geom.chart.coord_names))
    doc["metric"][1][0] = "u2*u1 + u3"
    with pytest.raises(GeometryError, match="asymmetric"):
        load_geometry(doc)


def test_load_geometry_asymptotic_form_interior_box():
    box = [[0.2, -0.3, -0.3], [0.8, 0.3, 0.3]]
    geom = load_geometry(_af_doc(interior_box=box))
    assert np.array_equal(np.array(geom.interior_box), box)
    for p in geom.interior_points(20, np.random.default_rng(0)):
        assert np.all(np.array(p) >= box[0]) and np.all(np.array(p) <= box[1])
    with pytest.raises(GeometryError, match="interior_box must be two finite"):
        load_geometry(_af_doc(interior_box=[[0, 0], [1, 1]]))


@pytest.mark.parametrize("coords, message", [
    (["y1", "rho", "y2"], "must start with 'rho', got 'y1'"),
    (["rho", "y1"], "got 2 coordinate names for dim 3"),
    (["rho", "y1", "y2", "y3"], "got 4 coordinate names for dim 3"),
])
def test_load_geometry_asymptotic_form_coords(coords, message):
    with pytest.raises(GeometryError, match=message):
        load_geometry(_af_doc(coords=coords))


@pytest.mark.parametrize("changes", [
    {"interior_box": [[0, 0], [1, 1]]},
    {"coords": ["y1", "rho", "y2"]},
    {"coords": ["rho", "y1"]},
])
def test_cli_rejects_bad_asymptotic_form_documents(tmp_path, capsys, changes):
    from tractorlab.cli import main

    path = tmp_path / "af.json"
    path.write_text(json.dumps(_af_doc(**changes)))
    code = main(["eval", "--geometry", str(path), "--quantity", "schouten",
                 "--point=0.5,0.1,0.1"])
    assert code == 2
    assert "could not load geometry" in capsys.readouterr().err


# -- work done per geometry build --------------------------------------------


@pytest.mark.parametrize("build, sizes", [
    (lambda: builtin_geometry("klein", 4), [17]),            # (g, rho)
    (lambda: builtin_geometry("af2_generic", 4), [34]),  # (g, C, h, rho)
    (lambda: load_geometry(json.loads(json.dumps(KLEIN3_DOC))), [10]),
])
def test_one_metric_compile_per_build(monkeypatch, build, sizes):
    # an asymptotic form's C and h are rows of its metric tape, the one
    # compile of a build, between the metric's rows and rho's
    compiled = []
    real = ex.compile_tape

    def counting(exprs, variables):
        tape = real(exprs, variables)
        compiled.append((list(exprs), tape))
        return tape

    monkeypatch.setattr(ex, "compile_tape", counting)
    geom = build()
    assert [len(exprs) for exprs, _ in compiled] == sizes
    (roots, tape), d = compiled[-1], geom.dim
    assert geom.metric_field().tape is tape
    assert all(a is b for a, b in zip(roots, geom.metric.flat)) and roots[-1] is geom.rho
    assert len(compiled) == len(sizes)  # reading the field compiles nothing
    # each row is its root's, as compiled one at a time
    pts = geom.interior_points(2, np.random.default_rng(0))
    rows, space = tape.run(pts, jet_space(d, 1)), jet_space(d, 1)
    for k, root in enumerate(roots):
        alone = real([root], geom.chart.coord_names).run(pts, space)[0]
        assert np.array_equal(rows[k], alone), k


@pytest.mark.parametrize("dim, emits", [(3, 27), (4, 39), (5, 53)])
def test_a_klein_entry_and_its_transpose_are_one_node(monkeypatch, dim, emits):
    # g[j, i] is the node g[i, j], so the compile visits it once; the tape is
    # that of the entries built apart, x_i x_j / rho^2 below the diagonal
    geom = builtin_geometry("klein", dim)
    g = geom.metric
    assert all(g[i, j] is g[j, i] for i in range(dim) for j in range(dim))
    apart = g.copy()
    for i, j in zip(*np.tril_indices(dim, -1)):
        div = g[j, i]  # x_j x_i / rho^2
        apart[i, j] = ex.Div(ex.Mul(div.left.right, div.left.left), div.right)
    calls = []
    real = ex._TapeBuilder.emit
    monkeypatch.setattr(ex._TapeBuilder, "emit", lambda *a: calls.append(1) or real(*a))
    shared = _tape_layout(dataclasses.replace(geom, metric=g).metric_field().tape)
    assert len(calls) == emits
    assert shared == _tape_layout(dataclasses.replace(geom, metric=apart).metric_field().tape)
    assert len(calls) == 2 * emits + 2 * (dim * (dim - 1) // 2)  # the apart Mul and Div


def _reference_ray_point(geom, rng):
    """The ray search with all 80 bisection steps."""
    lo, hi = geom.interior_box
    center = (np.asarray(lo) + np.asarray(hi)) / 2.0
    while True:
        v = rng.normal(size=geom.dim)
        v /= math.sqrt(float(v @ v))
        s_in, s_out, s = 0.0, None, 0.05
        for _ in range(400):
            if geom.rho_value(one(center + s * v))[0] <= 0:
                s_out = s
                break
            s_in = s
            s += 0.05
        if s_out is None:
            continue
        for _ in range(80):
            mid = 0.5 * (s_in + s_out)
            if geom.rho_value(one(center + mid * v))[0] > 0:
                s_in = mid
            else:
                s_out = mid
        return center + 0.5 * (s_in + s_out) * v


@pytest.mark.parametrize("name", ["flat", "klein", "af2_generic", "poincare_control"])
def test_sampled_points_are_a_batch(name):
    # a (count, dim) float array, like every other point list of the package,
    # holding the sampler's draws in order
    geom = builtin_geometry(name, 3)
    for count in (0, 1, 4):
        for sample in (geom.interior_points, geom.boundary_points):
            pts = sample(count, np.random.default_rng(2))
            assert isinstance(pts, np.ndarray) and pts.dtype == float, sample
            assert pts.shape == (count, 3), sample
    rng = np.random.default_rng(2)
    draws = [geom.boundary_sampler(rng) for _ in range(4)]
    assert np.array_equal(geom.boundary_points(4, np.random.default_rng(2)), draws)


@pytest.mark.parametrize("dim", [3, 4])
def test_ray_sampler_matches_full_bisection(monkeypatch, dim):
    geom = load_geometry(_klein_doc(dim))
    calls = []
    rho_value = geom.rho_value
    monkeypatch.setattr(geom, "rho_value", lambda p: calls.append(1) or rho_value(p))
    got = geom.boundary_points(5, np.random.default_rng(7))
    n_calls = len(calls)
    rng = np.random.default_rng(7)
    want = [_reference_ray_point(geom, rng) for _ in range(5)]
    assert np.array_equal(got, np.array(want))
    # the search stops once the interval is two adjacent floats, and one
    # batched run checks a predicted bisection path: 2 march runs and about
    # one bisection run per point
    assert n_calls <= 20
    assert n_calls < len(calls) - n_calls


def _sequential_ray_point(geom, rng):
    """The ray search probing one point at a time, each as a batch of one:
    the reference the batched search must match bit for bit, draws and
    errors included."""
    lo, hi = geom.interior_box
    center = (np.asarray(lo) + np.asarray(hi)) / 2.0
    for _ in range(64):
        v = rng.normal(size=geom.dim)
        v /= math.sqrt(float(v @ v))
        s_in, s_out, s = 0.0, None, 0.05
        for _ in range(400):
            if geom.rho_value(one(center + s * v))[0] <= 0:
                s_out = s
                break
            s_in = s
            s += 0.05
        if s_out is None:
            continue
        for _ in range(80):
            mid = 0.5 * (s_in + s_out)
            if mid == s_in or mid == s_out:
                break
            if geom.rho_value(one(center + mid * v))[0] > 0:
                s_in = mid
            else:
                s_out = mid
        return center + 0.5 * (s_in + s_out) * v
    raise GeometryError(f"could not find boundary points for {geom.name!r} by ray search")


def _ball_doc(rho, box=None):
    doc = _klein_doc(3)
    doc["rho"] = rho
    doc["metric"] = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    if box is not None:
        doc["interior_box"] = box
    return doc


def _search_outcome(search, seed, count=4):
    """The points a search gives from a seeded RNG (or the error it raises)
    and the RNG state after it."""
    rng = np.random.default_rng(seed)
    try:
        got = np.array([search(rng) for _ in range(count)]).tobytes()
    except (GeometryError, JetError) as err:
        got = f"{type(err).__name__}: {err}"
    return got, rng.bit_generator.state


R2 = "(u1^2 + u2^2 + u3^2)"


@pytest.mark.parametrize("rho, box", [
    ("1 - " + R2, None),
    # off-centre ellipsoid in an off-centre box
    ("1 - ((u1 - 0.2)^2/0.8 + (u2 + 0.1)^2*1.5 + u3^2*1.2)",
     [[-0.3, -0.5, -0.4], [0.6, 0.3, 0.5]]),
    # log is undefined past |u| = sqrt(2), where the march never goes
    (f"log(2 - {R2})", None),
    # a batched march run reaches |u| > 1, where sqrt is undefined: the
    # run raises and its rows are evaluated one at a time
    (f"sqrt(1 - {R2}) - 0.5", None),
    # the one-at-a-time search itself meets the undefined sqrt at |u| = 1
    (f"sqrt(1 - {R2}) + 0.1", None),
    # rays along -u1 never leave the half space and are drawn again
    ("0.5 - u1", None),
    # the centre lies outside: every midpoint does too, and the bisection
    # closes in on s = 0 until its 80-step cap
    (f"{R2} - 0.5", None),
    # cancellation noise: the sign flips across a zone about 1e-8 wide, so
    # the secant's predictions fail again and again
    ("(1 + 1e8*u1) - (1e8*u1 + u1^2 + u2^2 + u3^2)", None),
])
def test_ray_search_matches_the_sequential_search(rho, box):
    # the geometry is not validated, so a rho that fails to load is searched
    coords = ("u1", "u2", "u3")
    lo, hi = np.array(box if box else [[-0.55] * 3, [0.55] * 3], dtype=float)
    geom = Geometry(name="ball", chart=Chart(coords), rho=ex.parse_expr(rho, coords),
                    alpha=2.0, metric=np.where(np.eye(3), "1", "0").astype(object),
                    interior_box=(lo, hi))
    search = _make_ray_boundary_sampler(geom)
    for seed in range(6):
        got = _search_outcome(search, seed)
        want = _search_outcome(functools.partial(_sequential_ray_point, geom), seed)
        assert got == want


def test_a_batch_past_the_domain_of_rho_bisects_to_its_first_failing_point(monkeypatch):
    doc = _ball_doc(f"sqrt(1 - {R2}) - 0.5")
    geom = load_geometry(doc)
    runs = []  # (points, raised) of each rho run, in order
    real = ex.Tape.run

    def run(self, points, space):
        runs.append((np.array(points), True))
        values = real(self, points, space)
        runs[-1] = (runs[-1][0], False)
        return values

    monkeypatch.setattr(ex.Tape, "run", run)
    got = _search_outcome(geom.boundary_sampler, 3)
    monkeypatch.setattr(ex.Tape, "run", real)
    # a run of a prefix of the last batch, or of one of its points, goes on
    # that batch's search for its first failing point
    batches = []
    for points, raised in runs:
        lead = batches[-1][0] if batches else np.zeros((0, 3))
        n = len(points)
        if n < len(lead) and (
            np.array_equal(lead[:n], points)
            or (n == 1 and (lead == points).all(axis=1).any())
        ):
            batches[-1][2] += 1
        else:
            batches.append([points, raised, 0])
    raising = [(len(lead), after) for lead, raised, after in batches if raised]
    assert raising  # the march runs past |u| = 1, where sqrt is undefined
    for size, after in raising:
        assert after <= math.ceil(math.log2(size)) + 1
    assert all(after == 0 for _, raised, after in batches if not raised)
    assert got == _search_outcome(functools.partial(_sequential_ray_point, geom), 3)


def test_log_document_loads_with_the_sequential_points():
    geom = load_geometry(_ball_doc(f"log(2 - {R2})"))
    for seed in range(3):
        got = _search_outcome(geom.boundary_sampler, seed)
        assert got == _search_outcome(functools.partial(_sequential_ray_point, geom), seed)
        assert isinstance(got[0], bytes)


def test_rho_positive_on_every_ray_fails_to_load(tmp_path, capsys):
    from tractorlab.cli import main

    doc = _ball_doc("2 + u1^2")
    with pytest.raises(GeometryError, match="could not find boundary points .* by ray search"):
        load_geometry(doc)
    path = tmp_path / "positive.json"
    path.write_text(json.dumps(doc))
    code = main(["eval", "--geometry", str(path), "--quantity", "schouten",
                 "--point=0.1,0.2,-0.1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "by ray search" in err and "Traceback" not in err


def test_a_centre_near_the_boundary_exits_on_the_first_march_step():
    # the ball of radius 0.04 about the box centre: every ray leaves it
    # before the first march step at 0.05, and is bisected from s_in = 0
    geom = load_geometry(_ball_doc(f"0.16 - 100*{R2}", [[-0.02] * 3, [0.02] * 3]))
    got = _search_outcome(geom.boundary_sampler, 0)
    assert got == _search_outcome(functools.partial(_sequential_ray_point, geom), 0)
    radii = np.linalg.norm(np.frombuffer(got[0]).reshape(-1, 3), axis=1)
    assert np.allclose(radii, 0.04, rtol=1e-12)


def test_a_document_build_makes_few_tape_runs(monkeypatch):
    runs = []
    real = ex.Tape.run
    monkeypatch.setattr(ex.Tape, "run", lambda self, p, s: runs.append(1) or real(self, p, s))
    load_geometry(_klein_doc(3))
    # 3 interior rho values, one metric run, one d(rho) run, and for each of
    # 3 boundary points 2 march runs and one run of the predicted bisection
    # path: 14 runs (211 when the search probes one point at a time)
    assert len(runs) <= 20


def test_cli_rejects_metric_with_interior_pole(tmp_path, capsys):
    from tractorlab.cli import main

    doc = json.loads(json.dumps(KLEIN3_DOC))
    doc["metric"][0][0] = "1/(x0 - x0)"
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    code = main(["eval", "--geometry", str(path), "--quantity", "schouten",
                 "--point=0.1,0.2,-0.1"])
    assert code == 2
    assert "vanishing value" in capsys.readouterr().err


def test_c_is_read_from_the_tape_at_the_chart_origin():
    # C may depend on the coordinates; the geometry keeps its origin value
    geom = builtin_geometry("af2_generic", 4, C="0.25*exp(y1) + rho*y2")
    assert geom.constructor_C == 0.25
    h = np.array([["1" if i == j else "0" for j in range(3)] for i in range(3)])
    assert builtin_geometry("af1_generic", 3, C=-1.0, h=h).constructor_C == -1.0


def test_only_a_document_named_klein_carries_the_klein_constant():
    # an explicit-metric document states no asymptotic constant; the
    # benchmark's klein document relies on its name for the Klein model's
    assert load_geometry({**_klein_doc(3), "name": "klein"}).constructor_C == 0.25
    assert load_geometry(_klein_doc(3)).constructor_C is None  # named custom


def test_an_asymptotic_form_source_is_text_or_a_number():
    with pytest.raises(GeometryError, match="C must be an expression"):
        builtin_geometry("af2_generic", 3, C=ex.Num(0.25))


def _bad_h(**entries):
    """The 3x3 identity as asymptotic-form text, with ``entries`` (keyed
    ``"ij"``) replaced."""
    h = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    for key, text in entries.items():
        h[int(key[0])][int(key[1])] = text
    return h


_NO_C = "asymptotic-form constant C has no value at the chart origin: "
_ZERO_C = "asymptotic-form constant C must be finite and nonzero, got "


@pytest.mark.parametrize("params, kind, message", [
    ({"C": "1/0"}, GeometryError,
     _NO_C + "constant subexpression div(1, 0): float division by zero"),
    ({"C": "(0-1)^0.5"}, GeometryError,
     _NO_C + "constant subexpression pow(-1, 0.5): not a finite real number"),
    ({"C": "log(rho-1)"}, GeometryError, _NO_C + "log of non-positive value -1.000e+00"),
    ({"C": 0}, GeometryError, _ZERO_C + "0.0"),
    ({"C": 1e-13}, GeometryError, _ZERO_C + "1e-13"),
    ({"C": 0, "h": _bad_h(**{"00": "1/0"})}, GeometryError, _ZERO_C + "0.0"),  # C first
    ({"h": _bad_h(**{"01": "log(0-1)"})}, ex.ExprError,
     "constant subexpression log(-1): math domain error"),
    ({"h": _bad_h(**{"12": "1/0", "21": "log(0-1)"})}, ex.ExprError,
     "constant subexpression div(1, 0): float division by zero"),  # row order
    ({"h": _bad_h(**{"12": "log(0-1)", "21": "1/0"})}, ex.ExprError,
     "constant subexpression log(-1): math domain error"),
    # two entries that fail at the boundary: the error of h's tape alone
    ({"h": _bad_h(**{"02": "sqrt(rho-1)", "20": "1/(rho*rho)"})}, DomainError,
     "sqrt of non-positive value -1.000e+00"),
    ({"h": _bad_h(**{"12": "rho^0.5", "21": "1/rho"})}, DomainError,
     "non-integer power of non-positive value 0.000e+00"),
    ({"h": _bad_h(**{"11": "rho"})}, GeometryError,  # the same boundary draws
     "boundary data h of 'af2_generic' degenerate tangentially at "
     "(0.0, -0.10658479365456647, -0.3607796038979285)"),
    ({"h": _bad_h(**{"12": "1", "21": "0"})}, GeometryError,  # h[1, 2] read as both
     "boundary data h of 'af2_generic' degenerate tangentially at "
     "(0.0, -0.10658479365456647, -0.3607796038979285)"),
])
def test_an_asymptotic_form_build_error_keeps_its_type_message_and_precedence(
        params, kind, message):
    with pytest.raises(Exception) as err:
        builtin_geometry("af2_generic", 3, **params)
    assert type(err.value) is kind
    assert str(err.value) == message


def test_an_ast_component_with_an_unknown_name_is_named_before_a_compile_error():
    # an earlier component that cannot compile does not hide the name
    geom = builtin_geometry("klein", 3)
    metric = geom.metric.copy()
    metric[0, 1] = ex.Div(ex.Num(1.0), ex.Num(0.0))
    metric[1, 2] = ex.Add(ex.Var("x0"), ex.Var("w"))
    for g in (metric, geom.metric.copy()):
        g[1, 2] = metric[1, 2]
        with pytest.raises(Exception) as err:
            dataclasses.replace(geom, metric=g).metric_field()
        assert type(err.value) is GeometryError
        assert str(err.value) == "component (1, 2) of 'g' uses unknown names ['w']"


def test_asymptotic_form_sources_are_parsed_once(monkeypatch):
    parsed = []
    real = ex.parse_exprs

    def counting(sources, variables=None):
        parsed.extend(sources)
        return real(sources, variables)

    monkeypatch.setattr(ex, "parse_exprs", counting)
    geom = builtin_geometry("af2_generic", 4, C="0.25 + y1")
    assert parsed.count("0.25 + y1") == 1
    # C, each entry of h and the coordinate rho, in one call; no metric text
    assert len(parsed) == 1 + 16 + 1
    geom.metric_field()
    assert len(parsed) == 18


@pytest.mark.parametrize("name, dim", [
    ("af2_generic", 4), ("af2_generic", 5), ("af1_generic", 4), ("af1_generic", 5),
])
def test_asymptotic_form_metric_compiles_as_its_source_text(name, dim):
    # the metric ASTs compile to the same tape as the written-out form
    # (h_ij)/rho^p + [i = j = 0] (C)/rho^(2p)
    geom = builtin_geometry(name, dim)
    p = round(2.0 / geom.alpha)
    coords = geom.chart.coord_names
    text, h = np.empty((dim, dim), dtype=object), []
    for i in range(dim):
        for j in range(dim):
            h.append("0" if i != j else "1" if i == 0 else f"1 + rho*{coords[i]}^2")
            text[i, j] = f"({h[-1]})/rho^{p}" + (f" + (0.25)/rho^{2 * p}" if i == j == 0 else "")
    # then the rows of C and of h, and rho's last
    extra = ex.parse_exprs(["0.25", *h], coords)
    want = TensorField.from_exprs(
        geom.chart, text, "dd", sym=((0, 1),), extra=(*extra, geom.rho)
    ).tape
    got = geom.metric_field().tape
    assert got.code == want.code
    assert np.array_equal(got.const_values, want.const_values)
    assert np.array_equal(got.outputs, want.outputs)


def _off_centre_document():
    """A document whose rho (an off-centre ball) is no subexpression of its
    metric, so rho adds instructions of its own to the metric tape."""
    return {"name": "off-centre", "dim": 3, "coords": ["u1", "u2", "u3"],
            "rho": "0.81 - (u1 - 0.1)^2 - u2^2 - u3^2", "alpha": 2.0,
            "metric": [["1 + u1^2", "0", "0"], ["0", "1", "0"], ["0", "0", "exp(u2)"]]}


def _benchmark_klein_document(dim):
    """The benchmark's explicit-metric klein document, from
    ``perfbench/workloads.py`` imported unchanged."""
    path = str(Path(__file__).resolve().parents[1] / "perfbench")
    if path not in sys.path:
        sys.path.append(path)
    import workloads

    return workloads.klein_document(dim)


#: Every catalog pair and four documents, by id.
BUILDS = {
    "klein-3": lambda: builtin_geometry("klein", 3),
    "klein-4": lambda: builtin_geometry("klein", 4),
    "klein-5": lambda: builtin_geometry("klein", 5),
    "af2_generic-4": lambda: builtin_geometry("af2_generic", 4),
    "af2_generic-5": lambda: builtin_geometry("af2_generic", 5),
    "af1_generic-4": lambda: builtin_geometry("af1_generic", 4),
    "flat-3": lambda: builtin_geometry("flat", 3),
    "poincare_control-3": lambda: builtin_geometry("poincare_control", 3),
    "klein-document": lambda: load_geometry(json.loads(json.dumps(KLEIN3_DOC))),
    "off-centre-document": lambda: load_geometry(_off_centre_document()),
    "benchmark-klein-3": lambda: load_geometry(_benchmark_klein_document(3)),
    "benchmark-klein-4": lambda: load_geometry(_benchmark_klein_document(4)),
}


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS)
def test_the_rho_row_leaves_the_metric_bits_alone(build):
    # the metric tape carries rho as its last row: its metric rows are a
    # metric-only tape's, and its rho row is rho_dense's, at every order
    geom = build()
    alone = TensorField.from_exprs(geom.chart, geom.metric, "dd", sym=((0, 1),))
    pts = geom.interior_points(5, np.random.default_rng(3))
    for order in range(4):
        rho, g = geom.rho_and_metric(pts, order)
        assert np.array_equal(g, alone.dense(pts, order)), order
        assert np.array_equal(g, geom.metric_field().dense(pts, order)), order
        assert np.array_equal(rho, geom.rho_dense(pts, order)), order


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS)
def test_rho_is_compiled_once_per_geometry(monkeypatch, build):
    compiled = []
    real = ex.compile_tape

    def counting(exprs, variables):
        compiled.append(exprs)
        return real(exprs, variables)

    monkeypatch.setattr(ex, "compile_tape", counting)
    geom = build()
    pts = geom.interior_points(2, np.random.default_rng(0))
    for order in range(3):
        geom.rho_dense(pts, order)
        geom.metric_field().dense(pts, order)
        geom.rho_and_metric(pts, order)
    assert sum(any(e is geom.rho for e in exprs) for exprs in compiled) == 1
    tape = geom.metric_field().tape
    assert tape.outputs[-1:].tolist() == geom._rho_row.outputs.tolist()


def _distinct_subexpressions(roots) -> int:
    """How many structurally distinct subexpressions the roots have, a
    literal told apart by ``float.hex``: the node count of their DAG when each
    distinct subexpression is one node."""
    canon: dict[tuple, int] = {}
    number: dict[int, int] = {}  # node id -> canonical number
    stack = list(roots)
    while stack:
        node = stack[-1]
        if id(node) in number:
            stack.pop()
            continue
        values = [getattr(node, f.name) for f in dataclasses.fields(node)]
        pending = [v for v in values if not isinstance(v, (str, float)) and id(v) not in number]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        key = (type(node),) + tuple(
            v.hex() if isinstance(v, float) else v if isinstance(v, str) else number[id(v)]
            for v in values
        )
        number[id(node)] = canon.setdefault(key, len(canon))
    return len(canon)


def _tape_layout(tape):
    """``code``, ``steps``, ``outputs`` and ``const_values`` of a tape as plain
    lists, slices and index arrays alike."""
    def slots(x):
        return None if x is None else np.arange(tape.n_slots)[x].tolist()

    steps = [(op, slots(out), slots(a), slots(b),
              param.tolist() if isinstance(param, np.ndarray) else param)
             for op, out, a, b, param in tape.steps]
    return tape.code, steps, tape.outputs.tolist(), tape.const_values.tolist()


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS)
def test_the_metric_tape_is_that_of_its_components_parsed_one_at_a_time(monkeypatch, build):
    # the shared-node DAG of a build compiles to the tape of the components
    # parsed one string at a time, and its compile emits each distinct node
    # once; a second build repeats the first build's work exactly
    emits = []
    real_emit, real_compile = ex._TapeBuilder.emit, ex.compile_tape
    compiled = []  # (expressions, emit calls) of each compile

    def counting_emit(self, e, args):
        emits.append(e)
        return real_emit(self, e, args)

    def counting_compile(exprs, variables):
        start = len(emits)
        tape = real_compile(exprs, variables)
        compiled.append((exprs, len(emits) - start))
        return tape

    monkeypatch.setattr(ex._TapeBuilder, "emit", counting_emit)
    monkeypatch.setattr(ex, "compile_tape", counting_compile)
    per_build = []
    for _ in range(2):
        emits.clear()
        compiled.clear()
        geom = build()
        tape = geom.metric_field().tape
        per_build.append([n for _, n in compiled])
    # the roots: the metric's, then an asymptotic form's C and h, then rho
    ((roots, metric_emits),) = [(exprs, n) for exprs, n in compiled if exprs[-1] is geom.rho]
    d = geom.dim
    assert len(roots) == (2 * d * d + 2 if geom.name.startswith("af") else d * d + 1)
    assert all(a is b for a, b in zip(roots, geom.metric.flat))
    assert metric_emits == _distinct_subexpressions(roots)
    assert per_build[0] == per_build[1] and len(per_build[0]) == 1  # one compile per build
    coords = geom.chart.coord_names
    alone = real_compile([ex.parse_expr(ex.expr_to_source(e), coords) for e in roots], coords)
    got, want = _tape_layout(tape), _tape_layout(alone)
    assert got[0] == want[0]  # code
    assert got[1] == want[1]  # steps
    assert got[2] == want[2]  # outputs
    assert got[3] == want[3]  # const_values


@pytest.mark.parametrize("component, message", [
    ("x0*x1 + w", "unknown identifier(s) ['w']"),
    ("x0*x1 + 1)", "trailing input after expression (at offset 9)"),
    ("(" * 101 + "x0" + ")" * 101, "expression nested deeper than 100 levels (at offset 100)"),
])
def test_a_bad_document_component_keeps_its_parse_error(component, message):
    doc = json.loads(json.dumps(KLEIN3_DOC))
    doc["metric"][1][2] = doc["metric"][2][1] = component
    with pytest.raises(ex.ExprError) as alone:
        ex.parse_expr(component, tuple(doc["coords"]))
    with pytest.raises(ex.ExprError) as err:
        load_geometry(doc)
    assert str(err.value) == str(alone.value) == message
    assert err.value.offset == alone.value.offset
