import functools
import json
import math

import numpy as np
import pytest

from conftest import ladder, one
from jet_reference import jet_views
from tractorlab import expr as ex
from tractorlab.extrapolate import boundary_limit
from tractorlab.fields import (
    GEOMETRY_DOC_SCHEMA,
    Chart,
    Geometry,
    GeometryError,
    TensorField,
    _make_ray_boundary_sampler,
    builtin_geometry,
    load_geometry,
)
from tractorlab.jets import JetError, PoleError, jet_space


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
    pts = np.array(af2.interior_points(4, rng))
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
    (lambda: builtin_geometry("klein", 4), [1, 17]),            # rho, (g, rho)
    (lambda: builtin_geometry("af2_generic", 4), [1, 1, 16, 17]),  # C, rho, h, (g, rho)
    (lambda: load_geometry(json.loads(json.dumps(KLEIN3_DOC))), [1, 10]),
])
def test_one_metric_compile_per_build(monkeypatch, build, sizes):
    compiled = []
    real = ex.compile_tape

    def counting(exprs, variables):
        tape = real(exprs, variables)
        compiled.append((len(exprs), tape))
        return tape

    monkeypatch.setattr(ex, "compile_tape", counting)
    geom = build()
    assert [n for n, _ in compiled] == sizes
    assert geom.metric_field().tape is compiled[-1][1]
    assert len(compiled) == len(sizes)  # reading the field compiles nothing


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
    assert np.array_equal(np.array(got), np.array(want))
    # the search stops once the interval is two adjacent floats
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
])
def test_ray_search_matches_the_sequential_search(rho, box):
    # the geometry is not validated, so a rho that fails to load is searched
    coords = ("u1", "u2", "u3")
    lo, hi = np.array(box if box else [[-0.55] * 3, [0.55] * 3], dtype=float)
    geom = Geometry(name="ball", chart=Chart(coords), rho=ex.parse_expr(rho, coords),
                    alpha=2.0, metric=np.eye(3), interior_box=(lo, hi))
    search = _make_ray_boundary_sampler(geom)
    for seed in range(6):
        got = _search_outcome(search, seed)
        want = _search_outcome(functools.partial(_sequential_ray_point, geom), seed)
        assert got == want


def test_a_batch_past_the_domain_of_rho_falls_back_to_single_points(monkeypatch):
    doc = _ball_doc(f"sqrt(1 - {R2}) - 0.5")
    geom = load_geometry(doc)
    rows = []
    real = ex.Tape.run

    def run(self, points, space):
        rows.append(len(points))
        return real(self, points, space)

    monkeypatch.setattr(ex.Tape, "run", run)
    got = _search_outcome(geom.boundary_sampler, 3)
    assert rows.count(1) > 10  # the march runs that raised were rerun point by point
    monkeypatch.setattr(ex.Tape, "run", real)
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
    # 3 boundary points 2 march runs and 8 bisection trees: 35 runs (211
    # when the search probes one point at a time)
    assert len(runs) <= 40


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


def test_asymptotic_form_sources_are_parsed_once(monkeypatch):
    parsed = []
    real = ex.parse_expr

    def counting(src, variables=None):
        parsed.append(src)
        return real(src, variables)

    monkeypatch.setattr(ex, "parse_expr", counting)
    geom = builtin_geometry("af2_generic", 4, C="0.25 + y1")
    assert parsed.count("0.25 + y1") == 1
    assert len(parsed) == 1 + 16  # C and each entry of h; no metric text
    geom.metric_field()
    assert len(parsed) == 17


@pytest.mark.parametrize("name, dim", [
    ("af2_generic", 4), ("af2_generic", 5), ("af1_generic", 4), ("af1_generic", 5),
])
def test_asymptotic_form_metric_compiles_as_its_source_text(name, dim):
    # the metric ASTs compile to the same tape as the written-out form
    # (h_ij)/rho^p + [i = j = 0] (C)/rho^(2p)
    geom = builtin_geometry(name, dim)
    p = round(2.0 / geom.alpha)
    coords = geom.chart.coord_names
    text = np.empty((dim, dim), dtype=object)
    for i in range(dim):
        for j in range(dim):
            h = "0" if i != j else "1" if i == 0 else f"1 + rho*{coords[i]}^2"
            text[i, j] = f"({h})/rho^{p}" + (f" + (0.25)/rho^{2 * p}" if i == j == 0 else "")
    want = TensorField.from_exprs(
        geom.chart, text, "dd", sym=((0, 1),), extra=(geom.rho,)
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


@pytest.mark.parametrize("build", [
    lambda: builtin_geometry("klein", 3),
    lambda: builtin_geometry("klein", 4),
    lambda: builtin_geometry("klein", 5),
    lambda: builtin_geometry("af2_generic", 4),
    lambda: builtin_geometry("af2_generic", 5),
    lambda: builtin_geometry("af1_generic", 4),
    lambda: builtin_geometry("flat", 3),
    lambda: builtin_geometry("poincare_control", 3),
    lambda: load_geometry(json.loads(json.dumps(KLEIN3_DOC))),
    lambda: load_geometry(_off_centre_document()),
], ids=["klein-3", "klein-4", "klein-5", "af2_generic-4", "af2_generic-5",
        "af1_generic-4", "flat-3", "poincare_control-3", "klein-document",
        "off-centre-document"])
def test_the_rho_row_leaves_the_metric_bits_alone(build):
    # the metric tape carries rho as its last row: its metric rows are a
    # metric-only tape's at every order, and its rho row is the rho tape's
    # at the orders the integrator reads
    geom = build()
    alone = TensorField.from_exprs(geom.chart, geom.metric, "dd", sym=((0, 1),))
    pts = np.array(geom.interior_points(5, np.random.default_rng(3)))
    for order in range(4):
        rho, g = geom.rho_and_metric(pts, order)
        assert np.array_equal(g, alone.dense(pts, order)), order
        assert np.array_equal(g, geom.metric_field().dense(pts, order)), order
        if order <= 1:
            assert np.array_equal(rho, geom.rho_dense(pts, order)), order
