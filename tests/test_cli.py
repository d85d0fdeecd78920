import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tractorlab
from tractorlab.boundary import POINT_QUANTITIES
from tractorlab.cli import EVAL_QUANTITIES, main
from tractorlab.extrapolate import boundary_ladder, boundary_limit
from tractorlab.fields import builtin_geometry
from tractorlab.tractor import TractorCalculus
from tractorlab.verify import SamplingPlan


def _reject(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_loads(text):
    """Parse a report as strict JSON (NaN and Infinity are rejected)."""
    return json.loads(text, parse_constant=_reject)


def test_eval_scalar_curvature(capsys):
    code = main([
        "eval", "--geometry", "klein", "--dim", "3",
        "--quantity", "scalar_curvature", "--point", "0,0,0",
    ])
    assert code == 0
    doc = strict_loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(-6.0, abs=1e-12)


def test_eval_gamma_at_boundary(capsys):
    code = main([
        "eval", "--geometry", "klein", "--dim", "3", "--quantity", "gamma",
        "--boundary-point", "1,0,0", "--extrapolate",
    ])
    assert code == 0
    doc = strict_loads(capsys.readouterr().out)
    assert len(doc["tangential"]) == 2
    assert doc["tangential"][0][0] == pytest.approx(-1.0, abs=1e-6)
    assert doc["extrapolation_error"] < 1e-8


def test_eval_pole_without_extrapolate():
    code = main([
        "eval", "--geometry", "klein", "--dim", "3", "--quantity", "l_tau",
        "--boundary-point", "1,0,0",
    ])
    assert code == 2


@pytest.mark.parametrize("argv, text", [
    (["klein", "--dim", "3", "--point", "2,0,0"],
     "(2.0, 0.0, 0.0) is not an interior point (rho = -3)"),
    (["af2_generic", "--dim", "4", "--point", "-0.1,0,0,0"],
     "(-0.1, 0.0, 0.0, 0.0) is not an interior point (rho = -0.1)"),
    # within 1e-8 of the boundary the point is evaluated, and meets the pole
    (["klein", "--dim", "3", "--point", "1,0,0"], "pole at (1.0, 0.0, 0.0)"),
])
def test_eval_rejects_a_point_outside_the_manifold(capsys, argv, text):
    assert main(["eval", "--quantity", "schouten", "--geometry"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {text}") and "Traceback" not in err


def _flat_document(rho, g00="1"):
    """A flat metric (its first entry replaced by ``g00``) on the set where
    ``rho`` is positive."""
    return {"name": "flat-ball", "dim": 3, "coords": ["x0", "x1", "x2"], "rho": rho,
            "alpha": 2.0, "metric": [[g00, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}


@pytest.mark.parametrize("where", [
    ["--boundary-point", "2,0,0", "--extrapolate"],
    ["--point", "2,0,0"],
])
def test_a_point_outside_the_domain_of_rho_exits_two(tmp_path, capsys, where):
    path = tmp_path / "shell.json"
    path.write_text(json.dumps(_flat_document("sqrt(1 - (x0^2 + x1^2 + x2^2)) - 0.5")))
    argv = ["eval", "--geometry", str(path), "--quantity", "scalar_curvature"] + where
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == ("error: (2.0, 0.0, 0.0) is outside the domain of rho "
                   "(sqrt of non-positive value -3.000e+00)\n")


def test_an_interior_point_outside_the_domain_of_the_metric_is_no_pole(tmp_path, capsys):
    path = tmp_path / "sqrt.json"
    path.write_text(json.dumps(_flat_document("1 - (x0^2 + x1^2 + x2^2)", "sqrt(0.9 - x0)")))
    argv = ["eval", "--geometry", str(path), "--quantity", "schouten", "--point", "0.95,0,0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: (0.95, 0.0, 0.0) is outside the domain of the "
                          "geometry's expressions (sqrt of non-positive value")
    assert "pole" not in err


@pytest.mark.parametrize("quantity, y, plan, text", [
    ("scalar_curvature", "1,0,0", ["--eps0", "5"],
     "eps0=5, levels=6: could not place a ladder point at rho=5 from (1.0, 0.0, 0.0)"),
    ("scalar_curvature", "1,0,0", ["--eps0", "1e-30"], "eps0=1e-30, levels=6: reciprocal"),
    ("scalar_curvature", "1,0,0", ["--levels", "40"], "eps0=0.05, levels=40: reciprocal"),
    ("phi", "1,0,0,0", ["--levels", "40"], "eps0=0.05, levels=40: reciprocal"),
    ("phi", "1,0,0,0", ["--eps0", "1e-30"], "eps0=1e-30, levels=6: reciprocal"),
])
def test_a_ladder_that_cannot_be_placed_or_meets_a_pole_exits_two(capsys, quantity, y, plan, text):
    argv = ["eval", "--geometry", "klein", "--dim", str(y.count(",") + 1), "--quantity",
            quantity, "--boundary-point", y, "--extrapolate"] + plan
    assert main(argv) == 2
    point = str(tuple(float(c) for c in y.split(",")))
    assert capsys.readouterr().err.startswith(
        f"error: no boundary value of {quantity} at {point} on the ladder {text}"
    )


def test_a_boundary_point_where_drho_vanishes_prints_plain_floats(tmp_path, capsys):
    # the apex of the light cone c^2 = a^2 + b^2 is on rho = 0 with d(rho) = 0
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({
        "name": "cone", "dim": 3, "coords": ["a", "b", "c"], "alpha": 2.0,
        "rho": "c^2 - (a^2 + b^2)",
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "interior_box": [[-0.1, -0.1, 0.4], [0.1, 0.1, 0.6]],
    }))
    argv = ["eval", "--geometry", str(path), "--quantity", "scalar_curvature",
            "--boundary-point", "0,0,0", "--extrapolate"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: no boundary value of scalar_curvature at (0.0, 0.0, 0.0) on the ladder "
        "eps0=0.05, levels=6: d(rho) vanishes at (0.0, 0.0, 0.0)\n"
    )


@pytest.mark.parametrize("option, coords, extra", [
    ("--point", "-0.1,0.2,0", ["--quantity", "schouten"]),
    ("--point", "-1e-1,-0.2,-0", ["--quantity", "scalar_curvature"]),
    ("--boundary-point", "-1,0,0", ["--quantity", "gamma", "--extrapolate"]),
])
def test_negative_coordinates_print_the_same_bytes_in_both_spellings(
    capsys, option, coords, extra
):
    head = ["eval", "--geometry", "klein", "--dim", "3"] + extra
    outputs = []
    for spelling in ([option, coords], [f"{option}={coords}"]):
        assert main(head + spelling) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert strict_loads(outputs[0])["point"] == coords


@pytest.mark.parametrize("value", ["-0.1,zz,0", "-x", "-0.1,,0"])
def test_unparsable_point_values_still_exit_two(capsys, value):
    try:
        code = main([
            "eval", "--geometry", "klein", "--dim", "3", "--quantity", "schouten",
            "--point", value,
        ])
    except SystemExit as exc:  # argparse reads the value as an option
        code = exc.code
    assert code == 2


def test_eval_unknown_quantity_rejected(capsys):
    with pytest.raises(SystemExit):
        main([
            "eval", "--geometry", "klein", "--dim", "3",
            "--quantity", "nosuch", "--point", "0,0,0",
        ])


def test_verify_unknown_geometry():
    assert main(["verify", "--geometry", "nosuch"]) == 2


def test_verify_unknown_check():
    assert main([
        "verify", "--geometry", "klein", "--dim", "3", "--checks", "bogus",
    ]) == 2


def test_verify_subset_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--geometry", "af1_generic", "--dim", "4",
        "--checks", "weyl-traces,bianchi,prop-3.2-i",
        "--points", "4", "--boundary-points", "2",
        "--out", str(out),
    ])
    assert code == 0
    docs = strict_loads(out.read_text())
    assert [d["id"] for d in docs] == ["prop-3.2-i", "weyl-traces", "bianchi"]
    assert all(d["status"] == "pass" for d in docs)


def test_verify_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = main([
        "verify", "--geometry", "af1_generic", "--dim", "4",
        "--checks", "bianchi", "--points", "3", "--out", str(out),
        "--format", "csv",
    ])
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][0] == "id"
    assert rows[1][0] == "bianchi" and rows[1][1] == "pass"


def test_verify_poincare_exits_one(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--geometry", "poincare_control", "--dim", "3",
        "--checks", "defining-density,rho-connection-extends,weyl-traces",
        "--points", "4", "--boundary-points", "2", "--out", str(out),
    ])
    assert code == 1
    docs = {d["id"]: d for d in strict_loads(out.read_text())}
    assert docs["defining-density"]["status"] == "fail"
    assert docs["rho-connection-extends"]["status"] == "fail"
    assert docs["weyl-traces"]["status"] == "pass"


def test_verify_stderr_names_the_failed_facet(tmp_path, capsys):
    code = main([
        "verify", "--geometry", "poincare_control", "--dim", "3",
        "--checks", "rho-connection-extends", "--boundary-points", "2",
        "--out", str(tmp_path / "report.json"),
    ])
    assert code == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.split(None, 2) == [
        "rho-connection-extends", "fail",
        "(diverged: residual inf against tolerance 1e-05)",
    ]


def test_the_seed_environment_variable_changes_no_report(tmp_path, monkeypatch):
    # --seed is the only way to set the seed: TRACTORLAB_SEED, once a second
    # way that overrode the flag, is ignored
    args = [
        "verify", "--geometry", "af1_generic", "--dim", "4",
        "--checks", "tractor-curv-consistency",  # its details name its points
    ]
    outs = {name: tmp_path / f"{name}.json" for name in ("env", "plain", "seed7")}
    monkeypatch.setenv("TRACTORLAB_SEED", "7")
    main(args + ["--out", str(outs["env"])])
    monkeypatch.setenv("TRACTORLAB_SEED", "not a number")
    assert main(args + ["--seed", "7", "--out", str(outs["seed7"])]) == 0
    monkeypatch.delenv("TRACTORLAB_SEED")
    main(args + ["--out", str(outs["plain"])])
    assert outs["env"].read_text() == outs["plain"].read_text()
    assert outs["env"].read_text() != outs["seed7"].read_text()


def test_geometry_document_loading(tmp_path, capsys):
    doc = {
        "kind": "asymptotic_form",
        "dim": 4,
        "alpha": 2.0,
        "C": 0.25,
        "h": [["1" if i == j else "0" for j in range(4)] for i in range(4)],
    }
    path = tmp_path / "geom.json"
    path.write_text(json.dumps(doc))
    code = main([
        "eval", "--geometry", str(path), "--quantity", "scalar_curvature",
        "--point", "0.5,0.1,0.2,0.3",
    ])
    assert code == 0
    out = strict_loads(capsys.readouterr().out)
    assert out["geometry"] == "asymptotic_form"


@pytest.mark.parametrize("flags", [
    ["--param", "C=0.5"],
    ["--param", "C=0.5", "--param", "bogus=1"],
    ["--dim", "7"],
    ["--dim", "4", "--param", "C=0.5"],
])
def test_a_document_rejects_builtin_flags(flags, tmp_path, capsys):
    # a document defines its own parameters and dimension: --param, and a
    # --dim other than the document's, are configuration errors
    path = tmp_path / "geom.json"
    path.write_text(json.dumps(_klein_doc()))
    code = main(["eval", "--geometry", str(path), *flags,
                 "--quantity", "schouten", "--point", "0.1,0.2,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--param" in captured.err or "--dim 7" in captured.err
    assert "Traceback" not in captured.err


def test_a_document_takes_its_own_dim(tmp_path, capsys):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps(_klein_doc()))
    argv = ["eval", "--geometry", str(path), "--quantity", "schouten",
            "--point", "0.1,0.2,0"]
    outputs = []
    for extra in ([], ["--dim", "3"]):
        assert main(argv + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert strict_loads(outputs[0])["dim"] == 3
    # a builtin still defaults to dim 4
    assert main(["eval", "--geometry", "klein", "--quantity", "schouten",
                 "--point", "0.1,0.2,0,0"]) == 0
    assert strict_loads(capsys.readouterr().out)["dim"] == 4


def test_skipped_check_residual_is_null(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--geometry", "af1_generic", "--dim", "4",
        "--checks", "prop-2.2-dense", "--out", str(out),
    ])
    assert code == 0
    (doc,) = strict_loads(out.read_text())
    assert doc["status"] == "skip" and doc["max_residual"] is None


@pytest.mark.parametrize("argv", [
    ["verify", "--eps0", "-0.05"],
    ["verify", "--points", "0"],
    ["verify", "--boundary-points", "0"],
    ["verify", "--levels", "1"],
    ["verify", "--ode-step", "0"],
    ["verify", "--ode-horizon", "0"],
    ["eval", "--levels", "1", "--quantity", "gamma",
     "--boundary-point", "1,0,0", "--extrapolate"],
    # fewer than 4 RK4 steps: 2.5 rounds to 2 (two collar parameters would
    # share a sample), 0.4 to 0 (a transversal of one sample)
    ["verify", "--ode-step", "0.02", "--ode-horizon", "0.05"],
    ["verify", "--ode-step", "0.5"],
])
def test_invalid_sampling_plan_exits_two(argv, capsys):
    code = main(argv[:1] + ["--geometry", "klein", "--dim", "3"] + argv[1:])
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid sampling plan" in err and "Traceback" not in err


def test_eval_non_finite_value_exits_two(monkeypatch, capsys):
    import tractorlab.cli as cli

    monkeypatch.setattr(cli, "_eval_quantity", lambda geom, args, plan: (math.nan, None))
    code = main([
        "eval", "--geometry", "klein", "--dim", "3",
        "--quantity", "scalar_curvature", "--point", "0,0,0",
    ])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "not finite" in captured.err


_NO_BOUNDARY_VALUE = {
    # on the flat control gamma diverges and the Schouten tensor is singular
    "gamma": ("flat", "1,0.2,0.1"),
    "t_vector": ("flat", "1,0.2,0.1"),
    # on klein-4 the metric tractor curvature diverges along the diagonal
    "phi": ("klein", "0.5,0.5,0.5,0.5"),
}


@pytest.mark.parametrize("quantity", list(_NO_BOUNDARY_VALUE))
def test_eval_without_boundary_value_exits_two(quantity, capsys):
    geometry, point = _NO_BOUNDARY_VALUE[quantity]
    code = main([
        "eval", "--geometry", geometry, "--dim", str(point.count(",") + 1),
        "--quantity", quantity, f"--boundary-point={point}", "--extrapolate",
    ])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("geometry,dim,y", [
    ("klein", 3, (0.6, 0.0, 0.8)),
    ("af2_generic", 4, (0.0, 0.3, -0.2, 0.4)),
])
@pytest.mark.parametrize("quantity", ["scalar_curvature", "gamma", "t_vector"])
def test_eval_extrapolates_the_table_point_function(geometry, dim, y, quantity, capsys):
    # eval and the checks share one point function per quantity: the eval's
    # boundary value is, float for float, the limit of the table entry
    code = main([
        "eval", "--geometry", geometry, "--dim", str(dim), "--quantity", quantity,
        "--boundary-point=" + ",".join(map(str, y)), "--extrapolate",
    ])
    assert code == 0
    doc = strict_loads(capsys.readouterr().out)
    calc = TractorCalculus(builtin_geometry(geometry, dim))
    plan = SamplingPlan()
    lad = boundary_ladder(calc.geom, y, eps0=plan.eps0, levels=plan.levels)
    (est,) = boundary_limit(lambda p: POINT_QUANTITIES[quantity](calc, p), [lad])
    value = doc["full"] if quantity == "gamma" else doc["value"]
    assert value == np.asarray(est.value).tolist()
    assert doc["extrapolation_error"] == est.error


def test_point_quantities_cover_the_pointwise_eval_quantities():
    assert set(POINT_QUANTITIES) == set(EVAL_QUANTITIES) - {"h_asymptotic", "phi"}


def _klein_doc():
    rho = "1 - (x0^2 + x1^2 + x2^2)"
    metric = [[(f"1/({rho}) + " if i == j else "") + f"x{i}*x{j}/({rho})^2"
               for j in range(3)] for i in range(3)]
    return {"name": "klein-doc", "dim": 3, "coords": ["x0", "x1", "x2"],
            "rho": rho, "alpha": 2.0, "metric": metric}


def _bad_box(doc):
    doc["interior_box"] = [[-0.5]]


def _complex_constant(doc):
    doc["metric"][0][0] += " + (0-1)^0.5"


def _nested(doc):
    doc["metric"][0][0] = "(" * 2000 + doc["metric"][0][0] + ")" * 2000


def _syntax(doc):
    doc["metric"][1][1] = "1 +* x0"


def _long_sum(doc):
    doc["metric"][0][0] += " + 0*x1" * 3000


@pytest.mark.parametrize("edit,expected", [
    (_bad_box, 2), (_complex_constant, 2), (_nested, 2), (_syntax, 2),
    (_long_sum, 0),
])
def test_geometry_document_contracts(edit, expected, tmp_path, capsys):
    doc = _klein_doc()
    edit(doc)
    path = tmp_path / "geom.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["verify", "--geometry", str(path), "--checks", "bianchi",
                 "--points", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == expected and "Traceback" not in err
    if expected == 2:
        assert "could not load geometry" in err
    else:
        (report,) = strict_loads(out.read_text())
        assert report["status"] == "pass"


def test_parser_is_built_once_and_calls_do_not_share_params(capsys):
    from tractorlab import cli

    assert cli._build_parser() is cli._build_parser()
    parser = cli._build_parser()
    assert parser.parse_args(
        ["eval", "--geometry", "klein", "--quantity", "weyl", "--param", "C=0.5"]
    ).param == ["C=0.5"]
    assert parser.parse_args(["eval", "--geometry", "klein", "--quantity", "weyl"]).param == []

    argv = ["eval", "--geometry", "af2_generic", "--dim", "4",
            "--quantity", "schouten", "--point", "0.4,0.2,-0.3,0.1"]
    outputs = []
    for params in (["C=0.5"], ["C=0.25"], [], ["C"], []):
        code = main(argv + [a for p in params for a in ("--param", p)])
        outputs.append((code, capsys.readouterr().out))
    codes = [code for code, _ in outputs]
    assert codes == [0, 0, 0, 2, 0]
    assert outputs[0][1] != outputs[1][1]
    assert outputs[1][1] == outputs[2][1] == outputs[4][1]  # C defaults to 0.25


def test_plan_flags_default_to_the_sampling_plan(monkeypatch):
    from tractorlab import cli
    from tractorlab.verify import SamplingPlan

    args = cli._build_parser().parse_args(["verify", "--geometry", "klein"])
    assert cli._make_plan(args) == SamplingPlan()


# -- geometry parameters and the asymptotic-form constant ----------------------

SCHOUTEN_AT = ["--quantity", "schouten", "--point=0.5,0.1,0.2"]


@pytest.mark.parametrize("params, message", [
    (["C=1/y1"], "no value at the chart origin"),
    (["C=log(y1)"], "no value at the chart origin"),
    (["C=sqrt(0-1)"], "no value at the chart origin"),
    (["C=(0-1)^0.5"], "no value at the chart origin"),
    (["C=rho"], "must be finite and nonzero"),
    (["h=1"], "h must be 3x3"),
    (["c=0.5"], "takes no parameter c; it accepts C, h"),
    (["C=0.5", "scale=2"], "takes no parameter scale; it accepts C, h"),
])
def test_bad_builtin_parameters_exit_2(capsys, params, message):
    argv = ["eval", "--geometry", "af2_generic", "--dim", "3", *SCHOUTEN_AT]
    code = main(argv + [a for p in params for a in ("--param", p)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["klein", "flat", "poincare_control"])
def test_builtins_without_parameters_reject_any(capsys, name):
    code = main(["eval", "--geometry", name, "--dim", "3", "--param", "C=0.5",
                 "--quantity", "schouten", "--point=0.1,0.2,0.3"])
    assert code == 2
    assert f"geometry '{name}' takes no parameter C; it accepts none" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("C", ["1/y1", "log(y1)", "sqrt(0-1)", "(0-1)^0.5", 0])
def test_asymptotic_form_document_without_a_finite_c_exits_2(tmp_path, capsys, C):
    doc = {"kind": "asymptotic_form", "dim": 3, "alpha": 2.0, "C": C,
           "h": [["1" if i == j else "0" for j in range(3)] for i in range(3)]}
    path = tmp_path / "af.json"
    path.write_text(json.dumps(doc))
    code = main(["eval", "--geometry", str(path), *SCHOUTEN_AT])
    err = capsys.readouterr().err
    assert code == 2
    assert "asymptotic-form constant C" in err and "Traceback" not in err



def test_python_dash_m_tractorlab_runs_the_command_line(tmp_path):
    src = str(Path(tractorlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "tractorlab", "verify", "--geometry", "klein",
         "--dim", "3", "--checks", "bianchi"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    (report,) = json.loads(done.stdout)
    assert (report["id"], report["status"]) == ("bianchi", "pass")
