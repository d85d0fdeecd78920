import csv
import json
import math

import pytest

from tractorlab.cli import main


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


def test_env_seed_override(tmp_path, monkeypatch):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = [
        "verify", "--geometry", "af1_generic", "--dim", "4",
        "--checks", "bianchi", "--points", "3",
    ]
    monkeypatch.setenv("TRACTORLAB_SEED", "7")
    main(args + ["--out", str(out_a)])
    monkeypatch.delenv("TRACTORLAB_SEED")
    main(args + ["--seed", "7", "--out", str(out_b)])
    assert out_a.read_text() == out_b.read_text()


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
