"""Fuzz the command line contract.

Whatever the arguments and the geometry document, ``tractorlab`` exits 0, 1
or 2 and never with a traceback, and every invalid configuration exits 2.
Half of the drawn configurations are valid; the others have one or more
invalid parts (plan options, geometry and its parameters, check ids, eval
points).  The geometries are the cheap three-dimensional ones, given by
name, as explicit-metric documents or as asymptotic-form documents, and
the ODE checks (a few seconds each) are left out of ``--checks``; they read
the same validated options.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractorlab.cli import EVAL_QUANTITIES, main
from tractorlab.verify import registry

ODE_CHECKS = {"lem-2.4-transversal", "prop-2.5-mu"}
CHECKS = sorted(c.id for c in registry() if c.id not in ODE_CHECKS)

INTERIOR = "0.1,0.2,-0.1"
ON_BOUNDARY = ["1,0,0", "0,1,0", ",".join(["0.5773502691896258"] * 3)]


def _klein_doc():
    rho = "1 - (x0^2 + x1^2 + x2^2)"
    metric = [[(f"1/({rho}) + " if i == j else "") + f"x{i}*x{j}/({rho})^2"
               for j in range(3)] for i in range(3)]
    return {"name": "klein-doc", "dim": 3, "coords": ["x0", "x1", "x2"],
            "rho": rho, "alpha": 2.0, "metric": metric}


def _edited(**changes):
    doc = _klein_doc()
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return json.dumps(doc)


def _metric_entry(i, j, text):
    doc = _klein_doc()
    doc["metric"][i][j] = text
    return json.dumps(doc)


def _renamed(name):
    """The Klein document with its coordinate ``x0`` named ``name``."""
    doc = _klein_doc()
    doc["coords"][0] = name
    doc["rho"] = doc["rho"].replace("x0", name)
    doc["metric"] = [[text.replace("x0", name) for text in row] for row in doc["metric"]]
    return json.dumps(doc)


def _af_doc(C=0.25, h=None, alpha=2.0):
    """An asymptotic-form document, ``g = h/rho + C d(rho)^2/rho^2``."""
    if h is None:
        h = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    return json.dumps({"kind": "asymptotic_form", "name": "af-doc", "dim": 3,
                       "alpha": alpha, "C": C, "h": h})


#: File name -> (content, valid).
DOCUMENTS = {
    "klein.json": (json.dumps(_klein_doc()), True),
    "box.json": (_edited(interior_box=[[-0.4] * 3, [0.4] * 3]), True),
    "bad-box.json": (_edited(interior_box=[[-0.5]]), False),
    "nan-box.json": (_edited(interior_box=[[-0.5] * 3, ["nan"] * 3]), False),
    "no-rho.json": (_edited(rho=None), False),
    "alpha-type.json": (_edited(alpha="two"), False),
    "alpha-range.json": (_edited(alpha=5.0), False),
    "coords.json": (_edited(coords=["x0", "x1"]), False),
    "shape.json": (_edited(metric=[["1", "0"], ["0", "1"]]), False),
    "dim.json": (_edited(dim=1), False),
    "singular.json": (_edited(metric=[["0"] * 3] * 3), False),
    "asymmetric.json": (_metric_entry(0, 1, "1"), False),
    "syntax.json": (_metric_entry(1, 1, "1 +* x0"), False),
    "unknown-name.json": (_metric_entry(2, 2, "1 + y"), False),
    "complex.json": (_metric_entry(0, 0, "1 + (0-1)^0.5"), False),
    "pole.json": (_metric_entry(0, 0, "1/0"), False),
    "af.json": (_af_doc(), True),
    "af-c-pole.json": (_af_doc(C="1/y1"), False),
    "af-c-log.json": (_af_doc(C="log(y1)"), False),
    "af-c-complex.json": (_af_doc(C="(0-1)^0.5"), False),
    "af-h-shape.json": (_af_doc(h=[["1", "0", "0"], ["0", "1", "0"]]), False),
    "af-alpha-zero.json": (_af_doc(alpha=0), False),
    "af-alpha-nan.json": (_af_doc(alpha=float("nan")), False),
    "coord-pi.json": (_renamed("pi"), False),
    "coord-two-words.json": (_renamed("a b"), False),
    "coord-empty.json": (_renamed(""), False),
    "coord-digit.json": (_renamed("1x"), False),
    "list.json": ("[1, 2]", False),
    "truncated.json": ('{"dim": 3', False),
    "empty.json": ("", False),
}
BINARY = "binary.json"  # not UTF-8


#: Plan option -> (valid values, invalid values).
PLAN_OPTIONS = {
    "--eps0": (["0.05", "0.1", "0.5", "1e-30", "5"], ["0", "-0.05", "nan", "inf", "x"]),
    "--levels": (["2", "3", "30", "40"], ["1", "0", "-3", "2.5"]),
    "--points": (["1", "2"], ["0", "-1"]),
    "--boundary-points": (["1", "2"], ["0", "-2"]),
    "--ode-step": (["0.01"], ["0", "-1e-3", "nan", "inf"]),
    "--ode-horizon": (["0.1"], ["0", "-0.2", "nan", "inf"]),
    "--seed": (["0", "7"], ["-1", "seed"]),
}

_GEOMETRY = (  # (valid, invalid)
    st.one_of(
        st.sampled_from(["klein", "flat", "poincare_control"]).map(
            lambda g: ["--geometry", g, "--dim", "3"]),
        st.sampled_from([n for n, (_, ok) in DOCUMENTS.items() if ok]).map(
            lambda n: ["--geometry", ("doc", n)]),
    ),
    st.one_of(
        st.sampled_from([
            ["--geometry", "klein", "--dim", "2"],
            ["--geometry", "klein", "--dim", "three"],
            ["--geometry", "no-such-geometry"],
            ["--geometry", "af2_generic", "--dim", "3", "--param", "C"],
            ["--geometry", "af2_generic", "--dim", "3", "--param", "C=1/y1"],
            ["--geometry", "af2_generic", "--dim", "3", "--param", "h=1"],
            ["--geometry", "af2_generic", "--dim", "3", "--param", "c=0.5"],
            ["--geometry", "klein", "--dim", "3", "--param", "C=0.5"],
        ]),
        st.sampled_from(
            [n for n, (_, ok) in DOCUMENTS.items() if not ok] + [BINARY, "."]
        ).map(lambda n: ["--geometry", ("doc", n)]),
    ),
)


@st.composite
def _verify(draw, valid):
    checks = draw(st.lists(st.sampled_from(CHECKS), min_size=1, max_size=3, unique=True))
    if not valid:
        checks.insert(draw(st.integers(0, len(checks))), "no-such-check")
    return ["--checks", ",".join(checks), "--format", draw(st.sampled_from(["json", "csv"]))]


@st.composite
def _eval(draw, valid):
    argv = ["--quantity", draw(st.sampled_from(EVAL_QUANTITIES))]
    boundary = [f"--boundary-point={draw(st.sampled_from(ON_BOUNDARY))}"]
    if valid:
        if argv[1] == "phi" or draw(st.booleans()):
            return argv + boundary + ["--extrapolate"]
        return argv + ["--point", INTERIOR]
    return argv + draw(st.sampled_from([
        boundary,  # without --extrapolate
        ["--boundary-point", "0.5,0,0", "--extrapolate"],
        ["--point", "0.1,0.2"],
        ["--point", "a,b,c"],
        ["--extrapolate"],
    ] + ([["--point", INTERIOR]] if argv[1] == "phi" else [])))


@st.composite
def configurations(draw):
    """(argv, valid): half the time a valid configuration, otherwise one
    with one or more invalid parts."""
    parts = ["command", "geometry", *PLAN_OPTIONS]
    bad = draw(st.sets(st.sampled_from(parts), min_size=1)) if draw(st.booleans()) else set()
    command = draw(st.sampled_from(["verify", "eval"]))
    body = _verify if command == "verify" else _eval
    argv = [command] + draw(_GEOMETRY["geometry" in bad])
    argv += draw(body("command" not in bad))
    for flag, (good, wrong) in PLAN_OPTIONS.items():
        if flag in bad:
            argv += [flag, draw(st.sampled_from(wrong))]
        elif draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(good))]
    return argv, not bad


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    for name, (text, _) in DOCUMENTS.items():
        (root / name).write_text(text)
    (root / BINARY).write_bytes(b"\xff\xfe\x00{")
    return root


@settings(max_examples=30, deadline=None)
@given(config=configurations())
def test_cli_exit_contract(doc_dir, config):
    argv, valid = config
    argv = [str(doc_dir / a[1]) if isinstance(a, tuple) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the option itself
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if not valid:
        assert code == 2, (argv, err.getvalue())
    elif code != 2 and argv[0] == "verify" and "json" in argv:
        json.loads(out.getvalue(), parse_constant=pytest.fail)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_each_document_loads_as_declared(doc_dir, name, capsys):
    # the fuzzer draws from these by their flag; a valid one evaluates at
    # an interior point, an invalid one exits 2
    code = main(["eval", "--geometry", str(doc_dir / name),
                 "--quantity", "schouten", "--point", INTERIOR])
    assert code == (0 if DOCUMENTS[name][1] else 2), capsys.readouterr().err
