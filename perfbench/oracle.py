"""Expected outcomes, taken from the paper's statements and the test suite.

The expectations are written out here rather than read from the program
(its registry or its reports), so a change that breaks a check, or makes one
pass that must not, is visible.  One operation is one check on one geometry
or one eval; each is judged to an :class:`Outcome`.

``failed`` marks an operation that did not give the expected result (an
error, a wrong verdict, an escaping exception, a non-zero exit).  ``wrong``
additionally marks a result the program presented as a success although it
is not one: a negative control that passes, a check that passes where its
hypothesis fails, an eval that exits 0 with a non-finite or incorrect value,
or a report that changes between passes.  A verifier that confirms what it
should not is incorrect; one that errors is only failing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

#: alpha each catalog geometry is built for (the compactness order).
ALPHA = {
    "klein": 2.0, "af2_generic": 2.0, "af1_generic": 1.0,
    "flat": 2.0, "poincare_control": 2.0,
}
CONTROLS = ("flat", "poincare_control")

#: check id -> (required alpha or None, minimum dimension), from the paper's
#: statements: sections 2-4 are about order-two (alpha = 2) metrics except
#: where a statement names order one or holds for any projective structure;
#: the two section-4 theorems on the boundary tractor bundle need n >= 3.
APPLIES = {
    "prop-2.1-extend": (None, 3),
    "prop-2.2-dense": (2.0, 3),
    "prop-2.3-h": (2.0, 3),
    "lem-2.4-transversal": (None, 3),
    "prop-2.5-mu": (2.0, 3),
    "thm-2.5-S-const": (2.0, 3),
    "thm-2.5-C": (2.0, 3),
    "prop-3.1-pff": (None, 3),
    "prop-3.2-i": (1.0, 3),
    "prop-3.2-ii": (2.0, 3),
    "prop-3.3-i": (1.0, 3),
    "prop-3.3-ii": (2.0, 3),
    "thm-3.3-einstein": (2.0, 3),
    "prop-4.1-bundle": (2.0, 3),
    "prop-4.2-splitids": (2.0, 3),
    "prop-4.3-identity": (2.0, 3),
    "thm-4.1a-normal": (2.0, 4),
    "thm-4.3-metric": (2.0, 3),
    "thm-4.3-torsionfree": (2.0, 3),
    "thm-4.4-normality": (2.0, 4),
    "weyl-traces": (None, 3),
    "bianchi": (None, 3),
    "splitting-equivariance": (2.0, 3),
    "tractor-curv-consistency": (None, 3),
    "defining-density": (None, 3),
    "rho-connection-extends": (None, 3),
}
CHECK_IDS = tuple(APPLIES)

#: Checks whose hypothesis fails on a geometry, so they must skip there:
#: af2_generic is not Einstein, so the boundary derivative of L(tau) does
#: not vanish.
HYPOTHESIS_FAILS = {("af2_generic", "thm-4.1a-normal")}

#: On a negative control these must fail and say why: rho-connection-extends
#: flags the divergence of the connection, defining-density names its
#: failure mode (tau/rho diverges on the flat control; on the conformally
#: compact one it has no smooth nonzero limit), as in the acceptance tests.
CONTROL_MUST_FAIL = ("defining-density", "rho-connection-extends")
#: Fiberwise algebraic identities, which hold on any metric geometry.
FIBER_IDENTITIES = (
    "weyl-traces", "bianchi", "splitting-equivariance",
    "tractor-curv-consistency",
)

#: Relative tolerance on the Klein scalar curvature S = -n(n+1), the same as
#: the suite's ``thm-2.5-S-const``.
KLEIN_S_TOL = 1e-5


@dataclass
class Outcome:
    """The judged result of one operation."""

    op: str
    failed: bool = False
    wrong: bool = False
    reason: str = ""
    #: residual / tolerance of a passing check or checked eval, else None
    residual_ratio: float | None = None


def expected_status(geometry: str, dim: int, check_id: str) -> str:
    """``pass`` or ``skip`` on the positive geometries."""
    alpha, min_dim = APPLIES[check_id]
    if alpha is not None and ALPHA[geometry] != alpha:
        return "skip"
    if dim < min_dim or (geometry, check_id) in HYPOTHESIS_FAILS:
        return "skip"
    return "pass"


def _failure_flagged(doc: dict) -> bool:
    if doc["id"] == "defining-density":
        return any(d.get("reason") for d in doc["details"])
    return any(d.get("diverged") for d in doc["details"])


def judge_check(geometry: str, dim: int, doc: dict) -> Outcome:
    """Judge one report document (``CheckReport.to_doc()``)."""
    status = doc["status"]
    out = Outcome(f"{geometry}-{dim}/{doc['id']}")
    if doc["id"] not in APPLIES:
        return _mark(out, "no expectation for this check")
    if status == "pass":
        residual, tol = doc["max_residual"], doc["tolerance"]
        if not (math.isfinite(residual) and residual <= tol):
            return _mark(out, f"passes with residual {residual!r} > {tol!r}", wrong=True)
        out.residual_ratio = residual / tol
    if geometry in CONTROLS:
        if doc["id"] in CONTROL_MUST_FAIL:
            if status == "pass":
                return _mark(out, "negative control passes", wrong=True)
            if status != "fail":
                return _mark(out, f"negative control {status}: {doc['reason']}")
            if not _failure_flagged(doc):
                return _mark(out, "negative control fails without saying why")
        elif doc["id"] in FIBER_IDENTITIES and status != "pass":
            return _mark(out, f"fiber identity {status}: {doc['reason']}")
        elif status == "error":
            return _mark(out, f"error: {doc['reason']}")
        return out
    want = expected_status(geometry, dim, doc["id"])
    if status != want:
        return _mark(out, f"expected {want}, got {status}: {doc['reason']}",
                     wrong=(status == "pass"))
    return out


def judge_eval(op: str, geometry: str, dim: int, quantity: str, rc,
               stdout: str) -> Outcome:
    """Judge one ``tractorlab eval`` call from its exit code and output.

    ``rc`` is the exit code, or the text of an exception that escaped.
    """
    out = Outcome(op)
    if isinstance(rc, str):
        return _mark(out, rc)
    if rc != 0:
        return _mark(out, f"exit {rc}")
    try:
        doc = json.loads(stdout, parse_constant=_reject_constant)
    except ValueError as err:
        return _mark(out, f"exit 0 with invalid JSON: {err}", wrong=True)
    if not _all_finite(doc):
        return _mark(out, "exit 0 with a non-finite number", wrong=True)
    if geometry == "klein" and quantity == "scalar_curvature":
        n = dim - 1
        exact = -n * (n + 1)
        ratio = abs(doc["value"] - exact) / (1 + abs(exact)) / KLEIN_S_TOL
        if not ratio <= 1.0:
            return _mark(out, f"S = {doc['value']!r}, expected {exact}", wrong=True)
        out.residual_ratio = ratio
    return out


def _mark(out: Outcome, reason: str, wrong: bool = False) -> Outcome:
    out.failed = True
    out.wrong = wrong
    out.reason = reason
    return out


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True
