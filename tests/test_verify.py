import json

import numpy as np
import pytest

from tractorlab import verify
from tractorlab.fields import builtin_geometry
from tractorlab.verify import SamplingPlan, registry, run_suite

FAST_PLAN = SamplingPlan(seed=3, interior_points=4, boundary_points=2)

#: one registry entry (at least) per verified statement of the boundary
#: asymptotics program
EXPECTED_IDS = {
    "prop-2.1-extend", "prop-2.2-dense", "prop-2.3-h", "lem-2.4-transversal",
    "prop-2.5-mu", "thm-2.5-S-const", "thm-2.5-C", "prop-3.1-pff",
    "prop-3.2-i", "prop-3.2-ii", "prop-3.3-i", "prop-3.3-ii",
    "thm-3.3-einstein", "prop-4.1-bundle", "prop-4.2-splitids",
    "prop-4.3-identity", "thm-4.1a-normal", "thm-4.3-metric",
    "thm-4.3-torsionfree", "thm-4.4-normality", "weyl-traces", "bianchi",
    "splitting-equivariance", "tractor-curv-consistency",
}


def test_registry_contents():
    checks = registry()
    assert len(checks) >= 24
    ids = [c.id for c in checks]
    assert len(set(ids)) == len(ids)
    assert EXPECTED_IDS <= set(ids)
    for c in checks:
        assert c.paper_ref.strip()
        assert c.tolerance > 0
    refs = [c.paper_ref for c in checks]
    assert len(set(refs)) == len(refs)


def test_alpha_filtering_excludes_order_one_checks():
    geom = builtin_geometry("klein", 3)
    reports = run_suite(geom, ["prop-3.3-i", "prop-3.2-i"], FAST_PLAN)
    assert all(r.status == "skip" for r in reports)
    assert all("alpha" in r.reason for r in reports)


def test_flat_thm44_skips_as_degenerate():
    geom = builtin_geometry("flat", 4)
    reports = run_suite(geom, ["thm-4.4-normality"], FAST_PLAN)
    assert reports[0].status == "skip"
    assert reports[0].reason == "degenerate boundary geometry"


def test_unknown_check_id():
    geom = builtin_geometry("klein", 3)
    with pytest.raises(KeyError):
        run_suite(geom, ["nosuch-check"], FAST_PLAN)


def test_determinism_byte_identical():
    geom = builtin_geometry("af1_generic", 4)
    ids = ["weyl-traces", "bianchi", "prop-3.2-i", "defining-density"]
    a = [r.to_doc() for r in run_suite(geom, ids, FAST_PLAN)]
    b = [r.to_doc() for r in run_suite(geom, ids, FAST_PLAN)]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_poincare_fails_compactness_and_completes():
    geom = builtin_geometry("poincare_control", 3)
    reports = run_suite(geom, "all", FAST_PLAN)
    by_id = {r.check_id: r for r in reports}
    assert by_id["defining-density"].status == "fail"
    assert by_id["rho-connection-extends"].status == "fail"
    assert len(reports) == len(registry())
    # pure fiber identities still hold on the control
    assert by_id["weyl-traces"].status == "pass"
    assert by_id["bianchi"].status == "pass"


def test_flat_suite_completes_with_failures():
    geom = builtin_geometry("flat", 3)
    reports = run_suite(geom, "all", FAST_PLAN)
    statuses = {r.check_id: r.status for r in reports}
    assert statuses["defining-density"] == "fail"
    assert statuses["rho-connection-extends"] == "fail"
    assert "error" not in set(statuses.values())


def test_report_invariant_pass_iff_within_tolerance():
    geom = builtin_geometry("af1_generic", 4)
    for r in run_suite(geom, ["weyl-traces", "defining-density"], FAST_PLAN):
        if r.status in ("pass", "fail"):
            assert (r.status == "pass") == (r.max_residual <= r.tolerance)


def test_report_doc_schema():
    geom = builtin_geometry("af1_generic", 4)
    reports = run_suite(geom, ["bianchi"], FAST_PLAN)
    doc = reports[0].to_doc()
    assert set(doc) == {
        "id", "paper_ref", "status", "max_residual", "tolerance",
        "n_points", "details", "reason",
    }


def test_klein_full_suite_green():
    geom = builtin_geometry("klein", 3)
    reports = run_suite(geom, "all",
                        SamplingPlan(seed=5, interior_points=6,
                                     boundary_points=3))
    for r in reports:
        assert r.status in ("pass", "skip"), (r.check_id, r.status, r.reason)
    assert sum(r.status == "pass" for r in reports) >= 20


def test_lorentzian_asymptotic_form():
    # C < 0 gives a Lorentzian interior (|C| large enough that the
    # transversal direction stays timelike over the whole chart box);
    # density formulas use |det| and the boundary scalar curvature comes
    # out positive
    geom = builtin_geometry("af2_generic", 4, C=-1.0)
    assert geom.signature == (3, 1)
    reports = run_suite(
        geom, ["thm-2.5-C", "defining-density", "weyl-traces"],
        SamplingPlan(seed=9, interior_points=5, boundary_points=3),
    )
    by_id = {r.check_id: r for r in reports}
    assert by_id["defining-density"].status == "pass"
    assert by_id["weyl-traces"].status == "pass"
    r = by_id["thm-2.5-C"]
    assert r.status == "pass"
    assert r.details[0]["C"] == pytest.approx(-1.0, abs=1e-6)


def test_compactness_probe_keeps_the_exception(monkeypatch):
    import tractorlab.verify as verify

    def explode(geom):
        raise RuntimeError("tau exploded")

    monkeypatch.setattr(verify, "canonical_tau", explode)
    geom = builtin_geometry("klein", 3)
    (report,) = run_suite(geom, ["thm-2.5-S-const"], FAST_PLAN)
    assert report.status == "skip"
    assert report.reason == ("geometry fails the projective-compactness probes "
                             "(RuntimeError: tau exploded)")


@pytest.mark.parametrize("terms,count", [("_prop43_terms", 5), ("_prop43_lc_terms", 4)])
def test_prop43_identity_fails_when_a_term_is_wrong(af2, monkeypatch, terms, count):
    # mutation test: flipping the sign of any term of either identity, or
    # dropping it, must fail the check
    check = next(c for c in registry() if c.id == "prop-4.3-identity")
    plan = SamplingPlan(interior_points=2)
    session = verify._Session(af2, plan)

    def residual():
        res, _, _ = check.run(af2, plan, np.random.default_rng(0), session)
        return res

    assert residual() <= check.tolerance
    original = getattr(verify, terms)
    for k in range(count):
        for kind in ("flip", "drop"):
            def mutated(*args, k=k, kind=kind):
                out = list(original(*args))
                assert len(out) == count
                if kind == "flip":
                    out[k] = -out[k]
                else:
                    del out[k]
                return out

            monkeypatch.setattr(verify, terms, mutated)
            assert residual() > check.tolerance, (terms, k, kind)
