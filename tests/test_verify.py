import collections
import dataclasses
import inspect
import json

import numpy as np
import pytest

from conftest import at_boundary_points
from tractorlab import verify
from tractorlab.extrapolate import boundary_ladder
from tractorlab.fields import GeometryError, builtin_geometry
from tractorlab.jets import jet_space
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
    _assert_fails_for_its_stated_reasons(by_id)
    assert len(reports) == len(registry())
    # pure fiber identities still hold on the control
    assert by_id["weyl-traces"].status == "pass"
    assert by_id["bianchi"].status == "pass"


def test_flat_suite_completes_with_failures():
    geom = builtin_geometry("flat", 3)
    reports = run_suite(geom, "all", FAST_PLAN)
    statuses = {r.check_id: r.status for r in reports}
    _assert_fails_for_its_stated_reasons({r.check_id: r for r in reports})
    assert "error" not in set(statuses.values())


def _assert_fails_for_its_stated_reasons(by_id):
    """A negative control fails the defining-density check with the reason
    in its details, and the rho-connection check on a diverged limit; each
    report's reason names that facet."""
    density, extends = by_id["defining-density"], by_id["rho-connection-extends"]
    assert density.status == extends.status == "fail"
    assert density.details[0]["reason"]
    assert density.reason == "not_a_defining_density: residual inf against tolerance 1e-05"
    assert any(d["diverged"] for d in extends.details)
    assert extends.reason == "diverged: residual inf against tolerance 1e-05"


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

    def explode(calc, ladders):
        raise RuntimeError("tau exploded")

    # the probe runs the defining-density check's own computation
    monkeypatch.setattr(verify, "_defining_density", explode)
    geom = builtin_geometry("klein", 3)
    (report,) = run_suite(geom, ["thm-2.5-S-const"], FAST_PLAN)
    assert report.status == "skip"
    assert report.reason == ("geometry fails the projective-compactness probes "
                             "(RuntimeError: tau exploded)")


#: the facet of prop-4.3-identity that each list of terms sums into
PROP43_FACETS = {"_prop43_terms": "identity_residual", "_prop43_lc_terms": "variant_residual"}


@pytest.mark.parametrize("terms,count", [("_prop43_terms", 5), ("_prop43_lc_terms", 4)])
def test_prop43_identity_fails_when_a_term_is_wrong(af2, monkeypatch, terms, count):
    # mutation test: flipping the sign of any term of either identity, or
    # dropping it, must fail the check
    check = next(c for c in registry() if c.id == "prop-4.3-identity")
    plan = SamplingPlan(interior_points=2)
    session = verify._Session(af2, plan)

    def residual():
        facets, _, _ = check.run(af2, plan, np.random.default_rng(0), session)
        return float(np.max(facets[PROP43_FACETS[terms]]))

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


@pytest.mark.parametrize("name,dim", [("klein", 3), ("af2_generic", 4)])
def test_each_boundary_point_gets_one_ladder(name, dim, monkeypatch):
    import importlib
    import pkgutil

    import tractorlab
    from tractorlab import extrapolate

    # every ladder, alone or in a check's stack, is placed by one function;
    # count the points it places
    original = extrapolate.boundary_ladders
    placed = []

    def counting(geom, ys, directions=None, *, eps0, levels):
        placed.extend((tuple(np.asarray(y).tolist()), eps0, levels) for y in ys)
        return original(geom, ys, directions, eps0=eps0, levels=levels)

    for info in pkgutil.iter_modules(tractorlab.__path__):
        module = importlib.import_module(f"tractorlab.{info.name}")
        if getattr(module, "boundary_ladders", None) is original:
            monkeypatch.setattr(module, "boundary_ladders", counting)
    run_suite(builtin_geometry(name, dim), "all", SamplingPlan(seed=0))
    assert placed
    assert len(placed) == len(set(placed))


@pytest.mark.parametrize("name,dim", [("klein", 3), ("af2_generic", 4)])
def test_one_calculus_owns_the_connections_and_packs(name, dim, monkeypatch):
    # every check run reads a calculus of its own and the probes share one
    # more, so a check's memos end with it; each calculus builds the
    # Levi-Civita and rho-modified connections, the splitting of
    # splitting-equivariance, and one curvature pack for each, and no
    # connection or pack is built outside a calculus
    from tractorlab.affine import Connection, CurvaturePack
    from tractorlab.tractor import TractorCalculus

    def building_calculus():
        frame = inspect.currentframe()
        while frame is not None:
            owner = frame.f_locals.get("self")
            if isinstance(owner, TractorCalculus):
                return id(owner)
            frame = frame.f_back
        return None

    built, used = [], []
    made = {Connection: collections.Counter(), CurvaturePack: collections.Counter()}
    for cls in (TractorCalculus, Connection, CurvaturePack):
        def recording(self, *args, _init=cls.__init__, _cls=cls, **kw):
            _init(self, *args, **kw)
            if _cls is TractorCalculus:
                built.append(self)
            else:
                made[_cls][building_calculus()] += 1

        monkeypatch.setattr(cls, "__init__", recording)

    def reading(check):
        def run(geom, plan, rng, session):
            used.append(session.calc)
            return check.run(geom, plan, rng, session)

        return dataclasses.replace(check, run=run)

    real = verify.registry
    monkeypatch.setattr(verify, "registry", lambda: [reading(c) for c in real()])
    reports = run_suite(builtin_geometry(name, dim), "all", SamplingPlan(seed=0))
    assert not [r.check_id for r in reports if r.status == "error"]
    assert len(built) == len(used) + 1
    assert len({id(calc) for calc in used}) == len(used)
    assert built[0] not in used  # the probes' calculus
    for counts in made.values():
        assert set(counts) == {id(calc) for calc in built}
        assert all(2 <= k <= 3 for k in counts.values())
        assert max(counts.values()) == 3  # splitting-equivariance


@pytest.mark.parametrize("terms", sorted(PROP43_FACETS))
def test_prop43_failure_reason_names_the_wrong_identity(af2, monkeypatch, terms):
    original = getattr(verify, terms)
    monkeypatch.setattr(verify, terms, lambda *args: [-t for t in original(*args)])
    (report,) = run_suite(af2, ["prop-4.3-identity"], SamplingPlan(interior_points=2))
    assert report.status == "fail"
    assert report.reason.startswith(f"{PROP43_FACETS[terms]}: residual ")
    assert report.reason.endswith(" against tolerance 1e-08")


def test_a_facet_is_held_to_its_own_tolerance():
    # a rho-connection dual-path gap of 2e-6 is inside the headline 1e-5 but
    # fails its own 1e-6 tolerance, and reads 2e-5 in headline units.  The
    # gap is made by offsetting one component of the Klein model's exact
    # extension (which is zero) by 2e-6: at (1, 0, 0) the extrapolated
    # component is exactly zero, and every other one is below 1e-12.
    def offset(points, order):
        out = np.zeros((3, 3, 3, len(points), jet_space(3, order).ncoeff))
        out[2, 2, 2, :, 0] = 2e-6
        return out

    geom = at_boundary_points(builtin_geometry("klein", 3), (1.0, 0.0, 0.0))
    geom = dataclasses.replace(geom, exact_hat_christoffels=offset)
    (report,) = run_suite(geom, ["rho-connection-extends"], FAST_PLAN)
    assert report.status == "fail"
    assert report.max_residual == pytest.approx(2e-5, rel=1e-12)
    assert report.reason == "dual_path_gap: residual 2e-06 against tolerance 1e-06"


def test_registry_facet_tolerances_name_returned_facets(af2):
    # a misspelt facet name would silently fall back to the headline
    # tolerance: every name given its own tolerance is one its runner
    # returns on af2_generic-4
    plan = SamplingPlan(interior_points=2, boundary_points=1)
    session = verify._Session(af2, plan)
    for check in registry():
        if check.facet_tolerances:
            facets, _, _ = check.run(af2, plan, np.random.default_rng(0), session)
            assert set(check.facet_tolerances) <= set(facets), check.id
            assert check.tolerance not in check.facet_tolerances.values(), check.id


#: the seed-0 geometries of the alone-versus-suite test, and the controls
#: that also run at seeds 1 and 2
ALONE_CASES = [
    (name, dim, 0) for name, dim in (
        ("klein", 3), ("klein", 4), ("af2_generic", 4), ("af1_generic", 4),
        ("flat", 3), ("poincare_control", 3),
    )
] + [(name, 3, seed) for name in ("flat", "poincare_control") for seed in (1, 2)]


@pytest.mark.parametrize("name,dim,seed", ALONE_CASES)
def test_a_check_run_alone_reports_as_in_the_full_suite(name, dim, seed):
    # each check draws from an rng seeded by its registry index, so
    # `verify --checks X` reproduces X's entry of `--checks all`
    geom = builtin_geometry(name, dim)
    plan = SamplingPlan(seed=seed)
    full = run_suite(geom, "all", plan)
    for report in full:
        (alone,) = run_suite(geom, [report.check_id], plan)
        assert json.dumps(alone.to_doc(), sort_keys=True) == json.dumps(
            report.to_doc(), sort_keys=True
        ), report.check_id


def _run_check(check_id, geom, plan):
    check = next(c for c in registry() if c.id == check_id)
    return check.run(geom, plan, np.random.default_rng(0), verify._Session(geom, plan))


def _times_rho_power(real, k):
    """The point function ``real`` times ``rho^k``."""
    return lambda calc, p: real(calc, p) * calc.geom.rho_value(p) ** k


def test_mu_check_never_uses_a_diverged_prediction(klein3, monkeypatch):
    # the prediction -(n+1)/(4 g^ij P_ij) grows like rho^-3 along the ladder
    from tractorlab import boundary as bd

    monkeypatch.setattr(bd, "schouten_trace", _times_rho_power(bd.schouten_trace, 3))
    facets, _, details = _run_check("prop-2.5-mu", klein3, SamplingPlan(boundary_points=1))
    assert facets["diverged"] is True
    assert details[0] == {"point": details[0]["point"], "diverged": True}


def test_mu_check_never_uses_a_diverged_curve_limit(klein3, monkeypatch):
    # the velocities located at the ladder's levels grow by sqrt(1e3) per
    # level, so rho^2 g(mu, mu) there grows a thousandfold per level
    from tractorlab import boundary as bd

    real = bd.TransversalCurve.at_rho

    def growing(self, eps):
        x, v = real(self, eps)
        return x, v * np.sqrt(1e3) ** np.arange(len(eps))[:, None]

    monkeypatch.setattr(bd.TransversalCurve, "at_rho", growing)
    facets, _, details = _run_check("prop-2.5-mu", klein3, SamplingPlan(boundary_points=1))
    assert facets["diverged"] is True
    assert details[0] == {"point": details[0]["point"], "diverged": True}


def test_splitids_check_never_uses_a_diverged_limit(klein3, monkeypatch):
    # t.d(rho) grows like rho^-3 along the ladder instead of tending to 1
    from tractorlab import boundary as bd

    monkeypatch.setattr(bd, "t_vector", _times_rho_power(bd.t_vector, -3))
    facets, _, details = _run_check(
        "prop-4.2-splitids", klein3, SamplingPlan(interior_points=1)
    )
    assert facets["diverged"] is True
    assert [set(d) for d in details[-2:]] == [{"point", "diverged"}] * 2
    assert all(d["diverged"] is True for d in details[-2:])


@pytest.mark.parametrize("step, horizon, valid", [
    (0.05, 0.2, True),     # 4 steps
    (0.25, 0.875, True),   # 3.5 rounds to 4
    (0.02, 0.05, False),   # 2.5 rounds to 2
    (0.1, 0.35, False),    # 3.4999... rounds to 3
    (0.5, 0.2, False),     # 0.4 rounds to 0
    (1e-300, 1e10, False),  # the ratio overflows to inf
])
def test_sampling_plan_needs_four_rk4_steps(step, horizon, valid):
    if valid:
        SamplingPlan(ode_step=step, ode_horizon=horizon)
        return
    with pytest.raises(ValueError, match=r"invalid sampling plan \(ode_horizon / ode_step"):
        SamplingPlan(ode_step=step, ode_horizon=horizon)


@pytest.mark.parametrize("step, horizon, rows", [
    (2e-3, 0.2, range(5, 100, 10)),  # t = 0.01, 0.03, ..., 0.19
    (1e-3, 0.2, range(10, 200, 20)),
    (5e-3, 0.2, range(2, 40, 4)),
    (1e-2, 0.2, range(1, 20, 2)),
    (5e-2, 0.2, [0, 1, 2, 3, 4]),  # each nearest sample once
    (1e-3, 0.005, [5]),  # past a short horizon, the last sample
])
def test_prop25_judges_the_same_parameters_at_any_step(step, horizon, rows):
    ts = np.arange(round(horizon / step) + 1) * step
    assert verify._mu_samples(ts).tolist() == list(rows)


def test_the_launch_error_fails_lem24_where_the_launch_value_is_coarse():
    # at C = 0.05 the extended connection at the launch carries an error
    # that moves the curves by about 3e-8, which step doubling does not see
    geom = builtin_geometry("af2_generic", 4, C=0.05)
    (report,) = verify.run_suite(geom, ["lem-2.4-transversal"], SamplingPlan(seed=0))
    curves = report.details[:-1]
    assert max(d["integration_error"] for d in curves) < 1e-8
    assert report.status == "fail"
    assert report.reason.startswith("launch_error: residual")
    assert report.max_residual == max(d["launch_error"] for d in curves) > 1e-8


#: the checks that integrate geodetic transversals
TRANSVERSAL_IDS = ("lem-2.4-transversal", "prop-2.5-mu")


def _counting_transversals(monkeypatch) -> list[int]:
    """Record the number of ladders of each ``geodetic_transversals`` call."""
    from tractorlab import boundary as bd

    real, calls = bd.geodetic_transversals, []

    def counting(calc, ladders, *args, **kw):
        calls.append(len(ladders))
        return real(calc, ladders, *args, **kw)

    monkeypatch.setattr(bd, "geodetic_transversals", counting)
    return calls


def _doc(report) -> str:
    return json.dumps(report.to_doc(), sort_keys=True)


@pytest.mark.parametrize("name,dim,ids,calls", [
    ("klein", 3, "all", [8]),
    ("af2_generic", 4, "all", [8]),
    ("klein", 3, ["lem-2.4-transversal"], [4]),
    ("klein", 3, ["prop-2.5-mu"], [4]),
    ("af1_generic", 4, "all", [4]),  # prop-2.5-mu needs alpha = 2
])
def test_a_suite_integrates_its_transversals_in_one_call(name, dim, ids, calls, monkeypatch):
    counted = _counting_transversals(monkeypatch)
    run_suite(builtin_geometry(name, dim), ids, SamplingPlan(seed=0))
    assert counted == calls


@pytest.mark.parametrize("name,dim", [("klein", 3), ("af2_generic", 4)])
def test_shared_transversals_give_each_check_its_report_alone(name, dim, monkeypatch):
    geom, plan = builtin_geometry(name, dim), SamplingPlan(seed=1)
    counted = _counting_transversals(monkeypatch)
    pair = run_suite(geom, TRANSVERSAL_IDS, plan)
    assert counted == [8]
    assert [r.status for r in pair] == ["pass", "pass"]
    for report in pair:
        (alone,) = run_suite(geom, [report.check_id], plan)
        assert _doc(alone) == _doc(report), report.check_id
    assert counted == [8, 4, 4]


@pytest.mark.parametrize("leaving", TRANSVERSAL_IDS)
def test_a_curve_leaving_the_domain_fails_only_its_own_check(klein3, monkeypatch, leaving):
    # the Klein rho-connection's geodesics are chords; tilting one ladder's
    # launch direction sideways (d(rho) still pairs it to one) takes its
    # chord out of the ball at t = 1/4.25, inside the horizon
    plan = SamplingPlan(seed=1, ode_horizon=0.3)
    index = [c.id for c in registry()].index(leaving)
    y = klein3.boundary_points(4, verify._check_rng(plan, index))[0]
    side = np.cross(y, [0.0, 0.0, 1.0])
    tilted = -y / 2 + 2.0 * side / np.linalg.norm(side)
    real = verify._Session.ladder

    def ladder(self, point):
        if not np.array_equal(point, y):
            return real(self, point)
        return boundary_ladder(self.geom, y, tilted, eps0=plan.eps0, levels=plan.levels)

    monkeypatch.setattr(verify._Session, "ladder", ladder)
    counted = _counting_transversals(monkeypatch)
    pair = run_suite(klein3, TRANSVERSAL_IDS, plan)
    assert counted == [8, 4, 4]  # the joint call raised: each check ran alone
    for report in pair:
        (alone,) = run_suite(klein3, [report.check_id], plan)
        assert _doc(alone) == _doc(report), report.check_id
        if report.check_id == leaving:
            assert report.status == "error"
            assert report.reason.startswith(
                f"GeometryError: transversal from {tuple(y.tolist())} left the chart domain"
            )
        else:
            assert report.status == "pass"


def test_a_later_checks_placement_error_is_its_own(monkeypatch):
    # the boundary points of prop-2.5-mu's draw raise: the joint run of
    # lem-2.4-transversal places them, and leaves the error to prop-2.5-mu
    geom, plan = builtin_geometry("klein", 3), SamplingPlan(seed=1)
    fresh = verify._check_rng(plan, [c.id for c in registry()].index("prop-2.5-mu"))
    real = type(geom).boundary_points

    def boundary_points(self, count, rng):
        if rng.bit_generator.state == fresh.bit_generator.state:
            raise GeometryError("no boundary points on this draw")
        return real(self, count, rng)

    monkeypatch.setattr(type(geom), "boundary_points", boundary_points)
    counted = _counting_transversals(monkeypatch)
    pair = run_suite(geom, TRANSVERSAL_IDS, plan)
    assert counted == [4]  # only lem-2.4-transversal's curves were integrated
    for report in pair:
        (alone,) = run_suite(geom, [report.check_id], plan)
        assert _doc(alone) == _doc(report), report.check_id
    assert [r.status for r in pair] == ["pass", "error"]
    assert pair[1].reason == "GeometryError: no boundary points on this draw"


#: The highest jet order each check requests from the builders of its jets,
#: on af2_generic-4, af1_generic-4 and klein-4 (each check run alone).  A
#: check reads values or first derivatives, so an order above what it reads
#: is work that nothing uses: raising one must show here.
JET_ORDERS = {
    "prop-2.1-extend": {"CurvaturePack.dense": 0},
    "prop-2.2-dense": {"CurvaturePack.dense": 0},
    "prop-2.3-h": {"CurvaturePack.dense": 0},
    "lem-2.4-transversal": {},
    "prop-2.5-mu": {"CurvaturePack.dense": 0},
    "thm-2.5-S-const": {"CurvaturePack.dense": 0},
    "thm-2.5-C": {"CurvaturePack.dense": 0},
    "prop-3.1-pff": {"CurvaturePack.dense": 0},
    "prop-3.2-i": {},
    "prop-3.2-ii": {"CurvaturePack.dense": 0},
    "prop-3.3-i": {"CurvaturePack.dense": 0},
    "prop-3.3-ii": {"CurvaturePack.dense": 0},
    "thm-3.3-einstein": {"CurvaturePack.dense": 0},
    "prop-4.1-bundle": {"CurvaturePack.dense": 0, "l_tau": 0},
    "prop-4.2-splitids": {"CurvaturePack.dense": 0, "l_tau": 0},
    "prop-4.3-identity": {"CurvaturePack.dense": 1},
    "thm-4.1a-normal": {"CurvaturePack.dense": 1, "l_tau": 0},
    "thm-4.3-metric": {
        "CurvaturePack.dense": 1, "l_tau": 1, "metric_tractor_omega": 0,
        "polynomial_tractor_section": 1,
    },
    "thm-4.3-torsionfree": {"CurvaturePack.dense": 2, "metric_tractor_omega": 1},
    "thm-4.4-normality": {
        "CurvaturePack.dense": 2, "l_tau": 0, "metric_tractor_omega": 1,
    },
    "weyl-traces": {"CurvaturePack.dense": 0},
    "bianchi": {"CurvaturePack.dense": 0},
    "splitting-equivariance": {
        "CurvaturePack.dense": 0, "l_tau": 0, "polynomial_tractor_section": 1,
    },
    "tractor-curv-consistency": {"CurvaturePack.dense": 1},
    "defining-density": {},
    "rho-connection-extends": {},
}


def test_each_check_requests_only_the_jet_orders_it_reads(monkeypatch):
    from tractorlab import affine, boundary, tractor

    seen = collections.defaultdict(dict)
    current = []

    def record(name, order):
        orders = seen[current[-1]]
        orders[name] = max(orders.get(name, -1), order)

    real_dense = affine.CurvaturePack.dense

    def dense(self, name, points, order):
        record("CurvaturePack.dense", order)
        return real_dense(self, name, points, order)

    monkeypatch.setattr(affine.CurvaturePack, "dense", dense)
    for fname in ("l_tau", "polynomial_tractor_section", "metric_tractor_omega"):
        real = getattr(tractor, fname)
        order_of = inspect.signature(real).bind_partial

        def recorded(*args, _real=real, _name=fname, _order_of=order_of, **kwargs):
            record(_name, _order_of(*args, **kwargs).arguments["order"])
            return _real(*args, **kwargs)

        for module in (tractor, verify, boundary):
            if getattr(module, fname, None) is real:
                monkeypatch.setattr(module, fname, recorded)
    for name, dim in (("af2_generic", 4), ("af1_generic", 4), ("klein", 4)):
        geom = builtin_geometry(name, dim)
        for check in registry():
            current.append(check.id)
            run_suite(geom, [check.id], SamplingPlan())
    assert {check.id: seen[check.id] for check in registry()} == JET_ORDERS
