"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
live).  Expected values marked as derived in the design notes were computed
with independent oracles: mpmath finite differences for the jet kernel,
closed-form hyperbolic-ball curvature for the Klein model, and the
constructor constants of the asymptotic-form family.
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import at_boundary_points, ladders
from expr_reference import evaluate
from jet_reference import jet_call
from tractorlab import boundary as bd
from tractorlab import expr as ex
from tractorlab.fields import builtin_geometry
from tractorlab.jets import jet_space
from tractorlab.tractor import TractorCalculus
from tractorlab.verify import SamplingPlan, registry, run_suite

_TIMES: dict[str, float] = {}


def report(criterion: str, ok: bool, detail: str):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def geoms():
    return {
        ("klein", 3): builtin_geometry("klein", 3),
        ("klein", 4): builtin_geometry("klein", 4),
        ("af2_generic", 4): builtin_geometry("af2_generic", 4),
        ("af1_generic", 4): builtin_geometry("af1_generic", 4),
        ("poincare_control", 3): builtin_geometry("poincare_control", 3),
    }


def _suite_status(reports, ids):
    by_id = {r.check_id: r for r in reports}
    worst = 0.0
    for i in ids:
        r = by_id[i]
        if r.status != "pass":
            return False, math.inf
        worst = max(worst, r.max_residual / r.tolerance)
    return True, worst


# -- criterion 1: jet kernel vs finite differences ------------------------------


def _random_function(rng):
    """A random smooth 2-variable expression with safe domains."""

    def poly(scale, degree=2):
        terms = [f"{rng.uniform(-scale, scale):.6f}"]
        names = ["u", "v"]
        for _ in range(rng.integers(2, 5)):
            n1 = names[rng.integers(2)]
            term = f"{rng.uniform(-scale, scale):.6f}*{n1}"
            if degree >= 2 and rng.random() < 0.5:
                term += f"*{names[rng.integers(2)]}"
            terms.append(term)
        return "(" + " + ".join(terms) + ")"

    pieces = [poly(1.5, 3)]
    choices = rng.permutation(
        ["exp", "log", "sqrt", "sin", "cos", "tan", "atan", "div", "poly"]
    )
    for kind in choices[: rng.integers(2, 4)]:
        if kind == "exp":
            pieces.append(f"exp(0.6*{poly(0.8)})")
        elif kind == "log":
            pieces.append(f"log(3.0 + {poly(0.5)})")
        elif kind == "sqrt":
            pieces.append(f"sqrt(2.5 + {poly(0.5)})")
        elif kind == "tan":
            pieces.append(f"tan(0.3*{poly(0.5)})")
        elif kind in ("sin", "cos", "atan"):
            pieces.append(f"{kind}({poly(1.0)})")
        elif kind == "div":
            pieces.append(f"{poly(1.0)}/(2.0 + 0.5*{poly(0.6)}^2)")
        else:
            pieces.append(poly(1.2, 3))
    src = " + ".join(pieces)
    return ex.parse_expr(src, variables=("u", "v"))


def _fd_stencil(mp, m: int):
    """mpmath weights of a high-order central stencil for the m-th derivative."""
    p = 2 if m <= 2 else 3
    nodes = list(range(-p, p + 1))
    size = len(nodes)
    rows = [[mp.mpf(j) ** k for j in nodes] for k in range(size)]
    rhs = [mp.factorial(k) if k == m else mp.mpf(0) for k in range(size)]
    weights = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))
    return [(nodes[i], weights[i]) for i in range(size) if weights[i] != 0]


def test_criterion_01_jet_kernel_oracle():
    import mpmath as mp

    mp.mp.dps = 50
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    base = (0.31, -0.22)
    h = mp.mpf("1e-4")
    space = jet_space(2, 3)
    multis = [m for m in space.multis if sum(m) <= 3]
    stencils = {m: _fd_stencil(mp, m) for m in range(4)}

    def mp_call(f, v):
        return getattr(mp, f)(v)

    worst = 0.0
    for _ in range(50):
        tree = _random_function(rng)
        env_jet = {
            "u": space.variable(0, base[0]),
            "v": space.variable(1, base[1]),
        }
        jet = evaluate(tree, env_jet, jet_call)

        def f_mp(du, dv):
            env = {"u": mp.mpf(base[0]) + du, "v": mp.mpf(base[1]) + dv}
            return evaluate(tree, env, mp_call)

        for m in multis:
            got = jet.derivative(m)
            acc = mp.mpf(0)
            for ju, wu in stencils[m[0]]:
                for jv, wv in stencils[m[1]]:
                    acc += wu * wv * f_mp(ju * h, jv * h)
            expected = float(acc / h ** sum(m))
            rel = abs(got - expected) / max(1.0, abs(expected))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _TIMES["1"] = elapsed
    report(
        "1",
        worst <= 1e-6 and elapsed < 5.0,
        f"jet coefficients vs mpmath central differences: worst relative "
        f"error {worst:.2e} over 50 functions in {elapsed:.1f}s",
    )


# -- criterion 2: kernel identities on three geometries ---------------------------


def test_criterion_02_curvature_identities(geoms):
    start = time.perf_counter()
    plan = SamplingPlan(seed=11, interior_points=50)
    worst = 0.0
    ok = True
    for key in (("klein", 3), ("klein", 4), ("af2_generic", 4)):
        reports = run_suite(geoms[key], ["weyl-traces", "bianchi"], plan)
        for r in reports:
            ok = ok and r.status == "pass" and r.max_residual <= 1e-9
            worst = max(worst, r.max_residual)
    elapsed = time.perf_counter() - start
    _TIMES["2"] = elapsed
    report(
        "2",
        ok and elapsed < 30.0,
        f"Weyl traces, Bianchi and decomposition reassembly at 50 points on "
        f"klein(3,4) and af2(4): worst {worst:.2e} <= 1e-9 in {elapsed:.1f}s",
    )


# -- criterion 3: the order-2 asymptotic form -------------------------------------


def test_criterion_03_asymptotic_form(geoms):
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    klein = geoms[("klein", 3)]
    ys = klein.boundary_points(5, rng)
    rep = bd.asymptotic_h(TractorCalculus(klein), ladders(klein, ys))
    s_ok = all(abs(s + 6.0) <= 1e-5 for s in rep.scalar_limits)
    c_ok = abs(rep.C - 0.25) <= 1e-6
    min_eig = min(
        float(np.min(np.abs(np.linalg.eigvalsh(E.T @ est.value @ E))))
        for est, E in zip(rep.h_estimates, bd.tangential_basis(klein, ys), strict=True)
    )
    eig_ok = min_eig >= 0.5
    af2 = geoms[("af2_generic", 4)]
    rep2 = bd.asymptotic_h(
        TractorCalculus(af2), ladders(af2, af2.boundary_points(3, rng))
    )
    c2_ok = abs(rep2.C - af2.constructor_C) <= 1e-6
    elapsed = time.perf_counter() - start
    _TIMES["3"] = elapsed
    report(
        "3",
        s_ok and c_ok and eig_ok and c2_ok,
        f"klein: S -> -6 at 5 boundary points (spread {rep.scalar_spread:.1e}), "
        f"C = {rep.C:.8f}, min tangential |eig| = {min_eig:.3f}; "
        f"af2: recovered C - constructor C = {rep2.C - af2.constructor_C:.2e}",
    )


# -- criterion 4: transversal invariant -------------------------------------------


def test_criterion_04_transversal_invariant(geoms):
    start = time.perf_counter()
    reports = run_suite(
        geoms[("klein", 3)], ["prop-2.5-mu"],
        SamplingPlan(seed=13, boundary_points=4),
    )
    r = reports[0]
    values = [d["extrapolated_value"] for d in r.details if "extrapolated_value" in d]
    variations = [d["variation_along_curve"] for d in r.details
                  if "variation_along_curve" in d]
    cross = [d["cross_transversal_variation"] for d in r.details
             if "cross_transversal_variation" in d][0]
    ok = (
        r.status == "pass"
        and max(variations) <= 1e-6
        and all(abs(v - 0.25) <= 1e-5 for v in values)
        and cross <= 1e-4
    )
    _TIMES["4"] = time.perf_counter() - start
    report(
        "4",
        ok,
        f"rho^2 g(mu,mu): variation {max(variations):.1e} <= 1e-6, value "
        f"{values[0]:.6f} = 1/4 +- 1e-5, cross-transversal {cross:.1e} <= 1e-4",
    )


# -- criterion 5: extrinsic geometry by order --------------------------------------


def test_criterion_05_curvature_asymptotics(geoms):
    start = time.perf_counter()
    plan = SamplingPlan(seed=14, boundary_points=3)
    rep_af1 = run_suite(geoms[("af1_generic", 4)],
                        ["prop-3.2-i", "prop-3.3-i"], plan)
    rep_klein = run_suite(geoms[("klein", 3)], ["prop-3.3-ii"], plan)
    ok, worst = _suite_status(rep_af1 + rep_klein,
                              ["prop-3.2-i", "prop-3.3-i", "prop-3.3-ii"])
    _TIMES["5"] = time.perf_counter() - start
    report(
        "5",
        ok,
        "totally geodesic boundary at order one and the rho R / rho^2 R "
        f"curvature limits hold at 1e-5 (worst residual/tolerance {worst:.1e})",
    )


# -- criterion 6: the interior Schouten-derivative identity -------------------------


def test_criterion_06_schouten_derivative_identity(geoms):
    start = time.perf_counter()
    plan = SamplingPlan(seed=15, interior_points=100)
    ok = True
    worst = 0.0
    for key in (("klein", 3), ("af2_generic", 4)):
        r = run_suite(geoms[key], ["prop-4.3-identity"], plan)[0]
        ok = ok and r.status == "pass" and r.n_points == 100
        worst = max(worst, r.max_residual)
    elapsed = time.perf_counter() - start
    _TIMES["6"] = elapsed
    report(
        "6",
        ok and elapsed < 60.0,
        f"rho grad P identity at 100 seeded points on klein and af2: worst "
        f"{worst:.2e} <= 1e-8 in {elapsed:.1f}s",
    )


# -- criterion 7: splitting equivariance and component instances -------------------


def test_criterion_07_splitting_instances(geoms):
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for key in (("klein", 3), ("af2_generic", 4)):
        r = run_suite(geoms[key], ["splitting-equivariance"],
                      SamplingPlan(seed=16))[0]
        ok = ok and r.status == "pass" and r.max_residual <= 1e-7
        worst = max(worst, r.max_residual)
    _TIMES["7"] = time.perf_counter() - start
    report(
        "7",
        ok,
        f"derivative-vs-splitting-change and the three closed-form component "
        f"instances agree to {worst:.2e} <= 1e-7",
    )


# -- criterion 8: the inverse tractor metric ---------------------------------------


def test_criterion_08_split_identities(geoms):
    start = time.perf_counter()
    ok = True
    worst = 0.0
    t_limits = []
    for key in (("klein", 3), ("af2_generic", 4)):
        r = run_suite(geoms[key], ["prop-4.2-splitids"],
                      SamplingPlan(seed=17, interior_points=10))[0]
        ok = ok and r.status == "pass"
        worst = max(worst, r.max_residual)
        t_limits += [d["t_dot_drho_limit"] for d in r.details
                     if "t_dot_drho_limit" in d]
    ok = ok and all(abs(t - 1.0) <= 1e-5 for t in t_limits)
    _TIMES["8"] = time.perf_counter() - start
    report(
        "8",
        ok,
        f"splitting identities <= 1e-8 interior (worst {worst:.2e}); "
        f"t^a rho_a -> 1 with worst gap "
        f"{max(abs(t - 1) for t in t_limits):.1e} <= 1e-5",
    )


# -- criterion 9: the metric tractor connection -------------------------------------


def test_criterion_09_metric_tractor_connection(geoms):
    start = time.perf_counter()
    af2 = geoms[("af2_generic", 4)]
    plan = SamplingPlan(seed=18)
    r_metric = run_suite(af2, ["thm-4.3-metric"], plan)[0]
    pairs = sum(d.get("pairs", 0) for d in r_metric.details)
    r_tors = run_suite(af2, ["thm-4.3-torsionfree"], plan)[0]
    torsion = max(d["torsion_block"] for d in r_tors.details)
    blocks = max(d["block_formula_vs_commutator"] for d in r_tors.details)
    ok = (
        r_metric.status == "pass"
        and pairs >= 20
        and r_tors.status == "pass"
        and torsion <= 1e-6
        and blocks <= 1e-6
    )
    _TIMES["9"] = time.perf_counter() - start
    report(
        "9",
        ok,
        f"metric compatibility on {pairs} section pairs ({r_metric.max_residual:.1e}), "
        f"torsion block {torsion:.1e}, curvature block formula vs commutator "
        f"{blocks:.1e}, all <= 1e-6",
    )


# -- criterion 10: boundary normalization --------------------------------------------


def test_criterion_10_boundary_normalization(geoms):
    start = time.perf_counter()
    af2 = geoms[("af2_generic", 4)]
    r = run_suite(af2, ["thm-4.4-normality"],
                  SamplingPlan(seed=19, boundary_points=3))[0]
    pattern = max(max(d["zero_pattern"], d["gamma_skewness"]) for d in r.details)
    ricci = max(d["normality_residual"] for d in r.details)
    fault = min(d["fault_detector_residual"] for d in r.details)
    ok = (
        r.status == "pass" and pattern <= 1e-5 and ricci <= 1e-6 and fault > 0.1
    )
    _TIMES["10"] = time.perf_counter() - start
    report(
        "10",
        ok,
        f"curvature zero-pattern/gamma-skewness {pattern:.1e} <= 1e-5, "
        f"normalized Ricci contraction {ricci:.1e} <= 1e-6, injected-fault "
        f"residual {fault:.2f} > 0.1",
    )


# -- criterion 11: the asymptotically parallel case ----------------------------------


def test_criterion_11_asymptotically_parallel(geoms):
    start = time.perf_counter()
    geom = at_boundary_points(geoms[("klein", 4)], (0.0, 1.0, 0.0, 0.0))
    (r,) = run_suite(geom, ["thm-4.1a-normal"])
    # a ladder where normality is not judged has no norms: they read NaN
    rep = dict.fromkeys(
        ("hypothesis_norm", "t1_defect", "normality_residual", "tracefree_ricci_norm"),
        math.nan,
    )
    rep.update(r.details[0] if r.details else {})
    ok = (
        rep["hypothesis_norm"] <= 1e-6
        and rep["t1_defect"] <= 1e-6
        and rep["normality_residual"] <= 1e-6
        and rep["tracefree_ricci_norm"] <= 1e-5
        and rep.get("equivalence_ok", False)
    )
    _TIMES["11"] = time.perf_counter() - start
    report(
        "11",
        ok,
        f"derivative of L(tau) vanishes at the boundary ({rep['hypothesis_norm']:.1e}), "
        f"restricted connection is normal (T1 {rep['t1_defect']:.1e}, Ricci "
        f"{rep['normality_residual']:.1e}), equivalence with vanishing trace-free "
        f"Ricci ({rep['tracefree_ricci_norm']:.1e}) confirmed",
    )


# -- criterion 12: the negative control ----------------------------------------------


def test_criterion_12_negative_control(geoms):
    start = time.perf_counter()
    from tractorlab.cli import main

    poincare = geoms[("poincare_control", 3)]
    reports = run_suite(poincare, "all", SamplingPlan(seed=20, boundary_points=2))
    by_id = {r.check_id: r for r in reports}
    dd = by_id["defining-density"]
    ext = by_id["rho-connection-extends"]
    diverged = any(d.get("diverged") for d in ext.details)
    completed = len(reports) == len(registry())
    code = main([
        "verify", "--geometry", "poincare_control", "--dim", "3",
        "--checks", "defining-density,rho-connection-extends",
        "--boundary-points", "2", "--out", os.devnull,
    ])
    ok = (
        dd.status == "fail" and ext.status == "fail" and diverged
        and completed and code == 1
    )
    _TIMES["12"] = time.perf_counter() - start
    report(
        "12",
        ok,
        "conformally compact control fails the defining-density and "
        "connection-extension checks (divergence detected), the suite "
        f"completes all {len(reports)} checks, and the CLI exits 1",
    )


def test_acceptance_wall_time_budget():
    total = sum(_TIMES.values())
    report(
        "wall-time",
        total < 300.0,
        f"acceptance criteria ran in {total:.0f}s < 300s",
    )
