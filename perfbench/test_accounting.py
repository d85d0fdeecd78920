"""Tests of the benchmark's own accounting: oracle verdicts, self-time
arithmetic, tracing transparency and the metric lists.

Run with ``python3 -m pytest perfbench -q`` from the root of the tree.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import pytest

import oracle
import run
from tracer import Instrumentation, Tracer
from workloads import (
    KNOWN_DEFECT_PLAN_SEED, EvalColdWorkload, Group, PassResult, SuiteWorkload,
    make_workload,
)

ROOT = Path(__file__).resolve().parent.parent


def _doc(check_id, status, residual=0.0, tol=1e-5, details=(), reason=""):
    return {"id": check_id, "paper_ref": "", "status": status,
            "max_residual": residual, "tolerance": tol, "n_points": 1,
            "details": list(details), "reason": reason}


# -- oracle ---------------------------------------------------------------------


def test_control_that_passes_is_failed_and_wrong():
    out = oracle.judge_check("poincare_control", 3, _doc("defining-density", "pass"))
    assert out.failed and out.wrong


def test_control_failing_with_flagged_divergence_is_expected():
    dd = _doc("defining-density", "fail", math.inf,
              details=[{"reason": "tau/rho diverges at the boundary"}])
    rc = _doc("rho-connection-extends", "fail", math.inf,
              details=[{"diverged": True}])
    for doc in (dd, rc):
        assert not oracle.judge_check("flat", 3, doc).failed


def test_control_failing_without_a_flag_is_failed():
    rc = _doc("rho-connection-extends", "fail", math.inf,
              details=[{"diverged": False}])
    dd = _doc("defining-density", "fail", math.inf, details=[{"reason": ""}])
    for doc in (rc, dd):
        out = oracle.judge_check("flat", 3, doc)
        assert out.failed and not out.wrong


def test_positive_check_that_errors_is_failed():
    doc = _doc("thm-4.4-normality", "error", math.inf,
               reason="BoundaryExtensionError: diverges")
    out = oracle.judge_check("klein", 4, doc)
    assert out.failed and not out.wrong
    assert "BoundaryExtensionError" in out.reason


def test_pass_where_hypothesis_fails_is_wrong():
    out = oracle.judge_check("af2_generic", 4, _doc("thm-4.1a-normal", "pass"))
    assert out.failed and out.wrong
    ok = oracle.judge_check("af2_generic", 4, _doc("thm-4.1a-normal", "skip"))
    assert not ok.failed


def test_applicability_by_alpha_and_dim():
    assert oracle.expected_status("af1_generic", 4, "prop-3.2-i") == "pass"
    assert oracle.expected_status("af1_generic", 4, "prop-2.2-dense") == "skip"
    assert oracle.expected_status("klein", 3, "thm-4.4-normality") == "skip"
    assert oracle.expected_status("klein", 4, "thm-4.4-normality") == "pass"


def test_residual_ratio_of_a_passing_check():
    out = oracle.judge_check("klein", 3, _doc("bianchi", "pass", 2e-10, 1e-9))
    assert not out.failed and out.residual_ratio == pytest.approx(0.2)


def test_eval_exception_and_exit_codes_are_failed():
    esc = oracle.judge_eval("op", "klein", 4, "phi", "BoundaryExtensionError: x", "")
    assert esc.failed and not esc.wrong
    two = oracle.judge_eval("op", "klein", 4, "phi", 2, "")
    assert two.failed


def test_eval_output_must_be_strict_json_and_finite():
    nan = oracle.judge_eval("op", "af2_generic", 4, "weyl", 0, '{"value": NaN}')
    assert nan.failed and nan.wrong
    big = oracle.judge_eval("op", "af2_generic", 4, "weyl", 0, '{"value": [1e999]}')
    assert big.failed and big.wrong


def test_klein_scalar_curvature_is_checked():
    good = oracle.judge_eval("op", "klein", 4, "scalar_curvature", 0,
                             json.dumps({"value": -12.0 + 1e-9}))
    assert not good.failed and good.residual_ratio < 1.0
    bad = oracle.judge_eval("op", "klein", 4, "scalar_curvature", 0,
                            json.dumps({"value": -11.0}))
    assert bad.failed and bad.wrong


def test_escaping_exception_in_a_suite_run_counts_once_and_pass_goes_on():
    workload = SuiteWorkload(
        [("no_such_geometry", 3, ("bianchi",), None),
         ("flat", 3, ("bianchi",), None)], 0
    )
    result = workload.run_pass()
    assert [o.failed for o in result.outcomes] == [True, False]
    assert "GeometryError" in result.outcomes[0].reason


def test_determinism_guard_fails_the_outcomes_of_a_changed_report():
    first = PassResult(1.0, [Group("a", [oracle.Outcome("x")]),
                             Group("b", [oracle.Outcome("y")])])
    later = PassResult(1.0, [Group("a", [oracle.Outcome("x")]),
                             Group("B", [oracle.Outcome("y")])])
    run.guard_determinism(first, later)
    assert [(o.failed, o.wrong) for o in later.outcomes] == [(False, False), (True, True)]


def test_known_defect_inputs_do_not_depend_on_the_seed():
    pairs = [
        [r for r in make_workload("interior", seed, run.WORKDIR).runs
         if r[0] == "klein"]
        for seed in (1, 2)
    ]
    assert pairs[0] == pairs[1] == [
        ("klein", 4, ("thm-4.1a-normal", "thm-4.4-normality"),
         KNOWN_DEFECT_PLAN_SEED)
    ]
    try:
        phis = [
            sorted(c[4] for c in EvalColdWorkload(seed, run.WORKDIR).calls
                   if c[1] == "klein" and c[3] == "phi")
            for seed in (1, 2)
        ]
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
    assert len(phis[0]) == 2 and phis[0] == phis[1]


# -- tracer ---------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_on_a_nested_call_tree():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.t += 2.0

    def middle(depth):
        clock.t += 1.0
        if depth:
            middle_w(depth - 1)  # same layer: stays charged to "a"
        leaf_w()
        clock.t += 3.0

    leaf_w = tr.wrap("b", leaf)
    middle_w = tr.wrap("a", middle, inclusive="a_incl")
    tr.start()
    clock.t += 5.0
    middle_w(1)
    clock.t += 7.0
    tr.stop()

    assert tr.self_s["a"] == pytest.approx(8.0)
    assert tr.self_s["b"] == pytest.approx(4.0)
    assert tr.self_s["unattributed"] == pytest.approx(12.0)
    assert tr.wall_s == pytest.approx(24.0)
    assert sum(tr.self_s.values()) == pytest.approx(tr.wall_s)
    # the inclusive total counts the outermost call only
    assert tr.inclusive_s["a_incl"] == pytest.approx(12.0)


def test_stack_unwinds_when_a_wrapped_call_raises():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def boom():
        clock.t += 1.0
        raise ValueError("x")

    boom_w = tr.wrap("b", boom)
    tr.start()
    with pytest.raises(ValueError):
        boom_w()
    clock.t += 2.0
    tr.stop()
    assert tr.layer == "unattributed" and not tr.stack
    assert tr.self_s["b"] == 1.0 and tr.self_s["unattributed"] == 2.0


def test_instrumentation_is_removed_afterwards():
    import tractorlab.extrapolate as ext
    import tractorlab.jets as jets
    import tractorlab.verify as verify

    before = (jets.Jet.__mul__, ext.boundary_ladder, verify.boundary_ladder)
    with Instrumentation(Tracer()):
        assert verify.boundary_ladder is ext.boundary_ladder
        assert ext.boundary_ladder is not before[1]
    assert (jets.Jet.__mul__, ext.boundary_ladder, verify.boundary_ladder) == before


# -- speed clock ----------------------------------------------------------------


def test_speed_clock_integrates_scaled_time_and_restores_the_handler():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock() as clock:
        start = clock.now()
        end_wall = time.perf_counter() + 0.3
        while time.perf_counter() < end_wall:
            speed._probe()
        elapsed = clock.now() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert clock.wall_s > 0.2
    assert elapsed == pytest.approx(clock.mean_speed() * 0.3, rel=0.3)


# -- tracing leaves the reports unchanged ---------------------------------------


def _plain_and_traced(workload):
    plain = workload.run_pass()
    tracer = Tracer()
    with Instrumentation(tracer):
        tracer.start()
        traced = workload.run_pass()
        tracer.stop()
    return plain, traced, tracer


def test_traced_suite_reports_are_byte_identical():
    workload = SuiteWorkload(
        [("klein", 3, ("prop-2.1-extend", "weyl-traces", "defining-density"),
          None)], 3
    )
    plain, traced, tracer = _plain_and_traced(workload)
    assert [g.text for g in plain.groups] == [g.text for g in traced.groups]
    assert tracer.counts["expr.eval.nodes"] > tracer.counts["expr.eval.calls"] > 0
    assert tracer.counts["jets.mul.o1"] > 0
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.wall_s)


def test_traced_evals_are_byte_identical():
    workload = EvalColdWorkload(5, run.WORKDIR)
    workload.calls = [c for c in workload.calls
                      if c[3] in ("weyl", "scalar_curvature")][:4]
    try:
        plain, traced, tracer = _plain_and_traced(workload)
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
    assert [g.text for g in plain.groups] == [g.text for g in traced.groups]
    assert not any(o.failed for o in plain.outcomes)
    assert tracer.counts["cli.calls"] == 4
    assert tracer.counts["fields.geometry_build.calls"] == 4


# -- metric lists ---------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in bench["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_baseline_covers_every_metric_and_workload():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    for w in bench["workloads"]:
        entry = base["workloads"][w["name"]]
        assert set(entry["end_to_end"]) == {m["name"] for m in bench["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in bench["per_layer"]}
