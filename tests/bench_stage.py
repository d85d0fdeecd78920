"""Time the pieces of one stage (one evaluation of the integrator) of
``boundary.geodetic_transversals``, and the two checks that integrate
transversals.

Usage (from any directory; it imports ``src/tractorlab`` of the tree it sits
in, and pytest does not collect it)::

    python tests/bench_stage.py                       # print the table
    python tests/bench_stage.py --column after --out BENCH_dp5.json
    python tests/bench_stage.py --geometry klein-3    # one geometry, as JSON

Each layer runs on klein-3 and on af2_generic-4, each geometry in a fresh
child process (``--geometry``) that builds only that geometry: a layer timed
after another geometry's runs in the same process read up to 15% apart on
the same code.  The stage layers run on a 4-row batch of collar points (the
states of four transversals at t = 0.05):

* ``rho_tape.o0`` / ``rho_tape.o1``: ``Geometry.rho_dense`` at order 0 / 1;
* ``metric_tape.o1``: the metric jets at order 1 (the Levi-Civita input);
* ``stage_tape.o1``: ``Geometry.rho_and_metric`` at order 1, the one tape
  run of a stage (rho and the metric); a tree without it skips this layer
  and the next;
* ``jet_inverse.o0``: the order-0 inverse of the metric values;
* ``value_inverse``: ``jets.value_inverse`` of the same values, the
  inverse and its pole gate that ``hat_christoffel_values`` runs (a tree
  without it skips this layer);
* ``hat_christoffel_values``: ``TractorCalculus.hat_christoffel_values``,
  the rho-modified connection's values from the rho and metric jets of one
  run of the stage tape (not timed here);
* ``stage``: one stage of the integrator, as the time of a 0.2-long run
  minus that of a 0.05-long run, over the stages between them, counted as
  the runs of the stage tape they make (six a step for Dormand-Prince 5,
  four for RK4; some also carry the rows of the run at twice the step, and
  of the moved launches, where the tree has them);
* ``transversals``: one joint run of 8 curves, the size of the run that
  the two checks below share in a suite, at the default plan's step and
  horizon; ``transversals.integration_error`` is the largest step-doubling
  estimate of its curves (a number, not a time; a tree without the
  estimate skips it);
* ``ode_pair``: ``run_suite`` of ``lem-2.4-transversal`` and ``prop-2.5-mu``
  with the default plan, per suite (both checks' ladders, curves and
  limits).

The step is the default plan's, so each tree runs at its own default.

Times are medians of ``--repeat`` blocks, in reference microseconds per
call: ``perfbench/speed.py``'s ``SpeedClock`` scales elapsed time by the
host's measured speed, which on a shared host moves in steps for seconds at
a time; each child runs its own clock, and a column records the mean of
their speeds.  With ``--out`` the run is appended to one named column of a
JSON file, next to the columns already there, and the column's ``median`` over
its runs is refreshed; so two trees fill one file, best with their runs
alternating::

    for i in 1 2 3 4 5; do
      python before/tests/bench_stage.py --column before --out BENCH_rk4_stage.json
      python after/tests/bench_stage.py --column after --out BENCH_rk4_stage.json
    done

``BENCH_ode_pair.json`` holds such runs of the parent and the change of
the suite-level sharing of transversals, read from its ``ode_pair`` rows;
``BENCH_ode_step.json`` those of the default step 1e-3 and of the step
2e-3 with its integration error estimate, read from the ``transversals``
and ``ode_pair`` rows; ``BENCH_dp5.json`` those of RK4 at 2e-3 and of
Dormand-Prince 5 at 5e-3, read from the ``stage``, ``transversals``,
``transversals.integration_error`` and ``ode_pair`` rows.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from speed import SpeedClock  # noqa: E402

from tractorlab import boundary as bd  # noqa: E402
from tractorlab import jets  # noqa: E402
from tractorlab.extrapolate import boundary_ladder  # noqa: E402
from tractorlab.fields import builtin_geometry  # noqa: E402
from tractorlab.tractor import TractorCalculus  # noqa: E402
from tractorlab.verify import SamplingPlan, run_suite  # noqa: E402

GEOMETRIES = (("klein", 3), ("af2_generic", 4))
ROWS = 4
JOINT = 8
STEP = SamplingPlan().ode_step
SHORT, LONG = 0.05, 0.2
ODE_PAIR = ("lem-2.4-transversal", "prop-2.5-mu")
UNIT = "reference us per call, median block"


def stage_runs(geom, fn) -> int:
    """The runs of the stage tape, ``Geometry.rho_and_metric``, that
    ``fn()`` makes: one per evaluation of the integrator, whatever its
    method."""
    real, calls = geom.rho_and_metric, []
    geom.rho_and_metric = lambda *args: calls.append(1) or real(*args)
    try:
        fn()
    finally:
        del geom.rho_and_metric
    return len(calls)


def measure(
    clock: SpeedClock, name: str, dim: int, calls: int, repeat: int
) -> dict[str, float]:
    def per_call_us(fn, calls: int = calls) -> float:
        blocks = []
        for _ in range(repeat):
            start = clock.now()
            for _ in range(calls):
                fn()
            blocks.append((clock.now() - start) / calls)
        return statistics.median(blocks) * 1e6

    geom = builtin_geometry(name, dim)
    plan = SamplingPlan()
    ys = geom.boundary_points(ROWS, np.random.default_rng(0))
    lads = [boundary_ladder(geom, y, eps0=plan.eps0, levels=plan.levels) for y in ys]
    calc = TractorCalculus(geom)
    curves = bd.geodetic_transversals(calc, lads, step=STEP, horizon=SHORT)
    x = np.array([curve.points[-1] for curve in curves])
    gfield = geom.metric_field()
    g0 = gfield.dense(x, 1)[..., :1]
    space0 = jets.jet_space(dim, 0)

    def run(horizon):
        return lambda: bd.geodetic_transversals(calc, lads, step=STEP, horizon=horizon)

    stages = stage_runs(geom, run(LONG)) - stage_runs(geom, run(SHORT))
    layers = {
        "rho_tape.o0": per_call_us(lambda: geom.rho_dense(x, 0)),
        "rho_tape.o1": per_call_us(lambda: geom.rho_dense(x, 1)),
        "metric_tape.o1": per_call_us(lambda: gfield.dense(x, 1)),
    }
    if hasattr(geom, "rho_and_metric"):
        layers["stage_tape.o1"] = per_call_us(lambda: geom.rho_and_metric(x, 1))
        rho1, g1 = geom.rho_and_metric(x, 1)
        layers["hat_christoffel_values"] = per_call_us(
            lambda: calc.hat_christoffel_values(rho1, g1)
        )
    layers["jet_inverse.o0"] = per_call_us(lambda: jets.jet_inverse(g0, space0))
    if hasattr(jets, "value_inverse"):
        layers["value_inverse"] = per_call_us(lambda: jets.value_inverse(g0[..., 0]))
    layers["stage"] = (per_call_us(run(LONG), 1) - per_call_us(run(SHORT), 1)) / stages
    ys8 = geom.boundary_points(JOINT, np.random.default_rng(0))
    lads8 = [boundary_ladder(geom, y, eps0=plan.eps0, levels=plan.levels) for y in ys8]

    def joint():
        return bd.geodetic_transversals(calc, lads8, step=STEP, horizon=plan.ode_horizon)

    layers["transversals"] = per_call_us(joint, 1)
    if hasattr(bd.TransversalCurve, "integration_error"):
        layers["transversals.integration_error"] = max(
            curve.integration_error for curve in joint()
        )
    layers["ode_pair"] = per_call_us(lambda: run_suite(geom, ODE_PAIR, plan), 1)
    return layers


def child(spec: str, calls: int, repeat: int) -> dict:
    """The layers of the geometry ``spec`` (``NAME-DIM``), timed by a fresh
    process that builds only that geometry, and the host speed it saw."""
    argv = [sys.executable, __file__, "--geometry", spec,
            "--calls", str(calls), "--repeat", str(repeat)]
    return json.loads(subprocess.run(argv, check=True, capture_output=True, text=True).stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=200, help="calls per block")
    parser.add_argument("--repeat", type=int, default=7, help="blocks per layer")
    parser.add_argument("--column", default="this tree", help="column of --out to add the run to")
    parser.add_argument("--out", default=None, help="JSON file of columns")
    parser.add_argument("--geometry", default=None,
                        help="time this one geometry (NAME-DIM) in this process, print JSON")
    args = parser.parse_args(argv)
    if args.geometry:
        name, dim = args.geometry.rsplit("-", 1)
        with SpeedClock() as clock:
            layers = measure(clock, name, int(dim), args.calls, args.repeat)
        print(json.dumps({"layers": layers, "host_speed": clock.mean_speed()}))
        return 0
    runs = {f"{name}-{dim}": child(f"{name}-{dim}", args.calls, args.repeat)
            for name, dim in GEOMETRIES}
    column = {geom: run["layers"] for geom, run in runs.items()}
    for geom, layers in column.items():
        for layer, us in layers.items():
            print(f"{geom:16s} {layer:32s} {us:9.3g}")
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.setdefault("rows", ROWS)
        entry = doc.setdefault("columns", {}).setdefault(
            args.column, {"runs": [], "unit": UNIT}
        )
        entry["runs"].append(column)
        entry["median"] = {
            geom: {
                layer: float(np.median([run[geom][layer] for run in entry["runs"]]))
                for layer in layers
            }
            for geom, layers in column.items()
        }
        entry["environment"] = {
            "host_speed": statistics.mean(run["host_speed"] for run in runs.values()),
            "nproc": os.cpu_count(),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
