"""Time the pieces of one RK4 stage of ``boundary.geodetic_transversals``,
and the two checks that integrate transversals.

Usage (from any directory; it imports ``src/tractorlab`` of the tree it sits
in, and pytest does not collect it)::

    python tests/bench_stage.py                       # print the table
    python tests/bench_stage.py --column after --out BENCH_rk4_stage.json

Each layer runs on klein-3 and on af2_generic-4; the stage layers on a
4-row batch of collar points (the states of four transversals, 50 steps
in):

* ``rho_tape.o0`` / ``rho_tape.o1``: ``Geometry.rho_dense`` at order 0 / 1;
* ``metric_tape.o1``: the metric jets at order 1 (the Levi-Civita input);
* ``stage_tape.o1``: ``Geometry.rho_and_metric`` at order 1, the one tape
  run of a stage (rho and the metric); a tree without it skips this layer
  and the next;
* ``jet_inverse.o0``: the order-0 inverse of the metric values;
* ``hat_christoffel_values``: ``TractorCalculus.hat_christoffel_values``,
  the rho-modified connection's values from the rho and metric jets of one
  run of the stage tape (not timed here);
* ``stage``: one stage of the integrator, as the time of a 0.2-long run
  minus that of a 0.05-long run, over the 600 stages between them;
* ``ode_pair``: ``run_suite`` of ``lem-2.4-transversal`` and ``prop-2.5-mu``
  with the default plan, per suite (both checks' ladders, curves and
  limits).

Times are medians of ``--repeat`` blocks, in reference microseconds per
call: ``perfbench/speed.py``'s ``SpeedClock`` scales elapsed time by the
host's measured speed, which on a shared host moves in steps for seconds at
a time.  With ``--out`` the run is appended to one named column of a JSON
file, next to the columns already there, and the column's ``median`` over
its runs is refreshed; so two trees fill one file, best with their runs
alternating::

    for i in 1 2 3 4 5; do
      python before/tests/bench_stage.py --column before --out BENCH_rk4_stage.json
      python after/tests/bench_stage.py --column after --out BENCH_rk4_stage.json
    done

``BENCH_ode_pair.json`` holds such runs of the parent and the change of
the suite-level sharing of transversals, read from its ``ode_pair`` rows.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from speed import SpeedClock  # noqa: E402

from tractorlab import boundary as bd  # noqa: E402
from tractorlab.extrapolate import boundary_ladder  # noqa: E402
from tractorlab.fields import builtin_geometry  # noqa: E402
from tractorlab.jets import jet_inverse, jet_space  # noqa: E402
from tractorlab.tractor import TractorCalculus  # noqa: E402
from tractorlab.verify import SamplingPlan, run_suite  # noqa: E402

GEOMETRIES = (("klein", 3), ("af2_generic", 4))
ROWS = 4
STEP = 1e-3
SHORT, LONG = 0.05, 0.2
ODE_PAIR = ("lem-2.4-transversal", "prop-2.5-mu")
UNIT = "reference us per call, median block"


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
    space0 = jet_space(dim, 0)

    def run(horizon):
        return lambda: bd.geodetic_transversals(calc, lads, step=STEP, horizon=horizon)

    stages = 4 * round((LONG - SHORT) / STEP)
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
    return {
        **layers,
        "jet_inverse.o0": per_call_us(lambda: jet_inverse(g0, space0)),
        "stage": (per_call_us(run(LONG), 1) - per_call_us(run(SHORT), 1)) / stages,
        "ode_pair": per_call_us(lambda: run_suite(geom, ODE_PAIR, plan), 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=200, help="calls per block")
    parser.add_argument("--repeat", type=int, default=7, help="blocks per layer")
    parser.add_argument("--column", default="this tree", help="column of --out to add the run to")
    parser.add_argument("--out", default=None, help="JSON file of columns")
    args = parser.parse_args(argv)
    with SpeedClock() as clock:
        column = {
            f"{name}-{dim}": measure(clock, name, dim, args.calls, args.repeat)
            for name, dim in GEOMETRIES
        }
    for geom, layers in column.items():
        for layer, us in layers.items():
            print(f"{geom:16s} {layer:24s} {us:9.1f} reference us")
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
            "host_speed": clock.mean_speed(),
            "nproc": os.cpu_count(),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
