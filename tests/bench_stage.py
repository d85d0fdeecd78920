"""Time the pieces of one RK4 stage of ``boundary.geodetic_transversals``.

Usage (from any directory; it imports ``src/tractorlab`` of the tree it sits
in, and pytest does not collect it)::

    python tests/bench_stage.py                       # print the table
    python tests/bench_stage.py --column after --out BENCH_rk4_stage.json

Each layer runs on a 4-row batch of collar points (the states of four
transversals, 50 steps in) of klein-3 and of af2_generic-4:

* ``rho_tape.o0`` / ``rho_tape.o1``: ``Geometry.rho_dense`` at order 0 / 1;
* ``metric_tape.o1``: the metric jets at order 1 (the Levi-Civita input);
* ``jet_inverse.o0``: the order-0 inverse of the metric values;
* ``hat.christoffel_values``: the rho-modified connection's values;
* ``stage``: one stage of the integrator, as the time of a 0.2-long run
  minus that of a 0.05-long run, over the 600 stages between them.

Times are the fastest of ``--repeat`` blocks, in microseconds per call: on
a shared host the other blocks measure the neighbours as well.  With
``--out`` the run is appended to one named column of a JSON file, next to
the columns already there, and the column's ``median`` over its runs is
refreshed; so two trees fill one file, best with their runs alternating::

    for i in 1 2 3 4 5; do
      python before/tests/bench_stage.py --column before --out BENCH_rk4_stage.json
      python after/tests/bench_stage.py --column after --out BENCH_rk4_stage.json
    done
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tractorlab import boundary as bd  # noqa: E402
from tractorlab.extrapolate import boundary_ladder  # noqa: E402
from tractorlab.fields import builtin_geometry  # noqa: E402
from tractorlab.jets import jet_inverse, jet_space  # noqa: E402
from tractorlab.tractor import TractorCalculus  # noqa: E402
from tractorlab.verify import SamplingPlan  # noqa: E402

GEOMETRIES = (("klein", 3), ("af2_generic", 4))
ROWS = 4
STEP = 1e-3
SHORT, LONG = 0.05, 0.2


def _per_call_us(fn, calls: int, repeat: int) -> float:
    blocks = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        blocks.append((time.perf_counter() - start) / calls)
    return min(blocks) * 1e6


def measure(name: str, dim: int, calls: int, repeat: int) -> dict[str, float]:
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
    return {
        "rho_tape.o0": _per_call_us(lambda: geom.rho_dense(x, 0), calls, repeat),
        "rho_tape.o1": _per_call_us(lambda: geom.rho_dense(x, 1), calls, repeat),
        "metric_tape.o1": _per_call_us(lambda: gfield.dense(x, 1), calls, repeat),
        "jet_inverse.o0": _per_call_us(lambda: jet_inverse(g0, space0), calls, repeat),
        "hat.christoffel_values": _per_call_us(
            lambda: calc.hat.christoffel_values(x), calls, repeat
        ),
        "stage": (
            _per_call_us(run(LONG), 1, repeat) - _per_call_us(run(SHORT), 1, repeat)
        ) / stages,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=200, help="calls per block")
    parser.add_argument("--repeat", type=int, default=7, help="blocks per layer")
    parser.add_argument("--column", default="this tree", help="column of --out to add the run to")
    parser.add_argument("--out", default=None, help="JSON file of columns")
    args = parser.parse_args(argv)
    column = {
        f"{name}-{dim}": measure(name, dim, args.calls, args.repeat)
        for name, dim in GEOMETRIES
    }
    for geom, layers in column.items():
        for layer, us in layers.items():
            print(f"{geom:16s} {layer:24s} {us:9.1f} us")
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.setdefault("unit", "us per call, fastest block")
        doc.setdefault("rows", ROWS)
        entry = doc.setdefault("columns", {}).setdefault(args.column, {"runs": []})
        entry["runs"].append(column)
        entry["median"] = {
            geom: {
                layer: float(np.median([run[geom][layer] for run in entry["runs"]]))
                for layer in layers
            }
            for geom, layers in column.items()
        }
        entry["environment"] = {
            "nproc": os.cpu_count(),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
