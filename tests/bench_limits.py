"""Time the sampling layer of the checks: Richardson tables, ladder
placement and interior draws, time two suites of the benchmark's
``interior`` workload, and count the tape runs of three suites and the
connection evaluations of two.

Usage (from any directory; it imports ``src/tractorlab`` of the tree it sits
in, and pytest does not collect it)::

    python tests/bench_limits.py                       # print the table
    python tests/bench_limits.py --column after --out BENCH_limits.json

Layers:

* ``richardson.scalar`` / ``richardson.tensor``: the limits of 3 ladders of
  6 levels each, of a scalar and of a ``(4, 4, 4, 4)`` tensor (the shape of
  a curvature quantity at dim 4), as ``boundary_limit`` takes them from
  its samples: one table of the stack (``richardson_limits``), or one
  ``richardson_limit`` per ladder in a tree without it;
* ``ladders.klein-3`` / ``ladders.af2_generic-4``: the ladders at 3
  boundary points with the default plan, as a check places them: one
  Newton over the stacked levels (``boundary_ladders``), or one
  ``boundary_ladder`` per point in a tree without it;
* ``interior_points.klein-4``: ``interior_points(50, rng)`` on klein-4,
  whose box holds candidates with ``rho <= 0.05`` (about 1 in 460); at this
  seed one is rejected and drawn again;
* ``suite.interior.af2_generic-4`` / ``suite.interior.klein-4``: one
  ``run_suite`` of the ``interior`` workload's checks on two of its
  geometries, af2_generic-4 without the two transversal checks at seed 1,
  and klein-4's ``thm-4.1a-normal`` and ``thm-4.4-normality`` at seed 0;
  their memos of evaluated jets end with each check's calculus;
* ``tape_runs.*``: ``expr.Tape.run`` calls of the full klein-3 suite at
  seed 1, of the interior draw above and of the two ``interior`` suites
  (``tape_runs.interior.af2_generic-4`` was ``tape_runs.no-ode-af2_generic-4``
  in ``BENCH_limits.json``), and ``conn_evals.*``: the Christoffel
  evaluations (calls of a ``Connection``'s evaluator) of the two
  ``interior`` suites (counts, the same on every run).

Times are medians of ``--repeat`` blocks, in reference microseconds per
call: ``perfbench/speed.py``'s ``SpeedClock`` scales elapsed time by the
host's measured speed, which on a shared host moves in steps for seconds at
a time.  With ``--out`` the run is appended to one named column of a JSON
file, next to the columns already there, and the column's ``median`` over
its runs is refreshed; so two trees fill one file, best with their runs
alternating::

    for i in 1 2 3 4 5; do
      python before/tests/bench_limits.py --column before --out BENCH_limits.json
      python after/tests/bench_limits.py --column after --out BENCH_limits.json
    done
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

from tractorlab import affine  # noqa: E402
from tractorlab import expr as ex  # noqa: E402
from tractorlab import extrapolate as ext  # noqa: E402
from tractorlab.fields import builtin_geometry  # noqa: E402
from tractorlab.verify import SamplingPlan, registry, run_suite  # noqa: E402

PLAN = SamplingPlan()
UNIT = "reference us per call, median block; tape_runs.* and conn_evals.* are counts"
#: The two checks that integrate geodetic transversals.
ODE_CHECKS = ("lem-2.4-transversal", "prop-2.5-mu")
#: The ``interior`` workload's checks on klein-4, at its plan seed 0.
KLEIN4_CHECKS = ("thm-4.1a-normal", "thm-4.4-normality")
COUNTS = ("tape_runs.", "conn_evals.")


def _limits(stack):
    if hasattr(ext, "richardson_limits"):
        return ext.richardson_limits(stack)
    return [ext.richardson_limit(samples) for samples in stack]


def _place(geom, ys):
    if hasattr(ext, "boundary_ladders"):
        return ext.boundary_ladders(geom, ys, eps0=PLAN.eps0, levels=PLAN.levels)
    return [ext.boundary_ladder(geom, y, eps0=PLAN.eps0, levels=PLAN.levels) for y in ys]


def _per_call_us(clock: SpeedClock, fn, calls: int, repeat: int) -> float:
    blocks = []
    for _ in range(repeat):
        start = clock.now()
        for _ in range(calls):
            fn()
        blocks.append((clock.now() - start) / calls)
    return statistics.median(blocks) * 1e6


def _counts(fn) -> tuple[int, int]:
    """The ``expr.Tape.run`` calls and the Christoffel evaluations of
    ``fn()``."""
    runs = evals = 0
    real_run, real_init = ex.Tape.run, affine.Connection.__init__

    def counted_run(self, points, space):
        nonlocal runs
        runs += 1
        return real_run(self, points, space)

    def counted_init(self, chart, evaluator):
        def counted(points, order):
            nonlocal evals
            evals += 1
            return evaluator(points, order)

        real_init(self, chart, counted)

    ex.Tape.run, affine.Connection.__init__ = counted_run, counted_init
    try:
        fn()
    finally:
        ex.Tape.run, affine.Connection.__init__ = real_run, real_init
    return runs, evals


def _tape_runs(fn) -> int:
    return _counts(fn)[0]


def measure(clock: SpeedClock, calls: int, repeat: int) -> dict[str, float]:
    rng = np.random.default_rng(0)
    eps = PLAN.eps0 / 2.0 ** np.arange(PLAN.levels)
    stacks = {
        "scalar": 1.5 + eps + rng.normal(size=(3, PLAN.levels)) * eps**2,
        "tensor": 1.5 + rng.normal(size=(3, PLAN.levels, 4, 4, 4, 4))
        * eps[:, None, None, None, None] ** 2,
    }
    out = {f"richardson.{name}": _per_call_us(clock, lambda s=stack: _limits(s), calls, repeat)
           for name, stack in stacks.items()}
    for name, dim in (("klein", 3), ("af2_generic", 4)):
        geom = builtin_geometry(name, dim)
        ys = geom.boundary_points(3, np.random.default_rng(1))
        out[f"ladders.{name}-{dim}"] = _per_call_us(
            clock, lambda: _place(geom, ys), calls, repeat
        )
    klein4 = builtin_geometry("klein", 4)

    def draw():
        return klein4.interior_points(50, np.random.default_rng(0))

    out["interior_points.klein-4"] = _per_call_us(clock, draw, calls, repeat)
    klein3, af2 = builtin_geometry("klein", 3), builtin_geometry("af2_generic", 4)
    no_ode = [c.id for c in registry() if c.id not in ODE_CHECKS]
    out["tape_runs.suite-klein-3"] = _tape_runs(
        lambda: run_suite(klein3, "all", SamplingPlan(seed=1))
    )
    out["tape_runs.interior_points.klein-4"] = _tape_runs(draw)
    suites = {
        "af2_generic-4": lambda: run_suite(af2, no_ode, SamplingPlan(seed=1)),
        "klein-4": lambda: run_suite(klein4, KLEIN4_CHECKS, SamplingPlan(seed=0)),
    }
    for label, suite in suites.items():
        out[f"suite.interior.{label}"] = _per_call_us(
            clock, suite, max(calls // 10, 1), repeat
        )
        runs, evals = _counts(suite)
        out[f"tape_runs.interior.{label}"] = runs
        out[f"conn_evals.interior.{label}"] = evals
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=50, help="calls per block")
    parser.add_argument("--repeat", type=int, default=7, help="blocks per layer")
    parser.add_argument("--column", default="this tree", help="column of --out to add the run to")
    parser.add_argument("--out", default=None, help="JSON file of columns")
    args = parser.parse_args(argv)
    with SpeedClock() as clock:
        column = measure(clock, args.calls, args.repeat)
    for layer, value in column.items():
        unit = "count" if layer.startswith(COUNTS) else "reference us"
        print(f"{layer:36s} {value:10.2f} {unit}")
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        entry = doc.setdefault("columns", {}).setdefault(
            args.column, {"runs": [], "unit": UNIT}
        )
        entry["runs"].append(column)
        entry["median"] = {
            layer: float(np.median([run[layer] for run in entry["runs"]]))
            for layer in column
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
