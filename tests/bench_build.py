"""Time the geometry builds that every one-shot ``tractorlab eval`` repeats.

Usage (from any directory; it imports ``src/tractorlab`` of the tree it sits
in, and pytest does not collect it)::

    python tests/bench_build.py                       # print the table
    python tests/bench_build.py --column after --out BENCH_shared_exprs.json

Layers:

* ``build.klein-3-document``: ``load_geometry`` of the explicit-metric
  Beltrami-Klein document at dim 3 (its boundary points come from the ray
  search);
* ``build.klein-4`` / ``build.af2_generic-4``: ``builtin_geometry`` builds
  (closed-form boundary samplers, no search);
* ``boundary_points.klein-3-document``: ``boundary_points(3, rng)`` on the
  loaded document geometry, the ray search alone;
* ``boundary_points.noise-3-document``: the same on a unit-ball document
  whose rho cancels a term ``1e8*u1``, so that its sign flips across a zone
  about 1e-8 wide, where the bisection's predicted paths fail;
* ``runs_per_point.*``: ``expr.Tape.run`` calls per point of the ray search
  of each document, over ``boundary_points(20, rng)`` (a count);
* ``parse_compile.*``: the part of one build of each geometry spent inside
  the parse and compile entry points of module ``expr`` (``parse_expr``,
  ``parse_exprs`` where the tree has it, and ``compile_tape``; a call made
  from inside another is counted once);
* ``tape_runs.*``: ``expr.Tape.run`` calls made by one build of each
  geometry (a count, the same on every run);
* ``nodes_compiled.*``: ``_TapeBuilder.emit`` calls made by one build of each
  geometry, one per expression node a compile visits (a count);
* ``compiles.*``: ``expr.compile_tape`` calls made by one build of each
  geometry (a count);
* ``cold_start.klein-3-document``: a one-shot start in a fresh process,
  from after ``import numpy`` until the Klein document is loaded: importing
  ``tractorlab.cli`` and ``tractorlab.verify``, then ``load_geometry``, as
  the set-up child of ``perfbench/run.py`` times it;
* ``cold_start_modules.jsonschema``: 1 when jsonschema is loaded at the end
  of that start, else 0.

Times are in reference milliseconds per call, ``perfbench/speed.py``'s
``SpeedClock`` scaling elapsed time by the host's measured speed, which on a
shared host moves in steps for seconds at a time.  Each timed layer is
measured in ``--repeat`` blocks (``cold_start.*`` in as many fresh
processes), and a run keeps the ``median`` and the ``min`` over them.  With
``--out`` the run is appended to one named column of a JSON file, next to
the columns already there, and the column's ``median`` and ``min`` (each
the median over its runs) are refreshed; so two trees fill one file, best
with their runs alternating::

    for i in 1 2 3 4 5; do
      python before/tests/bench_build.py --column before --out BENCH_shared_exprs.json
      python after/tests/bench_build.py --column after --out BENCH_shared_exprs.json
    done
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

from tractorlab import expr as ex  # noqa: E402
from tractorlab.fields import builtin_geometry, load_geometry  # noqa: E402


def klein_document(dim: int) -> dict:
    """The Beltrami-Klein ball as an explicit-metric geometry document."""
    coords = [f"u{i}" for i in range(1, dim + 1)]
    rho = "1 - (" + " + ".join(f"{c}^2" for c in coords) + ")"
    metric = [
        [(f"1/({rho}) + " if i == j else "") + f"{ci}*{cj}/({rho})^2"
         for j, cj in enumerate(coords)]
        for i, ci in enumerate(coords)
    ]
    return {"name": "klein", "dim": dim, "coords": coords, "rho": rho,
            "alpha": 2.0, "metric": metric}


def noise_document() -> dict:
    """A flat unit ball whose rho carries cancellation noise near its
    boundary."""
    doc = klein_document(3)
    doc["name"] = "noise"
    doc["rho"] = "(1 + 1e8*u1) - (1e8*u1 + u1^2 + u2^2 + u3^2)"
    doc["metric"] = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    return doc


BUILDS = {
    "klein-3-document": lambda: load_geometry(klein_document(3)),
    "klein-4": lambda: builtin_geometry("klein", 4),
    "af2_generic-4": lambda: builtin_geometry("af2_generic", 4),
}
#: Documents whose boundary points come from the ray search.
SEARCHES = {
    "klein-3-document": BUILDS["klein-3-document"],
    "noise-3-document": lambda: load_geometry(noise_document()),
}
#: Points over which ``runs_per_point.*`` counts.
SEARCH_POINTS = 20


UNIT = ("reference ms per call, median and min block (cold_start.*: per fresh process); "
        "tape_runs.*, nodes_compiled.* and compiles.* are counts per build, "
        "runs_per_point.* tape runs per point searched, cold_start_modules.* 1 if loaded")
#: The entry points of module ``expr`` that ``parse_compile.*`` times.
PARSE_COMPILE = ("parse_expr", "parse_exprs", "compile_tape")
COUNTS = ("tape_runs.", "nodes_compiled.", "compiles.", "runs_per_point.",
          "cold_start_modules.")

#: A fresh process's start: reference seconds from after ``import numpy``
#: (which ``speed`` makes) until the document in ``argv[1]`` is loaded, and
#: whether jsonschema is loaded then.
_COLD_START = """
import json, sys
from speed import SpeedClock
with SpeedClock() as clock:
    import tractorlab.cli, tractorlab.verify
    from tractorlab.fields import load_geometry
    load_geometry(json.loads(sys.argv[1]))
    print(repr(clock.now()), int("jsonschema" in sys.modules))
"""


def _per_call_ms(clock: SpeedClock, fn, calls: int, repeat: int) -> list[float]:
    """Reference ms per call of each of ``repeat`` blocks."""
    blocks = []
    for _ in range(repeat):
        start = clock.now()
        for _ in range(calls):
            fn()
        blocks.append((clock.now() - start) / calls * 1e3)
    return blocks


def _cold_starts(doc: dict, repeat: int) -> tuple[list[float], list[int]]:
    """Reference ms of ``repeat`` fresh-process starts that load ``doc``
    (:data:`_COLD_START`), and whether each had jsonschema loaded."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # as perfbench/run.py pins them
    times, loaded = [], []
    for _ in range(repeat):
        out = subprocess.run(
            [sys.executable, "-c", _COLD_START, json.dumps(doc)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout.split()
        times.append(float(out[-2]) * 1e3)
        loaded.append(int(out[-1]))
    return times, loaded


def _parse_compile_ms(clock: SpeedClock, build, calls: int, repeat: int) -> list[float]:
    """Reference ms per build spent inside the :data:`PARSE_COMPILE` entry
    points, one value per block."""
    spent, depth = 0.0, 0
    reals = {name: getattr(ex, name) for name in PARSE_COMPILE if hasattr(ex, name)}

    def timed(real):
        def wrapper(*args, **kwargs):
            nonlocal spent, depth
            if depth:  # inside another entry point, which is timed already
                return real(*args, **kwargs)
            depth += 1
            start = clock.now()
            try:
                return real(*args, **kwargs)
            finally:
                spent += clock.now() - start
                depth -= 1
        return wrapper

    blocks = []
    for name, real in reals.items():
        setattr(ex, name, timed(real))
    try:
        for _ in range(repeat):
            spent = 0.0
            for _ in range(calls):
                build()
            blocks.append(spent / calls * 1e3)
    finally:
        for name, real in reals.items():
            setattr(ex, name, real)
    return blocks


def _calls(build, owner, attr: str) -> int:
    """Calls of ``owner.attr`` made by one build."""
    calls = 0
    real = getattr(owner, attr)

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    setattr(owner, attr, counted)
    try:
        build()
    finally:
        setattr(owner, attr, real)
    return calls


def measure(clock: SpeedClock, calls: int, repeat: int) -> dict[str, list[float]]:
    """Each layer's values: one per block of a timed layer, one for a count."""
    out = {f"build.{name}": _per_call_ms(clock, build, calls, repeat)
           for name, build in BUILDS.items()}
    for name, build in SEARCHES.items():
        geom = build()
        out[f"boundary_points.{name}"] = _per_call_ms(
            clock, lambda: geom.boundary_points(3, np.random.default_rng(0)), calls, repeat
        )
        runs = _calls(lambda: geom.boundary_points(SEARCH_POINTS, np.random.default_rng(0)),
                      ex.Tape, "run")
        out[f"runs_per_point.{name}"] = [runs / SEARCH_POINTS]
    for name, build in BUILDS.items():
        out[f"parse_compile.{name}"] = _parse_compile_ms(clock, build, calls, repeat)
        out[f"tape_runs.{name}"] = [_calls(build, ex.Tape, "run")]
        out[f"nodes_compiled.{name}"] = [_calls(build, ex._TapeBuilder, "emit")]
        out[f"compiles.{name}"] = [_calls(build, ex, "compile_tape")]
    starts, loaded = _cold_starts(klein_document(3), repeat)
    out["cold_start.klein-3-document"] = starts
    out["cold_start_modules.jsonschema"] = [max(loaded)]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=20, help="calls per block")
    parser.add_argument("--repeat", type=int, default=7, help="blocks per layer")
    parser.add_argument("--column", default="this tree", help="column of --out to add the run to")
    parser.add_argument("--out", default=None, help="JSON file of columns")
    args = parser.parse_args(argv)
    with SpeedClock() as clock:
        values = measure(clock, args.calls, args.repeat)
    run = {stat: {layer: float(reduce(v)) for layer, v in values.items()}
           for stat, reduce in (("median", statistics.median), ("min", min))}
    print(f"{'':36s} {'median':>9s} {'min':>9s}")
    for layer in values:
        unit = "count" if layer.startswith(COUNTS) else "reference ms"
        print(f"{layer:36s} {run['median'][layer]:9.3f} {run['min'][layer]:9.3f} {unit}")
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        entry = doc.setdefault("columns", {}).setdefault(
            args.column, {"runs": [], "unit": UNIT}
        )
        entry["runs"].append(run)
        for stat in run:
            entry[stat] = {
                layer: float(np.median([each[stat][layer] for each in entry["runs"]]))
                for layer in values
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
