"""tractorlab benchmark: one workload, one process, one thread.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload suite-klein3 --seed 1 --seconds 30 --trace 0

``--trace 0`` runs whole passes of the workload until the next one would
end after ``--seconds`` (always at least one) and prints the end-to-end
metrics.  ``--trace 1`` runs one untraced pass, then one pass with every
tractorlab layer wrapped, and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name and unit, the failed operations and the environment.

The exit code is 0 when the run completed, whatever the verdicts, and 2
when the tree holds no tractorlab sources to measure.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in the set-up child processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The CLI lets this variable override --seed; the workload seed must win.
os.environ.pop("TRACTORLAB_SEED", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from oracle import CHECK_IDS  # noqa: E402
from speed import SpeedClock  # noqa: E402
from tracer import (  # noqa: E402
    COUNTED, DISTINCT, INCLUSIVE, LAYERS, Instrumentation, Tracer, layer_metrics,
)
from workloads import WORKLOADS, build_geometries, make_workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for the geometry document eval-cold writes, one per process
#: so that runs sharing a tree do not remove each other's files.
WORKDIR = ROOT / f".perfbench_work-{os.getpid()}"

#: Fresh-process set-ups per run; setup_s is their median.
SETUP_REPEATS = 7

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}

_SETUP_CHILD = """
import json, sys
from speed import SpeedClock
with SpeedClock() as clock:
    import tractorlab.cli, tractorlab.verify
    from workloads import build_geometries
    build_geometries(json.loads(sys.argv[1]))
    print(repr(clock.now()))
"""


def per_layer_names() -> list[str]:
    names = list(COUNTED)
    names += list(DISTINCT)
    names += list(INCLUSIVE)
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += [f"verify.check_s.{c}" for c in CHECK_IDS]
    names += ["verify.worst_residual_ratio"]
    names += ["trace.overhead_frac", "trace.unattributed_s", "trace.wall_s"]
    return names


def per_layer_unit(name: str) -> str:
    if name in ("trace.overhead_frac", "verify.worst_residual_ratio"):
        return "ratio"
    return "s" if name.endswith("_s") or ".check_s." in name else "count"


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tractorlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure_setup(specs) -> list[float]:
    """Seconds to import tractorlab.cli and .verify and build each geometry
    once, in fresh processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, json.dumps(specs)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def worst_residual_ratio(outcomes) -> float:
    ratios = [o.residual_ratio for o in outcomes if o.residual_ratio is not None]
    return max(ratios) if ratios else math.nan


def guard_determinism(first, later) -> None:
    """Mark every outcome of a report that differs from the first pass."""
    for ref, group in zip(first.groups, later.groups):
        if group.text != ref.text:
            for out in group.outcomes:
                out.failed = True
                out.wrong = True
                out.reason = "report differs from the first pass"


def run_untraced(workload, seconds: float) -> tuple[dict, list]:
    specs = workload.geometry_specs()
    setup = measure_setup(specs)
    build_geometries(specs)

    passes = []
    with SpeedClock() as clock:
        workload.clock = clock.now
        while True:
            passes.append(workload.run_pass())
            if passes[-1] is not passes[0]:
                guard_determinism(passes[0], passes[-1])
            # the budget is in wall seconds; the next pass is assumed to
            # take as long as the last one did
            per_pass = clock.wall_s / len(passes)
            if clock.wall_s + per_pass > seconds:
                break

    outcomes = [o for p in passes for o in p.outcomes]
    latencies_ms = [t * 1e3 for p in passes for t in p.latencies]
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": _percentile(latencies_ms, 0.9),
    }
    print(f"host speed = {clock.mean_speed():.4f} reference s per wall s")
    print(f"passes = {len(passes)}, latency samples = {len(latencies_ms)}, "
          f"operations per pass = {len(passes[0].outcomes)}")
    print(f"worst_residual_ratio = {worst_residual_ratio(outcomes):.6g} ratio")
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return metrics, outcomes


def run_traced(workload) -> tuple[dict, list]:
    build_geometries(workload.geometry_specs())
    tracer = Tracer()
    with SpeedClock() as clock:
        workload.clock = clock.now
        plain = workload.run_pass()
        with Instrumentation(tracer):
            tracer.start()
            traced = workload.run_pass()
            tracer.stop()
    guard_determinism(plain, traced)

    values = layer_metrics(tracer)
    for c in CHECK_IDS:
        values[f"verify.check_s.{c}"] = plain.check_s.get(c, 0.0)
    values["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    values["verify.worst_residual_ratio"] = worst_residual_ratio(plain.outcomes)
    print(f"untraced pass = {plain.wall_s:.3f} s, traced pass = {traced.wall_s:.3f} s")
    metrics = {
        name: {"value": values[name], "unit": per_layer_unit(name)}
        for name in per_layer_names()
    }
    return metrics, plain.outcomes + traced.outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tractorlab" / "__init__.py").is_file():
        print(f"error: no tractorlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tractorlab

    if SRC.resolve() not in Path(tractorlab.__file__).resolve().parents:
        print(f"error: tractorlab imported from {tractorlab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    print("environment = " + json.dumps(environment()))
    try:
        workload = make_workload(args.workload, args.seed, WORKDIR)
        if args.trace:
            metrics, outcomes = run_traced(workload)
        else:
            metrics, outcomes = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    failed = [o for o in outcomes if o.failed]
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {len(failed) / len(outcomes):.6g} "
          f"({len(failed)} failed of {len(outcomes)} attempted)")
    for reason in sorted({f"{o.op}: {o.reason}" for o in failed}):
        print(f"failed: {reason}")
    print(json.dumps({
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
