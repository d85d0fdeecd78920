"""The three benchmark workloads.

Each workload turns a seed into inputs (a ``SamplingPlan``, sample points,
CLI argument lists) and runs passes over them.  A pass builds fresh
``Geometry`` objects and a fresh session, as one CLI invocation does, and
returns the judged outcome of every operation together with the report text
it produced, which the caller compares between passes.

tractorlab modules are looked up as module attributes at call time, never
imported by name here, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracle import CHECK_IDS, Outcome, judge_check, judge_eval

#: The two checks that integrate geodetic transversals with RK4.
ODE_CHECKS = ("lem-2.4-transversal", "prop-2.5-mu")
NO_ODE = tuple(c for c in CHECK_IDS if c not in ODE_CHECKS)

#: The operations that show the seed's known defects take fixed inputs, on
#: which every defect shows, so that each pass fails the same operations
#: whatever the workload seed.  With seeded inputs ``thm-4.1a-normal`` on
#: ``klein``-4 fails, skips or passes depending on the sample points, and
#: ``phi`` on ``klein``-4 raises at most boundary points but not all, so the
#: failure count of a set of runs depended on its seeds.
KNOWN_DEFECT_PLAN_SEED = 0


def _mod(name: str):
    return importlib.import_module(f"tractorlab.{name}")


@dataclass
class Group:
    """One tractorlab call (a suite run on one geometry, or one eval): the
    report text it produced and the outcomes judged from it."""

    text: str
    outcomes: list[Outcome]


@dataclass
class PassResult:
    wall_s: float
    groups: list[Group]
    #: seconds per request: each eval on eval-cold, the whole pass on a suite
    latencies: list[float] = field(default_factory=list)
    #: check id -> CheckReport.wall_time summed over the pass's geometries
    check_s: dict[str, float] = field(default_factory=dict)

    @property
    def outcomes(self) -> list[Outcome]:
        return [o for g in self.groups for o in g.outcomes]


def _json_default(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    raise TypeError(f"not serializable: {type(value)}")


class SuiteWorkload:
    """``run_suite`` over a list of (geometry, dim, check ids, plan seed)
    runs; a plan seed of None takes the workload seed."""

    def __init__(self, runs, seed: int):
        self.runs = runs
        self.seed = seed
        self.clock = time.perf_counter

    def geometry_specs(self) -> list[list]:
        return [["builtin", g, d] for g, d, _, _ in self.runs]

    def run_pass(self) -> PassResult:
        verify, fields = _mod("verify"), _mod("fields")
        produced = []
        start = self.clock()
        for geometry, dim, ids, plan_seed in self.runs:
            seed = self.seed if plan_seed is None else plan_seed
            try:
                geom = fields.builtin_geometry(geometry, dim)
                produced.append(
                    verify.run_suite(geom, ids, verify.SamplingPlan(seed=seed))
                )
            except Exception as err:  # one failed operation; the pass goes on
                produced.append(f"{type(err).__name__}: {err}")
        wall = self.clock() - start

        result = PassResult(wall, [], [wall])
        for (geometry, dim, _, _), reports in zip(self.runs, produced):
            if isinstance(reports, str):
                op = f"{geometry}-{dim}/run_suite"
                out = Outcome(op, failed=True, reason=reports)
                result.groups.append(Group(reports, [out]))
                continue
            docs = [r.to_doc() for r in reports]
            outcomes = []
            for r, doc in zip(reports, docs):
                outcomes.append(judge_check(geometry, dim, doc))
                result.check_s[r.check_id] = (
                    result.check_s.get(r.check_id, 0.0) + r.wall_time
                )
            text = json.dumps(docs, default=_json_default)
            result.groups.append(Group(text, outcomes))
        return result


#: Quantities evaluated at interior points, and the boundary-valued ones
#: evaluated with --extrapolate at boundary points.  phi is boundary-valued
#: too but costs about ten extrapolated evals, so it runs once per geometry;
#: on ``klein`` it runs at the diagonal boundary point, where it always
#: raises (see KNOWN_DEFECT_PLAN_SEED).
INTERIOR_QUANTITIES = ("schouten", "weyl", "cotton")
BOUNDARY_QUANTITIES = (
    "scalar_curvature", "gamma", "l_tau", "t_vector", "h_asymptotic",
)
INTERIOR_POINTS = 8
BOUNDARY_POINTS = 4


def klein_document(dim: int) -> dict:
    """The Beltrami-Klein ball as an explicit-metric geometry document:
    g_ij = delta_ij / rho + x_i x_j / rho^2 with rho = 1 - |x|^2."""
    coords = [f"u{i}" for i in range(1, dim + 1)]
    rho = "1 - (" + " + ".join(f"{c}^2" for c in coords) + ")"
    metric = [
        [
            (f"1/({rho}) + " if i == j else "") + f"{ci}*{cj}/({rho})^2"
            for j, cj in enumerate(coords)
        ]
        for i, ci in enumerate(coords)
    ]
    return {"name": "klein", "dim": dim, "coords": coords, "rho": rho,
            "alpha": 2.0, "metric": metric}


def _klein_interior(rng, dim):
    while True:
        x = rng.uniform(-0.55, 0.55, size=dim)
        if float(x @ x) < 0.9:
            return x


def _klein_boundary(rng, dim):
    v = rng.normal(size=dim)
    return v / np.sqrt(float(v @ v))


def _af_interior(rng, dim):
    x = rng.uniform(-0.6, 0.6, size=dim)
    x[0] = rng.uniform(0.15, 0.85)
    return x


def _af_boundary(rng, dim):
    y = rng.uniform(-0.6, 0.6, size=dim)
    y[0] = 0.0
    return y


def _klein_diagonal(dim):
    return np.full(dim, 1.0 / np.sqrt(dim))


def _csv(x) -> str:
    return ",".join(repr(float(v)) for v in x)


class EvalColdWorkload:
    """A seeded sequence of one-shot ``cli.main(["eval", ...])`` calls."""

    def __init__(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        doc_path = workdir / "klein3.json"
        doc_path.write_text(json.dumps(klein_document(3), indent=2))
        self.doc_path = doc_path
        # (label, geometry name, dim, geometry argv, interior, boundary sampler)
        geometries = [
            ("af2_generic-4", "af2_generic", 4,
             ["--geometry", "af2_generic", "--dim", "4"], _af_interior, _af_boundary),
            ("klein-4", "klein", 4,
             ["--geometry", "klein", "--dim", "4"], _klein_interior, _klein_boundary),
            ("klein-3-json", "klein", 3,
             ["--geometry", str(doc_path)], _klein_interior, _klein_boundary),
        ]
        rng = np.random.default_rng(seed)
        calls = []
        for label, name, dim, gargs, interior, boundary in geometries:
            for q in INTERIOR_QUANTITIES:
                for _ in range(INTERIOR_POINTS):
                    p = _csv(interior(rng, dim))
                    calls.append((label, name, dim, q,
                                  ["eval", *gargs, "--quantity", q, f"--point={p}"]))
            boundary_calls = [(q, BOUNDARY_POINTS) for q in BOUNDARY_QUANTITIES]
            for q, count in boundary_calls + [("phi", 1)]:
                for _ in range(count):
                    if q == "phi" and name == "klein":
                        y = _csv(_klein_diagonal(dim))
                    else:
                        y = _csv(boundary(rng, dim))
                    calls.append((label, name, dim, q,
                                  ["eval", *gargs, "--quantity", q,
                                   f"--boundary-point={y}", "--extrapolate"]))
        self.calls = [calls[i] for i in rng.permutation(len(calls))]
        self.clock = time.perf_counter

    def geometry_specs(self) -> list[list]:
        return [["builtin", "af2_generic", 4], ["builtin", "klein", 4],
                ["document", str(self.doc_path)]]

    def run_pass(self) -> PassResult:
        cli = _mod("cli")
        result = PassResult(0.0, [])
        for label, name, dim, quantity, argv in self.calls:
            out = io.StringIO()
            start = self.clock()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as err:  # one failed operation; the pass goes on
                rc = f"{type(err).__name__}: {err}"
            seconds = self.clock() - start
            result.wall_s += seconds
            result.latencies.append(seconds)
            outcome = judge_eval(f"{label}/{quantity}", name, dim, quantity,
                                 rc, out.getvalue())
            result.groups.append(Group(f"{rc}\n{out.getvalue()}", [outcome]))
        return result


def make_workload(name: str, seed: int, workdir: Path):
    if name == "suite-klein3":
        return SuiteWorkload([("klein", 3, "all", None)], seed)
    if name == "interior":
        return SuiteWorkload(
            [
                ("af2_generic", 4, NO_ODE, None),
                ("af1_generic", 4, NO_ODE, None),
                ("flat", 3, NO_ODE, None),
                ("poincare_control", 3, NO_ODE, None),
                ("klein", 4, ("thm-4.1a-normal", "thm-4.4-normality"),
                 KNOWN_DEFECT_PLAN_SEED),
            ],
            seed,
        )
    if name == "eval-cold":
        return EvalColdWorkload(seed, workdir)
    raise KeyError(name)


WORKLOADS = ("suite-klein3", "interior", "eval-cold")


def build_geometries(specs) -> None:
    """Build each geometry of a workload once (the set-up being timed)."""
    fields = _mod("fields")
    for kind, *rest in specs:
        if kind == "builtin":
            fields.builtin_geometry(rest[0], rest[1])
        else:
            fields.load_geometry(json.loads(Path(rest[0]).read_text()))
