"""Command line front end.

``tractorlab verify`` runs the proposition-level check suite against a
geometry (builtin name or JSON document) and writes a machine-readable
report; the exit code is 0 only when no check failed (skips do not fail),
1 when any check failed or errored, 2 on configuration problems.

``tractorlab eval`` evaluates a single named quantity at a point, either
directly (interior, as a batch of one point) or by boundary extrapolation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import boundary as bdy
from .expr import ExprError
from .extrapolate import boundary_ladder, boundary_limit
from .fields import BUILTIN_NAMES, Geometry, GeometryError, builtin_geometry, load_geometry
from .jets import DomainError, JetError
from .tractor import TractorCalculus
from .verify import SamplingPlan, run_suite

#: Every point quantity of ``boundary``, then the two that need more: the
#: asymptotic ``h`` its constant, and ``phi`` the boundary frame.
EVAL_QUANTITIES = (*bdy.POINT_QUANTITIES, "h_asymptotic", "phi")


class ConfigError(Exception):
    """User-facing configuration problem; maps to exit code 2."""


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process (parsing keeps no
    state in it)."""
    parser = argparse.ArgumentParser(
        prog="tractorlab",
        description="numerical projective tractor calculus with boundary "
        "asymptotics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    plan = {f.name: f.default for f in dataclasses.fields(SamplingPlan)}

    def common(p):
        p.add_argument("--geometry", required=True,
                       help="builtin geometry name or path to a JSON document")
        p.add_argument("--dim", type=int, default=None,
                       help="chart dimension of a builtin geometry (default 4); "
                       "with a document, it must match the document's dim")
        p.add_argument("--param", action="append", default=[],
                       metavar="K=V",
                       help="builtin geometry parameter (repeatable)")
        p.add_argument("--eps0", type=float, default=plan["eps0"])
        p.add_argument("--levels", type=int, default=plan["levels"])
        p.add_argument("--seed", type=int, default=plan["seed"])
        p.add_argument("--points", type=int, default=plan["interior_points"],
                       help="interior sample point count")
        p.add_argument("--boundary-points", type=int,
                       default=plan["boundary_points"])
        p.add_argument("--ode-step", type=float, default=plan["ode_step"])
        p.add_argument("--ode-horizon", type=float, default=plan["ode_horizon"])

    pv = sub.add_parser("verify", help="run proposition-level checks")
    common(pv)
    pv.add_argument("--checks", default="all",
                    help='comma-separated check ids or "all"')
    pv.add_argument("--out", default=None, help="report path (default stdout)")
    pv.add_argument("--format", choices=("json", "csv"), default="json")

    pe = sub.add_parser("eval", help="evaluate one quantity at a point")
    common(pe)
    pe.add_argument("--quantity", required=True, choices=EVAL_QUANTITIES)
    pe.add_argument("--point", default=None, help="comma-separated coordinates")
    pe.add_argument("--boundary-point", default=None,
                    help="comma-separated boundary coordinates")
    pe.add_argument("--extrapolate", action="store_true",
                    help="extrapolate along the inward ray")
    pe.add_argument("--out", default=None)
    return parser


def _parse_params(items) -> dict:
    params = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"--param needs K=V, got {item!r}")
        key, value = item.split("=", 1)
        try:
            params[key] = float(value)
        except ValueError:
            params[key] = value
    return params


def _make_geometry(args) -> Geometry:
    source = args.geometry
    if source in BUILTIN_NAMES:
        dim = 4 if args.dim is None else args.dim
        try:
            return builtin_geometry(source, dim, **_parse_params(args.param))
        except (GeometryError, ExprError, JetError) as err:
            raise ConfigError(str(err)) from err
    path = Path(source)
    if path.exists():
        if args.param:
            raise ConfigError(
                f"--param applies to builtin geometries only; the document "
                f"{source!r} defines its own"
            )
        try:
            doc = json.loads(path.read_text())
            geom = load_geometry(doc)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, GeometryError,
                ExprError, JetError) as err:
            raise ConfigError(f"could not load geometry {source!r}: {err}") from err
        if args.dim is not None and args.dim != geom.dim:
            raise ConfigError(
                f"--dim {args.dim} does not match the dim {geom.dim} of the "
                f"document {source!r}"
            )
        return geom
    raise ConfigError(
        f"unknown geometry {source!r}: not a builtin ({', '.join(BUILTIN_NAMES)}) "
        "and not an existing file"
    )


def _make_plan(args) -> SamplingPlan:
    try:
        return SamplingPlan(
            seed=args.seed,
            interior_points=args.points,
            boundary_points=args.boundary_points,
            eps0=args.eps0,
            levels=args.levels,
            ode_step=args.ode_step,
            ode_horizon=args.ode_horizon,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_verify(args) -> int:
    plan = _make_plan(args)
    geom = _make_geometry(args)
    ids = "all" if args.checks == "all" else [
        c.strip() for c in args.checks.split(",") if c.strip()
    ]
    try:
        reports = run_suite(geom, ids, plan)
    except KeyError as err:
        raise ConfigError(str(err)) from err
    docs = [r.to_doc() for r in reports]
    if args.format == "json":
        text = json.dumps(_finite(docs), indent=2, default=_json_default,
                          allow_nan=False)
        _emit(text, args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["id", "status", "max_residual", "tolerance", "n_points", "reason"]
        )
        for r in reports:
            writer.writerow(
                [r.check_id, r.status, r.max_residual, r.tolerance,
                 r.n_points, r.reason]
            )
        _emit(buf.getvalue(), args.out)
    failed = [r for r in reports if r.status in ("fail", "error")]
    for r in reports:
        line = f"{r.check_id:26s} {r.status}"
        if r.status in ("fail", "error") and r.reason:
            line += f"  ({r.reason})"
        print(line, file=sys.stderr)
    return 1 if failed else 0


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not serializable: {type(value)}")


def _finite(value):
    """A report document with every NaN or infinity replaced by None, so it
    encodes as strict JSON (a skip's residual is NaN, an error's inf)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return _finite(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _numbers(text: str) -> tuple | None:
    """The comma-separated numbers of ``text``, or None if one does not parse."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        return None


def _parse_point(text: str, dim: int) -> tuple:
    coords = _numbers(text)
    if coords is None:
        raise ConfigError(f"bad point {text!r}")
    if len(coords) != dim:
        raise ConfigError(
            f"point {text!r} has {len(coords)} coordinates, geometry needs {dim}"
        )
    return coords


def _eval_quantity(geom, args, plan):
    """Return (value, extrapolation_error | None) for the named quantity."""
    d = geom.dim
    quantity = args.quantity
    calc = TractorCalculus(geom)

    def pointwise(points):
        if quantity == "h_asymptotic":
            if geom.constructor_C is None:
                raise ConfigError(
                    "this geometry has no known asymptotic constant; evaluate "
                    "h_asymptotic at a boundary point with --extrapolate instead"
                )
            return bdy.h_form(calc, geom.constructor_C, points)
        try:
            return bdy.POINT_QUANTITIES[quantity](calc, points)
        except np.linalg.LinAlgError:
            where = ", ".join(str(tuple(row)) for row in points.tolist())
            raise ConfigError(
                f"the Schouten tensor is singular at {where}, so {quantity} is undefined"
            ) from None

    def rho_at(p):
        try:
            (rho,) = geom.rho_value(np.array([p]))
        except DomainError as err:
            raise ConfigError(f"{p} is outside the domain of rho ({err})") from None
        except JetError as err:
            raise ConfigError(f"rho has no value at {p} ({err})") from None
        return rho

    if args.point is not None:
        p = _parse_point(args.point, d)
        if quantity == "phi":
            raise ConfigError("phi lives on the boundary; use --boundary-point")
        rho = rho_at(p)
        if rho < -1e-8:
            raise ConfigError(f"{p} is not an interior point (rho = {rho:g})")
        try:
            return pointwise(np.array([p]))[..., 0], None
        except DomainError as err:
            raise ConfigError(
                f"{p} is outside the domain of the geometry's expressions ({err})"
            ) from err
        except JetError as err:
            raise ConfigError(
                f"pole at {p}; evaluate at a boundary point with --extrapolate "
                f"({err})"
            ) from err

    if args.boundary_point is None:
        raise ConfigError("need --point or --boundary-point")
    y = _parse_point(args.boundary_point, d)
    rho = rho_at(y)
    if not abs(rho) <= 1e-8:
        raise ConfigError(f"{y} is not on the boundary (rho = {rho:g})")
    if not args.extrapolate:
        raise ConfigError(
            "boundary evaluation needs --extrapolate (direct evaluation hits "
            "the 1/rho pole)"
        )
    if quantity == "phi" and d < 4:
        raise ConfigError("phi needs a boundary of dimension >= 3 (--dim >= 4)")
    try:
        ladder = boundary_ladder(geom, y, eps0=plan.eps0, levels=plan.levels)
        if quantity == "phi":
            try:
                (blocks,) = bdy.curvature_blocks(calc, bdy.boundary_frame(calc, [ladder]))
            except bdy.BoundaryExtensionError as err:
                raise ConfigError(f"phi has no boundary value: {err}") from None
            rep = bdy.normalize_boundary_connection(blocks)
            return rep.phi, blocks.extrapolation_error
        (est,) = boundary_limit(pointwise, [ladder])
    except (GeometryError, JetError) as err:
        raise ConfigError(
            f"no boundary value of {quantity} at {y} on the ladder eps0={plan.eps0:g}, "
            f"levels={plan.levels}: {err}"
        ) from None
    if est.diverged:
        raise ConfigError(
            f"{quantity} diverges along the ray into {y}; no boundary value"
        )
    if quantity == "gamma":
        (E,) = bdy.tangential_basis(geom, np.array([y]))
        tangential = E.T @ np.asarray(est.value) @ E
        return {"full": np.asarray(est.value), "tangential": tangential}, est.error
    return est.value, est.error


def cmd_eval(args) -> int:
    plan = _make_plan(args)
    geom = _make_geometry(args)
    value, err = _eval_quantity(geom, args, plan)
    doc = {
        "geometry": geom.name,
        "dim": geom.dim,
        "quantity": args.quantity,
        "point": args.point or args.boundary_point,
        "extrapolated": args.boundary_point is not None,
    }
    if isinstance(value, dict):
        doc.update(value)
    else:
        doc["value"] = value
    if err is not None:
        doc["extrapolation_error"] = float(err)
    try:
        text = json.dumps(doc, indent=2, default=_json_default, allow_nan=False)
    except ValueError:
        raise ConfigError(
            f"{args.quantity} at {doc['point']} is not finite; no value to report"
        ) from None
    _emit(text, args.out)
    return 0


#: The options whose value is a comma-separated list of coordinates.
POINT_OPTIONS = ("--point", "--boundary-point")


def _attach_coordinates(argv: list[str]) -> list[str]:
    """``argv`` with each number list that follows a point option joined to
    it (``--point -0.1,0.2,0`` becomes ``--point=-0.1,0.2,0``): argparse
    reads a separate value with a leading ``-`` as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in POINT_OPTIONS and _numbers(arg) is not None:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_coordinates(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_eval(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
