"""Richardson extrapolation of boundary limits along dyadic rho ladders.

Every "admits a smooth extension to the boundary" statement in this package
is realized numerically the same way: a quantity is evaluated at interior
points with ``rho = eps0 / RATIO^k`` on a ray hitting a boundary point, and the
limit is extrapolated assuming smoothness in rho.  Divergent ladders are
flagged instead of extrapolated -- the negative controls rely on that.

A ladder is placed once per boundary point (with ``eps0`` and ``levels``
from the sampling plan) and the resulting :class:`Ladder` value is passed to
every boundary routine that extrapolates at that point.  A check's new
points are placed together, by one Newton over their stacked levels
(:func:`boundary_ladders`; :func:`boundary_ladder` is a stack of one).

A check's ladders are evaluated as one batch: a point function takes their
``Ladder.points`` rows stacked in order, ``(L·levels, d)``, and returns its
values with the batch axis last, as the dense jet arrays of the curvature
and tractor layers carry it; samples come back one per ladder
(:func:`ladder_samples`), and the limits of a stack ``(L, levels, *shape)``
from one Richardson table built of whole-array stages
(:func:`richardson_limits`, :func:`boundary_limit`); :func:`richardson_limit`
is the table of one ladder.  This module is the only one that iterates a
ladder's levels, to place them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import Geometry, GeometryError, first_failure

__all__ = [
    "Ladder",
    "LimitEstimate",
    "richardson_limit",
    "richardson_limits",
    "boundary_ladder",
    "boundary_ladders",
    "boundary_limit",
    "ladder_samples",
]

PointFunction = Callable[[np.ndarray], object]

#: The ratio of consecutive ``rho`` levels of every ladder.  A power of two,
#: so each level is ``eps0`` scaled exactly.
RATIO = 2.0

#: Sample magnitudes below this never flag a ladder as divergent.
DIVERGENCE_FLOOR = 1e-4


@dataclass
class LimitEstimate:
    """Extrapolated boundary value with an error estimate.

    ``value`` has the shape of the sampled quantity.  ``error`` is the
    last-stage Richardson difference (max over components), a proxy for the
    extrapolation error under the smoothness assumption.  ``diverged`` is
    set when the sample magnitudes grow along the ladder instead of
    settling, in which case ``value`` is not meaningful.
    """

    value: np.ndarray | float
    error: float
    diverged: bool

    def norm(self) -> float:
        """``max|value|``; infinite for a diverged estimate, whose value is
        not meaningful."""
        if self.diverged:
            return math.inf
        return float(np.max(np.abs(self.value)))

    def scaled_error(self) -> float:
        """``error / (1 + max|value|)``; infinite for a diverged estimate."""
        if self.diverged:
            return math.inf
        return self.error / (1.0 + self.norm())


def richardson_limits(stack: np.ndarray | Sequence) -> list[LimitEstimate]:
    """Extrapolate ``f(eps_k) -> f(0)`` along ladders ``eps_k = eps0 /
    RATIO^k``, one estimate per ladder.

    ``stack[l, k]`` is ladder ``l``'s ``f(eps_k)``, so ``stack`` is an
    ``(L, levels, *shape)`` array (or what ``np.asarray`` makes one of);
    every ladder of a stack has the same number of levels.  Assumes a
    polynomial model ``f(eps) = c0 + c1 eps + c2 eps^2 + ...``; each
    Richardson stage removes one power, and is one whole-array operation on
    every ladder and component at once.  A ladder whose magnitudes grow by
    more than a decade is flagged divergent; magnitudes below
    ``DIVERGENCE_FLOOR`` never trip the flag (growing rounding noise in a
    quantity that is identically zero is not a divergence).  Magnitudes,
    divergence and errors are reductions over a ladder's component axes,
    which give the bits of reducing each level's array alone.
    """
    stack = np.asarray(stack, dtype=float)
    if not len(stack):
        return []
    if stack.ndim < 2 or stack.shape[1] < 2:
        raise ValueError("need at least two ladder samples")
    ladders, levels = stack.shape[:2]
    mags = np.abs(stack).reshape(ladders, levels, -1).max(axis=2)
    finite = np.isfinite(stack).reshape(ladders, -1).all(axis=1)
    half = levels // 2
    growing = np.all(mags[:, half + 1 :] > mags[:, half:-1], axis=1)
    diverged = ~finite | (
        growing
        & (mags[:, -1] > 10.0 * np.maximum(mags[:, 0], 1e-12))
        & (mags[:, -1] > DIVERGENCE_FLOOR)
    )
    prev = last = stack
    for j in range(1, levels):
        factor = RATIO**j
        last = prev
        prev = (factor * prev[:, 1:] - prev[:, :-1]) / (factor - 1.0)
    best = prev[:, 0]
    errors = np.abs(best - last[:, -1]).reshape(ladders, -1).max(axis=1)
    return [
        LimitEstimate(value if value.shape else float(value), float(error), bool(flag))
        for value, error, flag in zip(best, errors, diverged)
    ]


def richardson_limit(samples: Sequence) -> LimitEstimate:
    """The Richardson limit of one ladder, ``samples[k] = f(eps_k)``
    (scalars or arrays): :func:`richardson_limits` of a stack of one."""
    (est,) = richardson_limits(np.asarray(samples, dtype=float)[None])
    return est


@dataclass(frozen=True, eq=False)
class Ladder:
    """Interior points approaching the boundary point ``y`` along the ray
    ``direction``: ``points`` is a read-only ``(levels, d)`` array whose row
    ``k`` has ``rho`` equal to ``eps[k]``.  Ladders compare by identity,
    since ``direction`` and ``points`` are arrays."""

    y: tuple
    direction: np.ndarray
    eps: tuple
    points: np.ndarray


def boundary_ladder(
    geom: Geometry,
    y: Sequence[float],
    direction: np.ndarray | None = None,
    *,
    eps0: float,
    levels: int,
) -> Ladder:
    """The ladder at one boundary point ``y`` (its ``d`` coordinates):
    :func:`boundary_ladders` of a stack of one."""
    directions = None if direction is None else [direction]
    (ladder,) = boundary_ladders(geom, [y], directions, eps0=eps0, levels=levels)
    return ladder


def boundary_ladders(
    geom: Geometry,
    ys: Sequence[Sequence[float]],
    directions: Sequence[np.ndarray] | None = None,
    *,
    eps0: float,
    levels: int,
) -> list[Ladder]:
    """Place the interior points on the inward rays from the boundary
    points ``ys`` (``(L, d)``) with ``rho`` exactly on the dyadic ladder
    ``eps0 / RATIO^k``, ``k < levels``: one ladder per point, in order.

    Each ray leaves its point along its direction (default: the chart
    gradient direction normalized so ``d(rho) = 1``, from one rho run at
    all the points); every level is Newton corrected along its ray until
    its rho value matches the target.  All ``L·levels`` levels share one
    Newton: each iteration evaluates rho on the levels still open, and a
    level is frozen once it converges, so it takes the same steps it would
    take alone.  A ladder alone raises the error of its lowest failing
    level (tangent, not converging or raised), and a stack that of its
    first ladder that fails alone (:func:`~tractorlab.fields.first_failure`).
    """
    if not len(ys):
        return []
    ys = np.asarray(ys, dtype=float).reshape(len(ys), -1)
    ladders, _, error = first_failure(
        lambda s: _place(geom, ys[s], None if directions is None else directions[s],
                         eps0, levels),
        len(ys),
    )
    if error is not None:
        raise error
    return ladders


def _place(geom, ys, directions, eps0, levels) -> list[Ladder]:
    """The Newton of :func:`boundary_ladders` over the stacked levels of the
    ladders at ``ys``; raises the error of the lowest failing level."""
    if directions is None:
        directions = geom.inward_direction(ys)
    directions = np.asarray(directions, dtype=float).reshape(ys.shape)
    eps = tuple(eps0 / RATIO**k for k in range(levels))
    origin = np.repeat(ys, levels, axis=0)
    ray = np.repeat(directions, levels, axis=0)
    target = np.tile(eps, len(ys))
    s = target.copy()  # first guess: d(rho)(direction) ~ 1 near the boundary
    open_ = np.ones(len(s), dtype=bool)
    tangent = np.zeros(len(s), dtype=bool)
    for _ in range(60):
        rows = np.flatnonzero(open_)
        if not rows.size:
            break
        rho, grad = geom.rho_and_drho(origin[rows] + s[rows, None] * ray[rows])
        val = rho - target[rows]
        done = np.abs(val) <= 1e-14 * (1.0 + target[rows])
        open_[rows[done]] = False
        for k, v, g in zip(rows[~done], val[~done], grad.T[~done]):
            slope = float(g @ ray[k])  # the 1-D dot a single level makes
            if abs(slope) < 1e-12:
                tangent[k], open_[k] = True, False
                continue
            s[k] -= v / slope
    failed = np.flatnonzero(open_ | tangent)
    if failed.size:
        k = failed[0]
        y = tuple(ys[k // levels].tolist())
        if tangent[k]:
            raise GeometryError(f"ray from {y} became tangent to the rho levels")
        raise GeometryError(
            f"could not place a ladder point at rho={target[k]:g} from {y}"
        )
    points = origin + s[:, None] * ray
    points.flags.writeable = False
    return [
        Ladder(tuple(y.tolist()), direction, eps, points[i * levels : (i + 1) * levels])
        for i, (y, direction) in enumerate(zip(ys, directions))
    ]


def ladder_samples(f: PointFunction, ladders: Sequence[Ladder]) -> list[np.ndarray]:
    """The samples of a point function along placed ladders, one array per
    ladder, level first.

    ``f`` is called once, on the ladders' ``points`` rows stacked in order,
    and returns its values with the batch axis last (the layout of a dense
    jet array's ``[..., 0]`` slice); the batch axis is moved to the front
    and split at the ladders.  When the stacked call raises, the error is
    the first failing level's alone (:func:`~tractorlab.fields.first_failure`),
    which names that level's point where the point function names one.
    """
    if not ladders:
        return []
    batch = np.concatenate([lad.points for lad in ladders])
    values, _, error = first_failure(lambda rows: f(batch[rows]), len(batch))
    if error is not None:
        raise error
    ends = np.cumsum([len(lad.points) for lad in ladders])[:-1]
    return np.split(np.moveaxis(np.asarray(values, dtype=float), -1, 0), ends)


def boundary_limit(f: PointFunction, ladders: Sequence[Ladder]) -> list[LimitEstimate]:
    """Extrapolate a point function along placed ladders, one estimate each.

    ``f`` maps a batch of interior points ``(B, d)`` to its values with the
    batch axis last, ``(*shape, B)`` (see :func:`ladder_samples`); it is
    evaluated once, on the levels of all ladders together, and extrapolated
    in one Richardson table (:func:`richardson_limits`), so the ladders share
    their number of levels; divergence along a ladder is reported in its
    estimate rather than raised.
    """
    return richardson_limits(ladder_samples(f, ladders))
