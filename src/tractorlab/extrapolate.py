"""Richardson extrapolation of boundary limits along dyadic rho ladders.

Every "admits a smooth extension to the boundary" statement in this package
is realized numerically the same way: a quantity is evaluated at interior
points with ``rho = eps0 / RATIO^k`` on a ray hitting a boundary point, and the
limit is extrapolated assuming smoothness in rho.  Divergent ladders are
flagged instead of extrapolated -- the negative controls rely on that.

A ladder is placed once per boundary point (:func:`boundary_ladder`, with
``eps0`` and ``levels`` from the sampling plan) and the resulting
:class:`Ladder` value is passed to every boundary routine that extrapolates
at that point.

A check's ladders are evaluated as one batch: a point function takes their
``Ladder.points`` rows stacked in order, ``(L·levels, d)``, and returns its
values with the batch axis last, as the dense jet arrays of the curvature
and tractor layers carry it; samples and limits come back one per ladder
(:func:`ladder_samples`, :func:`boundary_limit`).  This module is the only
one that iterates a ladder's levels: to place them, and to name the failing
level when a stacked evaluation raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import Geometry, GeometryError

__all__ = [
    "Ladder",
    "LimitEstimate",
    "richardson_limit",
    "boundary_ladder",
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


def richardson_limit(samples: Sequence) -> LimitEstimate:
    """Extrapolate ``f(eps_k) -> f(0)`` for a ladder ``eps_k = eps0 /
    RATIO^k``.

    ``samples[k]`` is ``f(eps_k)`` (scalars or arrays).  Assumes a
    polynomial model ``f(eps) = c0 + c1 eps + c2 eps^2 + ...``; each
    Richardson stage removes one power.  Ladders whose magnitudes grow by
    more than a decade are flagged divergent; magnitudes below
    ``DIVERGENCE_FLOOR`` never trip the flag (growing rounding noise in a
    quantity that is identically zero is not a divergence).
    """
    vals = [np.asarray(s, dtype=float) for s in samples]
    if len(vals) < 2:
        raise ValueError("need at least two ladder samples")
    mags = [float(np.max(np.abs(v))) for v in vals]
    finite = all(np.all(np.isfinite(v)) for v in vals)
    half = len(mags) // 2
    growing = all(mags[k + 1] > mags[k] for k in range(half, len(mags) - 1))
    diverged = (not finite) or (
        growing
        and mags[-1] > 10.0 * max(mags[0], 1e-12)
        and mags[-1] > DIVERGENCE_FLOOR
    )
    rows = [vals]
    for j in range(1, len(vals)):
        prev = rows[-1]
        factor = RATIO**j
        rows.append(
            [
                (factor * prev[k + 1] - prev[k]) / (factor - 1.0)
                for k in range(len(prev) - 1)
            ]
        )
    best = rows[-1][0]
    error = float(np.max(np.abs(best - rows[-2][-1])))
    value = best if best.shape else float(best)
    return LimitEstimate(value, error, diverged)


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
    """Place the interior points on the inward ray from the boundary point
    ``y`` (its ``d`` coordinates) with ``rho`` exactly on the dyadic ladder
    ``eps0 / RATIO^k``, ``k < levels``.

    The ray leaves ``y`` along ``direction`` (default: the chart gradient
    direction normalized so ``d(rho) = 1``); every level is Newton
    corrected along the ray until its rho value matches the target.  The
    levels share one Newton: each iteration evaluates rho on the levels
    still open, and a level is frozen once it converges, so it takes the
    same steps it would take alone.  A level that fails raises the error of
    the lowest such level.
    """
    y = np.asarray(y, dtype=float)
    if direction is None:
        direction = geom.inward_direction(y[None])[0]
    direction = np.asarray(direction, dtype=float)
    eps = tuple(eps0 / RATIO**k for k in range(levels))
    target = np.array(eps)
    s = target.copy()  # first guess: d(rho)(direction) ~ 1 near the boundary
    open_ = np.ones(levels, dtype=bool)
    tangent = np.zeros(levels, dtype=bool)
    for _ in range(60):
        rows = np.flatnonzero(open_)
        if not rows.size:
            break
        rho, grad = geom.rho_and_drho(y + s[rows, None] * direction)
        val = rho - target[rows]
        done = np.abs(val) <= 1e-14 * (1.0 + target[rows])
        open_[rows[done]] = False
        for k, v, g in zip(rows[~done], val[~done], grad.T[~done]):
            slope = float(g @ direction)  # the 1-D dot a single level makes
            if abs(slope) < 1e-12:
                tangent[k], open_[k] = True, False
                continue
            s[k] -= v / slope
    failed = np.flatnonzero(open_ | tangent)
    if failed.size:
        k = failed[0]
        if tangent[k]:
            raise GeometryError(
                f"ray from {tuple(y)} became tangent to the rho levels"
            )
        raise GeometryError(
            f"could not place a ladder point at rho={eps[k]:g} from {tuple(y)}"
        )
    points = y + s[:, None] * direction
    points.flags.writeable = False
    return Ladder(tuple(float(v) for v in y), direction, eps, points)


def ladder_samples(f: PointFunction, ladders: Sequence[Ladder]) -> list[np.ndarray]:
    """The samples of a point function along placed ladders, one array per
    ladder, level first.

    ``f`` is called once, on the ladders' ``points`` rows stacked in order,
    and returns its values with the batch axis last (the layout of a dense
    jet array's ``[..., 0]`` slice); the batch axis is moved to the front
    and split at the ladders.  When the stacked call raises, the ladders
    are rerun one at a time, level by level, each level as a batch of one,
    only to raise the first failing level's own error, which names that
    level's point where the point function names one.
    """
    if not ladders:
        return []
    batch = np.concatenate([lad.points for lad in ladders])
    try:
        values = np.asarray(f(batch), dtype=float)
    except Exception:
        for ladder in ladders:
            for k in range(len(ladder.points)):
                f(ladder.points[k : k + 1])
        raise
    ends = np.cumsum([len(lad.points) for lad in ladders])[:-1]
    return np.split(np.moveaxis(values, -1, 0), ends)


def boundary_limit(f: PointFunction, ladders: Sequence[Ladder]) -> list[LimitEstimate]:
    """Extrapolate a point function along placed ladders, one estimate each.

    ``f`` maps a batch of interior points ``(B, d)`` to its values with the
    batch axis last, ``(*shape, B)`` (see :func:`ladder_samples`); it is
    evaluated once, on the levels of all ladders together, and divergence
    along a ladder is reported in its estimate rather than raised.
    """
    return [richardson_limit(samples) for samples in ladder_samples(f, ladders)]
