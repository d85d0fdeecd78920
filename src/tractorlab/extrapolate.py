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
"""

from __future__ import annotations

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
]

Point = Sequence[float]

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

    def scaled_error(self) -> float:
        scale = 1.0 + float(np.max(np.abs(self.value)))
        return self.error / scale


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
    ``direction``: ``points[k]`` has ``rho`` equal to ``eps[k]``.  Ladders
    compare by identity, since ``direction`` is an array."""

    y: tuple
    direction: np.ndarray
    eps: tuple
    points: tuple


def boundary_ladder(
    geom: Geometry,
    y: Point,
    direction: np.ndarray | None = None,
    *,
    eps0: float,
    levels: int,
) -> Ladder:
    """Place the interior points on the inward ray from ``y`` with ``rho``
    exactly on the dyadic ladder ``eps0 / RATIO^k``, ``k < levels``.

    The ray leaves ``y`` along ``direction`` (default: the chart gradient
    direction normalized so ``d(rho) = 1``); each ladder point is Newton
    corrected along the ray until its rho value matches the target.
    """
    y = np.asarray(y, dtype=float)
    if direction is None:
        direction = geom.inward_direction(y)
    direction = np.asarray(direction, dtype=float)
    eps = tuple(eps0 / RATIO**k for k in range(levels))
    points = []
    for target in eps:
        s = target  # first guess: d(rho)(direction) ~ 1 near the boundary
        for _ in range(60):
            p = y + s * direction
            rho, grad = geom.rho_and_drho(p)
            val = rho - target
            if abs(val) <= 1e-14 * (1.0 + target):
                break
            slope = float(grad @ direction)
            if abs(slope) < 1e-12:
                raise GeometryError(
                    f"ray from {tuple(y)} became tangent to the rho levels"
                )
            s -= val / slope
        else:
            raise GeometryError(
                f"could not place a ladder point at rho={target:g} from {tuple(y)}"
            )
        points.append(tuple(float(v) for v in (y + s * direction)))
    return Ladder(tuple(float(v) for v in y), direction, eps, tuple(points))


def boundary_limit(f: Callable[[Point], object], ladder: Ladder) -> LimitEstimate:
    """Extrapolate a point function along a placed ladder.

    ``f`` maps an interior point to a float or ndarray; divergence along the
    ladder is reported in the estimate rather than raised.
    """
    return richardson_limit([f(p) for p in ladder.points])
