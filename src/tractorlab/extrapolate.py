"""Richardson extrapolation of boundary limits along dyadic rho ladders.

Every "admits a smooth extension to the boundary" statement in this package
is realized numerically the same way: a quantity is evaluated at interior
points with ``rho = eps0 * 2^-k`` on a ray hitting a boundary point, and the
limit is extrapolated assuming smoothness in rho.  Divergent ladders are
flagged instead of extrapolated -- the negative controls rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import Geometry, GeometryError

__all__ = [
    "LimitEstimate",
    "richardson_limit",
    "boundary_ladder",
    "boundary_limit",
]

Point = Sequence[float]


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
    samples: list

    def scaled_error(self) -> float:
        scale = 1.0 + float(np.max(np.abs(self.value)))
        return self.error / scale


def richardson_limit(
    samples: Sequence, ratio: float = 2.0, divergence_floor: float = 1e-4
) -> LimitEstimate:
    """Extrapolate ``f(eps_k) -> f(0)`` for a geometric ladder of eps.

    ``samples[k]`` is ``f(eps0 / ratio^k)`` (scalars or arrays).  Assumes a
    polynomial model ``f(eps) = c0 + c1 eps + c2 eps^2 + ...``; each
    Richardson stage removes one power.  Ladders whose magnitudes grow by
    more than a decade are flagged divergent; magnitudes below
    ``divergence_floor`` never trip the flag (growing rounding noise in a
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
        and mags[-1] > divergence_floor
    )
    rows = [vals]
    for j in range(1, len(vals)):
        prev = rows[-1]
        factor = ratio**j
        rows.append(
            [
                (factor * prev[k + 1] - prev[k]) / (factor - 1.0)
                for k in range(len(prev) - 1)
            ]
        )
    best = rows[-1][0]
    second = rows[-2][-1] if len(rows) >= 2 else vals[-1]
    error = float(np.max(np.abs(best - second)))
    value = best if best.shape else float(best)
    return LimitEstimate(value, error, diverged, [np.asarray(s) for s in samples])


def boundary_ladder(
    geom: Geometry,
    y: Point,
    direction: np.ndarray | None = None,
    eps0: float = 0.05,
    levels: int = 6,
) -> list[tuple[float, tuple]]:
    """Interior points on the inward ray from ``y`` with ``rho`` exactly on
    the dyadic ladder ``eps0 * 2^-k``.

    The ray leaves ``y`` along ``direction`` (default: the chart gradient
    direction normalized so ``d(rho) = 1``); each ladder point is Newton
    corrected along the ray until its rho value matches the target.
    """
    y = np.asarray(y, dtype=float)
    if direction is None:
        direction = geom.inward_direction(y)
    direction = np.asarray(direction, dtype=float)
    out: list[tuple[float, tuple]] = []
    for k in range(levels):
        eps = eps0 * 0.5**k
        s = eps  # first guess: d(rho)(direction) ~ 1 near the boundary
        for _ in range(60):
            p = y + s * direction
            rho, grad = geom.rho_and_drho(p)
            val = rho - eps
            if abs(val) <= 1e-14 * (1.0 + eps):
                break
            slope = float(grad @ direction)
            if abs(slope) < 1e-12:
                raise GeometryError(
                    f"ray from {tuple(y)} became tangent to the rho levels"
                )
            s -= val / slope
        else:
            raise GeometryError(
                f"could not place a ladder point at rho={eps:g} from {tuple(y)}"
            )
        out.append((eps, tuple(float(v) for v in (y + s * direction))))
    return out


def boundary_limit(
    f: Callable[[Point], object],
    geom: Geometry,
    y: Point,
    direction: np.ndarray | None = None,
    eps0: float = 0.05,
    levels: int = 6,
) -> LimitEstimate:
    """Extrapolate a point function along the inward ray from ``y``.

    ``f`` maps an interior point to a float or ndarray; divergence along the
    ladder is reported in the estimate rather than raised.
    """
    ladder = boundary_ladder(geom, y, direction, eps0=eps0, levels=levels)
    return richardson_limit([f(p) for _, p in ladder])
