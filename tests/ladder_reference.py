"""Reference placement of ladder levels, one level at a time, and the
Richardson table of one ladder, one level array at a time.

``tractorlab.extrapolate.boundary_ladders`` runs one Newton over all levels
of a check's ladders at once, and ``TransversalCurve.at_rho`` one Newton
over all the levels it locates on a transversal.  The tests compare them
against these per-level Newtons, which evaluate rho at one point, as a
batch of one, per iteration.  ``richardson_limits`` builds one table of
whole-array stages for a stack of ladders; :func:`richardson_table` builds
one ladder's table from a list of level arrays.
"""

import numpy as np

from tractorlab.extrapolate import DIVERGENCE_FLOOR, RATIO, LimitEstimate
from tractorlab.fields import GeometryError


def place_levels(geom, y, direction, eps0, levels):
    """The ladder points from ``y`` along ``direction`` with rho exactly
    ``eps0 / RATIO^k``, Newton corrected one level after the other."""
    y = np.asarray(y, dtype=float)
    direction = np.asarray(direction, dtype=float)
    points = []
    for target in (eps0 / RATIO**k for k in range(levels)):
        s = target
        for _ in range(60):
            p = y + s * direction
            rho, grad = geom.rho_and_drho(p[None])
            val = rho[0] - target
            if abs(val) <= 1e-14 * (1.0 + target):
                break
            slope = float(grad[:, 0] @ direction)
            if abs(slope) < 1e-12:
                raise GeometryError(
                    f"ray from {tuple(y.tolist())} became tangent to the rho levels"
                )
            s -= val / slope
        else:
            raise GeometryError(
                f"could not place a ladder point at rho={target:g} from {tuple(y.tolist())}"
            )
        points.append(y + s * direction)
    return np.array(points)


def locate_on_curve(curve, eps):
    """The point and velocity on a transversal where rho equals ``eps``:
    a Newton of its own on the cubic Hermite step that brackets the level,
    with one rho evaluation at a batch of one point per iteration."""
    if eps <= 0 or eps > float(curve.rhos.max()):
        raise ValueError(f"rho={eps:g} is not reached by this transversal")
    k = int(np.searchsorted(curve.rhos, eps)) - 1
    k = max(0, min(k, len(curve.ts) - 2))
    h = curve.ts[k + 1] - curve.ts[k]
    x0, x1 = curve.points[k], curve.points[k + 1]
    v0, v1 = curve.mus[k], curve.mus[k + 1]
    a0, a1 = curve.accs[k], curve.accs[k + 1]
    s = 0.5
    for _ in range(60):
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        h11 = s**3 - s**2
        x = h00 * x0 + h10 * h * v0 + h01 * x1 + h11 * h * v1
        v = h00 * v0 + h10 * h * a0 + h01 * v1 + h11 * h * a1
        rho, grad = curve.geom.rho_and_drho(x[None])
        val = rho[0] - eps
        if abs(val) <= 1e-14 * (1 + eps):
            return x, v
        s -= val / (float(grad[:, 0] @ v) * h)
        s = min(max(s, -0.5), 1.5)
    raise GeometryError(
        f"could not locate rho={eps:g} on the transversal from {curve.y}"
    )


def richardson_table(samples):
    """The Richardson limit of one ladder ``samples[k] = f(eps0 / RATIO^k)``,
    its magnitudes, divergence flag and error taken level by level."""
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
            [(factor * prev[k + 1] - prev[k]) / (factor - 1.0) for k in range(len(prev) - 1)]
        )
    best = rows[-1][0]
    error = float(np.max(np.abs(best - rows[-2][-1])))
    return LimitEstimate(best if best.shape else float(best), error, diverged)

