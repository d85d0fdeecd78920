"""Reference placement of a boundary ladder, one level at a time.

``tractorlab.extrapolate.boundary_ladder`` runs one Newton over all levels
of a ladder at once.  The tests compare it against this per-level Newton,
which evaluates rho at one point per iteration.
"""

import numpy as np

from tractorlab.extrapolate import RATIO
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
    return tuple(points)
