"""Affine-connection calculus: Levi-Civita construction, projective
modifications, curvature and its projective decomposition, covariant
derivatives of weighted tensors, and projective density bundles.

Conventions (fixed here and used everywhere downstream):

* Christoffel arrays are indexed ``G[c, a, b] = Gamma^c_ab``.
* Curvature is ``[nabla_a, nabla_b] xi^c = R_ab^c_d xi^d``, i.e.
  ``R[a,b,c,d] = d_a G[c,b,d] - d_b G[c,a,d] + G[c,a,e] G[e,b,d]
  - G[c,b,e] G[e,a,d]``; with this sign the Klein model gets scalar
  curvature ``-n(n+1)``.
* Ricci contracts the first form index: ``Ric[a,b] = R[d,a,d,b]``.
* The Schouten tensor is ``P = Ric_sym/n + Ric_skew/(n+2)`` in dimension
  n+1, which makes the decomposition
  ``R_ab^c_d = C_ab^c_d + delta^c_a P_bd - delta^c_b P_ad + beta_ab delta^c_d``
  trace-consistent (``Ric = n P + beta^T``), with ``beta_ab = P_ba - P_ab``.
* The Cotton tensor is ``Y[a,b,c] = nabla_b P_ac - nabla_a P_bc``: exactly
  the bottom-left slot of the standard tractor curvature in a splitting,
  which is the consistency test that pins its sign.
* A density of weight w is transported by
  ``nabla_a s = d_a s + (w/(n+2)) Gamma^e_ea s`` (sign switchable through
  ``density_sign`` and pinned by the requirement that the canonical tau of
  a metric is parallel for its Levi-Civita connection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .extrapolate import Ladder, ladder_samples, richardson_limit
from .fields import Chart, Geometry, TensorField, is_batch, point_key
from .jets import (
    PoleError,
    jet_determinant,
    jet_einsum,
    jet_function,
    jet_gradient,
    jet_inverse,
    jet_mul,
    jet_reciprocal,
    jet_space,
)

__all__ = [
    "Connection",
    "CurvaturePack",
    "levi_civita",
    "projective_modify",
    "rho_connection",
    "covariant_derivative",
    "canonical_tau",
    "defining_density_check",
    "DENSITY_SIGN",
]

Point = Sequence[float]

#: Pinned sign of the density transport term (see module docstring).
DENSITY_SIGN = +1.0

#: Einsum letters for the axes of a tensor field ('a' and 'e' are taken).
_AXES = "ijklmnop"


class Connection:
    """An affine connection given by a Christoffel-symbol evaluator.

    ``evaluator(point, order)`` returns the dense jet array ``G`` of shape
    ``(d, d, d, ncoeff)`` with ``G[c, a, b] = Gamma^c_ab`` at the requested
    jet order (see module ``jets``), or ``(d, d, d, B, ncoeff)`` at a batch
    of points ``(B, d)``.
    """

    def __init__(
        self,
        chart: Chart,
        evaluator: Callable[[Point, int], np.ndarray],
        exact_boundary: Callable[[Point, int], np.ndarray] | None = None,
    ):
        self.chart = chart
        self._evaluator = evaluator
        self.exact_boundary = exact_boundary
        self._cache: dict = {}

    @property
    def dim(self) -> int:
        return self.chart.dim

    def dense(self, point: Point | np.ndarray, order: int) -> np.ndarray:
        """Memoized (read-only) dense Christoffel jets at a point, or at a
        batch of points (keyed by its rows)."""
        key = (point_key(point), order)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._evaluator(point, order)
            hit.flags.writeable = False
            self._cache[key] = hit
        return hit

    def _peek(self, point: Point | np.ndarray, order: int) -> np.ndarray:
        """Dense Christoffel jets, reusing a memoized array but never storing
        a new one (the ODE integrator evaluates at thousands of points); a
        batch of points ``(B, d)`` is always evaluated."""
        if not is_batch(point):
            hit = self._cache.get((tuple(point), order))
            if hit is not None:
                return hit
        return self._evaluator(point, order)

    def christoffel_values(self, point: Point | np.ndarray, order: int = 0) -> np.ndarray:
        """Christoffel values (the ``[..., 0]`` slice), never memoized:
        ``(d, d, d)`` at a point, ``(d, d, d, B)`` at a batch ``(B, d)``."""
        return np.array(self._peek(point, order)[..., 0])

    def trace_gamma(self, point: Point | np.ndarray, order: int) -> np.ndarray:
        """Dense jets ``(d, ncoeff)`` (``(d, B, ncoeff)`` at a batch) of the
        one-form ``Gamma^e_ea`` entering density transport."""
        return np.einsum("eea...->a...", self.dense(point, order))


def levi_civita(geom_or_field) -> Connection:
    """Levi-Civita connection of a metric geometry (or bare metric field).

    ``Gamma^c_ab = (1/2) g^cd (d_a g_db + d_b g_da - d_d g_ab)``; the result
    is torsion free and preserves the metric volume density.
    """
    if isinstance(geom_or_field, Geometry):
        gfield = geom_or_field.metric_field()
    else:
        gfield = geom_or_field
    chart = gfield.chart
    d = chart.dim

    def evaluator(point: Point, order: int) -> np.ndarray:
        space, upper = jet_space(d, order), jet_space(d, order + 1)
        g = gfield.dense(point, order + 1)
        ginv = jet_inverse(g[..., : space.ncoeff], space)
        dg = jet_gradient(g, upper)  # dg[a, i, j] = d_a g_ij
        core = dg.swapaxes(0, 1) + dg.swapaxes(0, 1).swapaxes(1, 2) - dg
        return 0.5 * jet_einsum("ce,eab->cab", ginv, core, space)

    return Connection(chart, evaluator)


def projective_modify(
    conn: Connection,
    upsilon: Callable[[Point, int], np.ndarray] | TensorField,
) -> Connection:
    """Projective change ``Gamma^c_ab + delta^c_a Y_b + delta^c_b Y_a``.

    ``upsilon(point, order)`` returns the one-form as a dense ``(d, ncoeff)``
    jet array (or is a :class:`TensorField`).  The change keeps a
    torsion-free base torsion free, and a special one (preserving a volume
    density) special when the one-form is closed.
    """
    if not isinstance(upsilon, TensorField):
        upsilon = TensorField(conn.chart, "d", upsilon)
    eye = np.eye(conn.dim)

    def evaluator(point: Point, order: int) -> np.ndarray:
        u = upsilon.dense(point, order)
        return (
            conn._peek(point, order)
            + np.einsum("ca,b...->cab...", eye, u)
            + np.einsum("cb,a...->cab...", eye, u)
        )

    return Connection(conn.chart, evaluator)


def rho_one_form(geom: Geometry) -> TensorField:
    """The one-form ``d(rho)/(alpha rho)`` of the rho-modified connection."""

    def evaluator(point: Point, order: int) -> np.ndarray:
        space, upper = jet_space(geom.dim, order), jet_space(geom.dim, order + 1)
        rho = geom.rho_dense(point, order + 1)
        inv = jet_reciprocal(rho[..., : space.ncoeff] * geom.alpha, space)
        return jet_mul(jet_gradient(rho, upper), inv, space)

    return TensorField(geom.chart, "d", evaluator, name="d(rho)/(alpha rho)")


def rho_connection(geom: Geometry, base: Connection) -> Connection:
    """The distinguished modification ``nabla + d(rho)/(alpha rho)`` of the
    Levi-Civita connection ``base``.

    For a projectively compact geometry of order alpha this connection is
    smooth up to the boundary; its Christoffel evaluator raises a pole error
    at ``rho = 0``, where boundary values must come from the extension
    machinery in module ``boundary`` (or from an exact closed form attached
    to the geometry, as for the Klein model).
    """
    conn = projective_modify(base, rho_one_form(geom))
    conn.exact_boundary = geom.exact_hat_christoffels
    return conn


# -- curvature -------------------------------------------------------------


class CurvaturePack:
    """Curvature tensors of one connection, evaluated and memoized per point
    or per batch of points (keyed by its rows).

    :meth:`dense` returns the memoized, read-only dense jet array of a
    tensor by name: ``riemann`` ``R[a, b, c, d]``, ``ricci``, ``schouten``,
    ``beta``, ``weyl``, ``schouten_derivative`` ``nabla_a P_bc`` (indexed
    ``[a, b, c]``), ``cotton`` ``Y[a, b, c] = nabla_b P_ac - nabla_a P_bc``
    (see the module docstring) and, when the pack knows a metric, the
    scalar curvature ``scalar``.  The Schouten family needs dim >= 3.  At a
    batch of points ``(B, d)`` every array carries the batch axis just
    before the coefficients.
    """

    def __init__(self, conn: Connection, metric_field: TensorField | None = None):
        self.conn = conn
        self.metric_field = metric_field
        self._memo: dict = {}

    @property
    def dim(self) -> int:
        return self.conn.dim

    def dense(self, name: str, point: Point | np.ndarray, order: int) -> np.ndarray:
        """Memoized (read-only) dense jets of the tensor ``name`` (``riemann``,
        ``ricci``, ``schouten``, ...) at a point or a batch of points."""
        key = (name, point_key(point), order)
        hit = self._memo.get(key)
        if hit is None:
            hit = getattr(self, "_build_" + name)(point, order)
            hit.flags.writeable = False
            self._memo[key] = hit
        return hit

    def _build_riemann(self, point: Point, order: int) -> np.ndarray:
        d = self.dim
        G = self.conn.dense(point, order + 1)
        dG = jet_gradient(G, jet_space(d, order + 1))  # dG[e, c, a, b] = d_e G[c, a, b]
        # A[a, b, c, e] = d_a G[c, b, e] + G[c, a, f] G[f, b, e]; R = A - A^(ab)
        A = dG.swapaxes(1, 2) + jet_einsum("caf,fbe->abce", G, G, jet_space(d, order))
        return A - A.swapaxes(0, 1)

    def _build_ricci(self, point: Point, order: int) -> np.ndarray:
        # Above order 0 the Riemann jets have no reader but this build, whose
        # result is memoized, so they are built without being stored.
        if order == 0:
            R = self.dense("riemann", point, 0)
        else:
            R = self._build_riemann(point, order)
        return np.einsum("eaeb...->ab...", R)

    def _build_scalar(self, point: Point, order: int) -> np.ndarray:
        if self.metric_field is None:
            raise ValueError("scalar curvature needs a metric")
        space = jet_space(self.dim, order)
        g = self.metric_field.dense(point, order)
        ric = self.dense("ricci", point, order)
        return jet_einsum("ab,ab->", jet_inverse(g, space), ric, space)

    def _build_schouten(self, point: Point, order: int) -> np.ndarray:
        n = self.dim - 1
        ric = self.dense("ricci", point, order)
        ric_t = ric.swapaxes(0, 1)
        return (ric + ric_t) * (0.5 / n) + (ric - ric_t) * (0.5 / (n + 2))

    def _build_beta(self, point: Point, order: int) -> np.ndarray:
        P = self.dense("schouten", point, order)
        return P.swapaxes(0, 1) - P

    def _build_weyl(self, point: Point, order: int) -> np.ndarray:
        eye = np.eye(self.dim)
        P = self.dense("schouten", point, order)
        return (
            self.dense("riemann", point, order)
            - np.einsum("ca,be...->abce...", eye, P)
            + np.einsum("cb,ae...->abce...", eye, P)
            - np.einsum("ce,ab...->abce...", eye, self.dense("beta", point, order))
        )

    def _build_schouten_derivative(self, point: Point, order: int) -> np.ndarray:
        d = self.dim
        space = jet_space(d, order)
        P = self.dense("schouten", point, order + 1)
        G = self.conn.dense(point, order)
        return (
            jet_gradient(P, jet_space(d, order + 1))
            - jet_einsum("eab,ec->abc", G, P, space)
            - jet_einsum("eac,be->abc", G, P, space)
        )

    def _build_cotton(self, point: Point, order: int) -> np.ndarray:
        dP = self.dense("schouten_derivative", point, order)
        return dP.swapaxes(0, 1) - dP

    def riemann(self, point: Point, order: int) -> np.ndarray:
        """``dense("riemann", point, order)``; kept as a method because the
        benchmark tracer (``perfbench/tracer.py``) counts its calls."""
        return self.dense("riemann", point, order)


# -- weighted covariant derivative ------------------------------------------


def covariant_derivative(
    field: TensorField,
    conn: Connection,
    density_sign: float | None = None,
) -> TensorField:
    """Covariant derivative of a weighted tensor field.

    The result has one extra lower index in axis 0 (``out[a, ...] =
    nabla_a T[...]``).  Upper and lower indices get the usual Christoffel
    corrections; the projective weight w adds
    ``density_sign * (w/(n+2)) * Gamma^e_ea * T``.
    """
    sign = DENSITY_SIGN if density_sign is None else float(density_sign)
    chart = field.chart
    d = chart.dim
    variance = field.variance
    w = field.weight
    idx = _AXES[: len(variance)]

    def evaluator(point: Point, order: int) -> np.ndarray:
        space, upper = jet_space(d, order), jet_space(d, order + 1)
        comps = field.dense(point, order + 1)
        G = conn.dense(point, order)
        out = jet_gradient(comps, upper)
        for slot, var in enumerate(variance):
            moved = idx[:slot] + "e" + idx[slot + 1:]
            if var == "u":
                out = out + jet_einsum(f"{idx[slot]}ae,{moved}->a{idx}", G, comps, space)
            else:
                out = out - jet_einsum(f"ea{idx[slot]},{moved}->a{idx}", G, comps, space)
        if w != 0.0:
            tg = conn.trace_gamma(point, order) * (sign * w / (d + 1))
            out = out + jet_einsum(f"a,{idx}->a{idx}", tg, comps, space)
        return out

    return TensorField(
        chart,
        "d" + variance,
        evaluator,
        weight=w,
        name=f"D({field.name})" if field.name else "D(.)",
        sym=tuple((a + 1, b + 1) for a, b in field.sym),
    )


# -- densities ---------------------------------------------------------------


def canonical_tau(geom: Geometry) -> TensorField:
    """The canonical weight-2 density of a metric: ``|det g|^(-1/(n+2))``,
    a rank-0 field of weight 2.

    It is parallel for the Levi-Civita connection and satisfies
    ``|tau^(-n-2) det(g^ab)| = 1`` identically.  For a geometry that really
    is projectively compact of order 2 it extends by zero to a defining
    density, i.e. ``tau/rho`` has a finite nonzero boundary limit.  A
    numerically singular metric has a zero determinant, and its power
    raises :class:`~tractorlab.jets.DomainError`.
    """
    gfield = geom.metric_field()
    power = -1.0 / (geom.dim + 1)

    def component(point: Point, order: int) -> np.ndarray:
        space = jet_space(geom.dim, order)
        det = jet_determinant(gfield.dense(point, order), space)
        return jet_function("pow", det * np.sign(det[..., :1]), space, power)

    return TensorField(geom.chart, "", component, weight=2.0, name="tau")


@dataclass
class DefiningDensityReport:
    """Outcome of the order-2 defining-density (volume growth) criterion."""

    points: list
    limits: list[float]
    errors: list[float]
    diverged: list[bool]
    passed: bool
    reason: str = ""


def defining_density_check(
    tau: TensorField, geom: Geometry, ladders: Sequence[Ladder]
) -> DefiningDensityReport:
    """Verify that tau/rho^(2/alpha) extends, nonzero, to the ladders'
    boundary points.

    This is the numerical form of the statement that the parallel weight-2
    density extends by zero to a defining density precisely when the volume
    growth matches the compactness order (for order 2 the quotient is
    literally tau/rho).  Divergence (flat control) and a zero limit
    (conformally compact control) both fail.
    """
    power = 2.0 / geom.alpha
    limits: list[float] = []
    errors: list[float] = []
    diverged: list[bool] = []
    ok = True
    reason = ""
    for ladder in ladders:
        scale = np.float_power(ladder.eps, power)
        try:
            values = ladder_samples(lambda p: tau.dense(p, 0)[..., 0] / scale, ladder)
        except PoleError:
            ok, reason = False, "pole while approaching the boundary"
            limits.append(float("nan"))
            errors.append(float("nan"))
            diverged.append(True)
            continue
        est = richardson_limit(values)
        limits.append(float(est.value))
        errors.append(est.error)
        diverged.append(est.diverged)
        if est.diverged:
            ok, reason = False, "tau/rho diverges at the boundary"
        elif est.error > 1e-5 * (1.0 + abs(est.value)):
            ok, reason = False, "tau/rho does not extrapolate smoothly"
        elif abs(est.value) < 1e-3:
            ok, reason = False, "tau/rho has zero boundary limit"
    return DefiningDensityReport(
        [ladder.y for ladder in ladders], limits, errors, diverged, ok, reason
    )
