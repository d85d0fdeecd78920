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
  ``nabla_a s = d_a s + (w/(n+2)) Gamma^e_ea s`` (the sign is
  ``DENSITY_SIGN``, pinned by the requirement that the canonical tau of a
  metric is parallel for its Levi-Civita connection).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .fields import Chart, Geometry, TensorField, row_memo
from .jets import (
    JetSpace,
    jet_determinant,
    jet_einsum,
    jet_function,
    jet_gradient,
    jet_inverse,
    jet_mul,
    jet_reciprocal,
    jet_space,
    value_inverse,
)

__all__ = [
    "Connection",
    "CurvaturePack",
    "levi_civita",
    "levi_civita_jets",
    "projective_modify",
    "rho_connection",
    "covariant_derivative",
    "canonical_tau",
    "DENSITY_SIGN",
]

#: Pinned sign of the density transport term (see module docstring).
DENSITY_SIGN = +1.0

#: Einsum letters for the axes of a tensor field ('a' and 'e' are taken).
_AXES = "ijklmnop"


class Connection:
    """An affine connection given by a Christoffel-symbol evaluator.

    ``evaluator(points, order)`` returns, at a batch of points ``(B, d)``,
    the dense jet array ``G`` of shape ``(d, d, d, B, ncoeff)`` with
    ``G[c, a, b] = Gamma^c_ab`` at the requested jet order (see module
    ``jets``).
    """

    def __init__(self, chart: Chart, evaluator: Callable[[np.ndarray, int], np.ndarray]):
        self.chart = chart
        self._evaluator = evaluator
        self._memo: dict = {}

    @property
    def dim(self) -> int:
        return self.chart.dim

    def dense(self, points: np.ndarray, order: int) -> np.ndarray:
        """Memoized (read-only) dense Christoffel jets at a batch of points,
        one evaluation per batch of rows at the highest order asked
        (:func:`~tractorlab.fields.row_memo`)."""
        return row_memo(self._memo, points, order, self._evaluator)

    def trace_gamma(self, points: np.ndarray, order: int) -> np.ndarray:
        """Dense jets ``(d, B, ncoeff)`` of the one-form ``Gamma^e_ea``
        entering density transport."""
        return np.einsum("eea...->a...", self.dense(points, order))


def levi_civita_jets(g: np.ndarray, order: int) -> np.ndarray:
    """Dense Christoffel jets ``(d, d, d, B, ncoeff)`` of the Levi-Civita
    connection at jet order ``order``, from the dense metric jets at a batch
    of points one order higher, ``(d, d, B, ncoeff')``.

    ``Gamma^c_ab = (1/2) g^cd (d_a g_db + d_b g_da - d_d g_ab)``.

    At order 0 (every stage of the transversals) the inverse and the
    derivatives are read off the values as ``jet_inverse`` and
    ``jet_gradient`` lay them out: the value inverse in C order, and the
    metric's first-derivative columns as ``d_a g_ij``.
    """
    d = g.shape[0]
    space, upper = jet_space(d, order), jet_space(d, order + 1)
    if order == 0:
        inv = value_inverse(g[..., 0]).transpose(1, 2, 0).reshape(g.shape[:-1])
        ginv = np.ascontiguousarray(inv)[..., None]
        dg = g[..., 1 : 1 + d, None].transpose(3, 0, 1, 2, 4)
    else:
        ginv = jet_inverse(g[..., : space.ncoeff], space)
        dg = jet_gradient(g, upper)  # dg[a, i, j] = d_a g_ij
    core = dg.swapaxes(0, 1) + dg.swapaxes(0, 1).swapaxes(1, 2) - dg
    return 0.5 * jet_einsum("ce,eab->cab", ginv, core, space)


def levi_civita(geom_or_field) -> Connection:
    """Levi-Civita connection of a metric geometry (or bare metric field),
    evaluated by :func:`levi_civita_jets`; the result is torsion free and
    preserves the metric volume density.
    """
    gfield = geom_or_field.metric_field() if isinstance(geom_or_field, Geometry) else geom_or_field

    def evaluator(points: np.ndarray, order: int) -> np.ndarray:
        return levi_civita_jets(gfield.dense(points, order + 1), order)

    return Connection(gfield.chart, evaluator)


def projective_modify(conn: Connection, upsilon: TensorField) -> Connection:
    """Projective change ``Gamma^c_ab + delta^c_a Y_b + delta^c_b Y_a`` by
    the one-form field ``upsilon``.

    The change keeps a torsion-free base torsion free, and a special one
    (preserving a volume density) special when the one-form is closed.
    """

    def evaluator(points: np.ndarray, order: int) -> np.ndarray:
        return projective_change(conn.dense(points, order), upsilon.dense(points, order))

    return Connection(conn.chart, evaluator)


def projective_change(G: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``G^c_ab + delta^c_a u_b + delta^c_b u_a`` for Christoffel jets
    ``G`` and one-form jets ``u`` with the same trailing axes (or the value
    slices of both); each delta term is one product, the delta broadcast
    over the trailing axes."""
    eye = np.eye(G.shape[0]).reshape(G.shape[:2] + (1,) * u.ndim)
    return G + eye * u + eye.swapaxes(1, 2) * u[:, None]


def rho_log_gradient(rho: np.ndarray, alpha: float, space: JetSpace) -> np.ndarray:
    """Dense jets ``(d, B, ncoeff)`` over ``space`` of the one-form
    ``d(rho)/(alpha rho)``, from the dense rho jets at a batch of points one
    order higher, ``(B, ncoeff')``; at order 0 the derivatives are rho's
    first-derivative columns."""
    inv = jet_reciprocal(rho[..., : space.ncoeff] * alpha, space)
    if space.order == 0:
        return rho[:, 1 : 1 + space.dim, None].transpose(1, 0, 2) * inv
    return jet_mul(jet_gradient(rho, jet_space(space.dim, space.order + 1)), inv, space)


def rho_one_form(geom: Geometry) -> TensorField:
    """The one-form ``d(rho)/(alpha rho)`` of the rho-modified connection."""

    def evaluator(points: np.ndarray, order: int) -> np.ndarray:
        space = jet_space(geom.dim, order)
        return rho_log_gradient(geom.rho_dense(points, order + 1), geom.alpha, space)

    return TensorField(geom.chart, "d", evaluator, name="d(rho)/(alpha rho)")


def rho_connection(geom: Geometry, base: Connection) -> Connection:
    """The distinguished modification ``nabla + d(rho)/(alpha rho)`` of the
    Levi-Civita connection ``base``.

    For a projectively compact geometry of order alpha this connection is
    smooth up to the boundary; its Christoffel evaluator raises a pole error
    at ``rho = 0``, where boundary values must come from the extension
    machinery in module ``boundary`` (or from the geometry's exact closed
    form ``exact_hat_christoffels``, as for the Klein model).
    """
    return projective_modify(base, rho_one_form(geom))


# -- curvature -------------------------------------------------------------


class CurvaturePack:
    """Curvature tensors of one connection, evaluated and memoized per batch
    of points (keyed by its rows).

    :meth:`dense` returns the memoized, read-only dense jet array of a
    tensor by name: ``riemann`` ``R[a, b, c, d]``, ``ricci``, ``schouten``,
    ``beta``, ``weyl``, ``schouten_derivative`` ``nabla_a P_bc`` (indexed
    ``[a, b, c]``), ``cotton`` ``Y[a, b, c] = nabla_b P_ac - nabla_a P_bc``
    (see the module docstring) and, when the pack knows a metric, the
    scalar curvature ``scalar``.  The Schouten family needs dim >= 3.  Every
    array carries the batch axis of its points ``(B, d)`` just before the
    coefficients.
    """

    def __init__(self, conn: Connection, metric_field: TensorField | None = None):
        self.conn = conn
        self.metric_field = metric_field
        self._memo: dict = {}

    @property
    def dim(self) -> int:
        return self.conn.dim

    def dense(self, name: str, points: np.ndarray, order: int) -> np.ndarray:
        """Memoized (read-only) dense jets of the tensor ``name`` (``riemann``,
        ``ricci``, ``schouten``, ...) at a batch of points, one evaluation
        per tensor and batch of rows at the highest order asked
        (:func:`~tractorlab.fields.row_memo`)."""
        memo = self._memo.setdefault(name, {})
        return row_memo(memo, points, order, getattr(self, "_build_" + name))

    def _build_riemann(self, points: np.ndarray, order: int) -> np.ndarray:
        d = self.dim
        G = self.conn.dense(points, order + 1)
        dG = jet_gradient(G, jet_space(d, order + 1))  # dG[e, c, a, b] = d_e G[c, a, b]
        # A[a, b, c, e] = d_a G[c, b, e] + G[c, a, f] G[f, b, e]; R = A - A^(ab)
        A = dG.swapaxes(1, 2) + jet_einsum("caf,fbe->abce", G, G, jet_space(d, order))
        return A - A.swapaxes(0, 1)

    def _build_ricci(self, points: np.ndarray, order: int) -> np.ndarray:
        # Above order 0 the Riemann jets have no reader but this build, whose
        # result is memoized, so they are built without being stored.
        if order == 0:
            R = self.dense("riemann", points, 0)
        else:
            R = self._build_riemann(points, order)
        return np.einsum("eaeb...->ab...", R)

    def _build_scalar(self, points: np.ndarray, order: int) -> np.ndarray:
        if self.metric_field is None:
            raise ValueError("scalar curvature needs a metric")
        space = jet_space(self.dim, order)
        g = self.metric_field.dense(points, order)
        ric = self.dense("ricci", points, order)
        return jet_einsum("ab,ab->", jet_inverse(g, space), ric, space)

    def _build_schouten(self, points: np.ndarray, order: int) -> np.ndarray:
        n = self.dim - 1
        ric = self.dense("ricci", points, order)
        ric_t = ric.swapaxes(0, 1)
        return (ric + ric_t) * (0.5 / n) + (ric - ric_t) * (0.5 / (n + 2))

    def _build_beta(self, points: np.ndarray, order: int) -> np.ndarray:
        P = self.dense("schouten", points, order)
        return P.swapaxes(0, 1) - P

    def _build_weyl(self, points: np.ndarray, order: int) -> np.ndarray:
        eye = np.eye(self.dim)
        P = self.dense("schouten", points, order)
        return (
            self.dense("riemann", points, order)
            - np.einsum("ca,be...->abce...", eye, P)
            + np.einsum("cb,ae...->abce...", eye, P)
            - np.einsum("ce,ab...->abce...", eye, self.dense("beta", points, order))
        )

    def _build_schouten_derivative(self, points: np.ndarray, order: int) -> np.ndarray:
        d = self.dim
        space = jet_space(d, order)
        P = self.dense("schouten", points, order + 1)
        G = self.conn.dense(points, order)
        return (
            jet_gradient(P, jet_space(d, order + 1))
            - jet_einsum("eab,ec->abc", G, P, space)
            - jet_einsum("eac,be->abc", G, P, space)
        )

    def _build_cotton(self, points: np.ndarray, order: int) -> np.ndarray:
        dP = self.dense("schouten_derivative", points, order)
        return dP.swapaxes(0, 1) - dP

    def riemann(self, point: np.ndarray, order: int) -> np.ndarray:
        """``dense("riemann", point, order)`` at a batch of points ``point``;
        kept as a method, with its parameter names, because the benchmark
        tracer (``perfbench/tracer.py``) counts its calls."""
        return self.dense("riemann", point, order)


# -- weighted covariant derivative ------------------------------------------


def covariant_derivative(field: TensorField, conn: Connection) -> TensorField:
    """Covariant derivative of a weighted tensor field.

    The result has one extra lower index in axis 0 (``out[a, ...] =
    nabla_a T[...]``).  Upper and lower indices get the usual Christoffel
    corrections; the projective weight w adds
    ``DENSITY_SIGN * (w/(n+2)) * Gamma^e_ea * T``.
    """
    chart = field.chart
    d = chart.dim
    variance = field.variance
    w = field.weight
    idx = _AXES[: len(variance)]

    def evaluator(points: np.ndarray, order: int) -> np.ndarray:
        space, upper = jet_space(d, order), jet_space(d, order + 1)
        comps = field.dense(points, order + 1)
        G = conn.dense(points, order)
        out = jet_gradient(comps, upper)
        for slot, var in enumerate(variance):
            moved = idx[:slot] + "e" + idx[slot + 1:]
            if var == "u":
                out = out + jet_einsum(f"{idx[slot]}ae,{moved}->a{idx}", G, comps, space)
            else:
                out = out - jet_einsum(f"ea{idx[slot]},{moved}->a{idx}", G, comps, space)
        if w != 0.0:
            tg = conn.trace_gamma(points, order) * (DENSITY_SIGN * w / (d + 1))
            out = out + jet_einsum(f"a,{idx}->a{idx}", tg, comps, space)
        return out

    return TensorField(
        chart,
        "d" + variance,
        evaluator,
        weight=w,
        name=f"D({field.name})" if field.name else "D(.)",
    )


# -- densities ---------------------------------------------------------------


def canonical_tau(geom_or_field) -> TensorField:
    """The canonical weight-2 density of a metric geometry (or bare metric
    field): ``|det g|^(-1/(n+2))``, a rank-0 field of weight 2.

    It is parallel for the Levi-Civita connection and satisfies
    ``|tau^(-n-2) det(g^ab)| = 1`` identically.  For a geometry that really
    is projectively compact of order 2 it extends by zero to a defining
    density, i.e. ``tau/rho`` has a finite nonzero boundary limit.  A
    numerically singular metric has a zero determinant, and its power
    raises :class:`~tractorlab.jets.DomainError`.
    """
    gfield = geom_or_field.metric_field() if isinstance(geom_or_field, Geometry) else geom_or_field
    dim = gfield.chart.dim
    power = -1.0 / (dim + 1)

    def component(points: np.ndarray, order: int) -> np.ndarray:
        space = jet_space(dim, order)
        det = jet_determinant(gfield.dense(points, order), space)
        return jet_function("pow", det * np.sign(det[..., :1]), space, power)

    return TensorField(gfield.chart, "", component, weight=2.0, name="tau")
