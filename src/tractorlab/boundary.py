"""Boundary asymptotics: geodetic transversals, extension checks, the
projective second fundamental form, asymptotic metric forms, and the
conformal boundary tractor pipeline.

Everything here reduces a statement "X admits a smooth extension to the
boundary" to Richardson extrapolation of X along inward rays (module
``extrapolate``), or evaluates closed forms that are manifestly smooth at
``rho = 0``.  Every routine takes the boundary points as placed
:class:`~tractorlab.extrapolate.Ladder` values, so one ladder serves every
limit at its point and no routine chooses ``rho`` levels of its own; the
routines that need a connection, a curvature pack or tau take the run's
:class:`~tractorlab.tractor.TractorCalculus` and read them from it.  Where
both routes exist (the Klein model carries an exact extension of its
rho-modified connection) their agreement is part of the report.  Each
boundary quantity has one point function here (``POINT_QUANTITIES``), which
the checks and ``tractorlab eval`` extrapolate alike.

Geodetic transversals are integrated by fixed-step RK4.  All curves of one
call share one ``(B, d)`` state, so each RK4 stage is one batched evaluation
of rho and of the Christoffel symbols over the point axis of the dense jet
kernels (module ``jets``) rather than one evaluation per curve.

The conformal data at a boundary point lives in the fiber splitting

    (beta; xi^i; sigma)  =  (E(1); T dM (-1); E(-1))

built from the tractor transversal ``t^a``: ``beta = tauhat rho_a nu^a``,
``xi = nu - (rho_a nu^a) t``; in that basis the boundary tractor metric
takes the block form ``(1/2)(beta1 sigma2 + beta2 sigma1) + tauhat
gamma_ij xi1^i xi2^j - (psi/(4 tauhat)) beta1 beta2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .extrapolate import Ladder, boundary_limit, ladder_samples, richardson_limit
from .fields import (
    Geometry,
    GeometryError,
    value_inv,
    value_matvec,
    value_outer,
    value_trace_product,
)
from .jets import jet_function, jet_gradient, jet_mul, jet_space
from .tractor import TractorCalculus, l_tau, metricity_contorsion, tractor_curvature

__all__ = [
    "BoundaryExtensionError",
    "DegenerateBoundaryError",
    "TransversalCurve",
    "CollarSample",
    "BoundaryFrame",
    "ConformalTractorData",
    "POINT_QUANTITIES",
    "boundary_limit",
    "scalar_curvature",
    "schouten_trace",
    "tracefree_ricci",
    "gamma_form",
    "t_vector",
    "h_form",
    "extended_christoffels",
    "rho_connection_extension",
    "geodetic_transversals",
    "collar_sample",
    "second_fundamental_form",
    "asymptotic_h",
    "einstein_asymptotics",
    "boundary_frame",
    "boundary_tractor_bundle",
    "curvature_blocks",
    "normalize_boundary_connection",
    "asymptotically_parallel_check",
]

Point = Sequence[float]


class BoundaryExtensionError(RuntimeError):
    """A quantity that should extend to the boundary diverges there."""


class DegenerateBoundaryError(RuntimeError):
    """The induced boundary geometry is degenerate (e.g. flat control)."""


# -- connection extension ----------------------------------------------------


def extended_christoffels(conn, ladder: Ladder) -> np.ndarray:
    """Boundary values at ``ladder.y`` of a connection that extends smoothly
    to ``rho = 0``.

    Uses the exact closed-form extension when the geometry provides one,
    otherwise Richardson extrapolation along the ladder.  Divergence raises
    :class:`BoundaryExtensionError` (the projectively-noncompact controls end
    up here).
    """
    if conn.exact_boundary is not None:
        return conn.exact_boundary(ladder.y, 0)[..., 0]
    est = boundary_limit(lambda p: conn.christoffel_values(p, 0), ladder)
    if est.diverged:
        raise BoundaryExtensionError(
            f"connection does not extend to the boundary at {ladder.y}"
        )
    return np.asarray(est.value)


@dataclass
class ExtensionReport:
    """Per-point outcome of the rho-connection extension check."""

    point: tuple
    diverged: bool
    loglog_slope: float | None
    error: float
    dual_path_gap: float | None


def rho_connection_extension(conn, ladders: Sequence[Ladder]) -> list[ExtensionReport]:
    """Check that the rho-modified connection extends at the ladders'
    boundary points.

    On divergence the report carries the slope of ``log |Gamma|`` against
    ``log rho`` (a slope <= -0.9 is the 1/rho signature of a missing
    projective compactification).  When the geometry also has an exact
    closed-form extension, the gap between the two paths is reported.
    """
    out = []
    for ladder in ladders:
        # the samples stay at hand for the divergence slope
        values = ladder_samples(lambda p: conn.christoffel_values(p, 0), ladder)
        est = richardson_limit(values)
        slope = None
        if est.diverged:
            norms = np.array([float(np.max(np.abs(v))) for v in values])
            slope = float(np.polyfit(np.log(ladder.eps), np.log(norms + 1e-300), 1)[0])
        gap = None
        if conn.exact_boundary is not None and not est.diverged:
            exact = conn.exact_boundary(ladder.y, 0)[..., 0]
            gap = float(np.max(np.abs(exact - est.value)))
        out.append(ExtensionReport(ladder.y, est.diverged, slope, est.error, gap))
    return out


# -- geodetic transversals -----------------------------------------------------


@dataclass
class TransversalCurve:
    """A rho-connection geodesic launched inward from a boundary point.

    Samples are stored at fixed RK4 steps together with velocities and
    accelerations, so positions interpolate to fourth order (cubic Hermite)
    and points with prescribed rho values can be Newton-located on the
    curve.
    """

    geom: Geometry
    y: tuple
    mu0: np.ndarray
    ts: np.ndarray
    points: np.ndarray  # (N, d)
    mus: np.ndarray  # (N, d)
    accs: np.ndarray  # (N, d)
    rhos: np.ndarray  # (N,)

    def _hermite(self, k: int, s: float) -> tuple[np.ndarray, np.ndarray]:
        """Interpolate (x, mu) between samples k and k+1; s in [0,1]."""
        h = self.ts[k + 1] - self.ts[k]
        x0, x1 = self.points[k], self.points[k + 1]
        v0, v1 = self.mus[k], self.mus[k + 1]
        a0, a1 = self.accs[k], self.accs[k + 1]
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        h11 = s**3 - s**2
        x = h00 * x0 + h10 * h * v0 + h01 * x1 + h11 * h * v1
        v = h00 * v0 + h10 * h * a0 + h01 * v1 + h11 * h * a1
        return x, v

    def at_rho(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """Point and velocity on the curve where rho equals ``eps``; raises
        :class:`GeometryError` when Newton does not bring rho within
        tolerance of ``eps``."""
        if eps <= 0 or eps > float(self.rhos.max()):
            raise ValueError(f"rho={eps:g} is not reached by this transversal")
        k = int(np.searchsorted(self.rhos, eps)) - 1
        k = max(0, min(k, len(self.ts) - 2))
        s = 0.5
        for _ in range(60):
            x, v = self._hermite(k, s)
            rho, grad = self.geom.rho_and_drho(x)
            val = rho - eps
            if abs(val) <= 1e-14 * (1 + eps):
                break
            h = self.ts[k + 1] - self.ts[k]
            slope = float(grad @ v) * h
            s -= val / slope
            s = min(max(s, -0.5), 1.5)
        else:
            raise GeometryError(
                f"could not locate rho={eps:g} on the transversal from {self.y}"
            )
        return x, v

    def geodesic_residual(self) -> float:
        """Max norm of d(mu)/dt + Gamma(mu, mu) via 4th-order differences."""
        h = self.ts[1] - self.ts[0]
        mu = self.mus
        dmu = (-mu[4:] + 8 * mu[3:-1] - 8 * mu[1:-3] + mu[:-4]) / (12 * h)
        return float(np.max(np.abs(dmu - self.accs[2:-2]), initial=0.0))


def geodetic_transversals(
    calc: TractorCalculus,
    ladders: Sequence[Ladder],
    step: float = 1e-3,
    horizon: float = 0.2,
) -> list[TransversalCurve]:
    """Integrate the geodesics of the rho-modified connection ``calc.hat``
    from the ladders' boundary points, each launched along its ladder's
    direction ``mu0``, which must satisfy ``d(rho)(mu0) = 1``; one curve per
    ladder, in order.

    The boundary value of the connection comes from its smooth extension
    along each ladder, computed for every point before integration starts.
    The curves are then integrated together by
    classical fixed-step RK4 on one ``(B, d)`` state (the curves are short,
    collar scale): each stage makes one batched rho evaluation and one
    batched Christoffel evaluation, and rows still on the boundary
    (``|rho| <= 1e-12``) take their own point's extended value.  When curves
    leave the chart domain, :class:`GeometryError` names the one that leaves
    at the earliest step; among curves leaving at the same step, the one
    with the lowest index.
    """
    geom, conn = calc.geom, calc.hat
    ys = np.array([ladder.y for ladder in ladders])
    directions = np.array([ladder.direction for ladder in ladders])
    for y, mu0 in zip(ys, directions):
        pairing = float(geom.drho(y) @ mu0)
        if abs(pairing - 1.0) > 1e-10:
            raise ValueError(f"d(rho)(mu0) = {pairing!r}, expected 1 at the boundary")
    gamma_boundary = np.stack([
        extended_christoffels(conn, ladder) for ladder in ladders
    ], axis=-1)  # (d, d, d, B), the layout of a batched christoffel_values

    def acc(x: np.ndarray, v: np.ndarray, rho: np.ndarray) -> np.ndarray:
        inside = np.abs(rho) > 1e-12
        G = gamma_boundary.copy()
        if inside.any():
            G[..., inside] = conn.christoffel_values(x[inside], 0)
        return -np.einsum("cabn,na,nb->nc", G, v, v)

    def acc_at(x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return acc(x, v, geom.rho_dense(x, 0)[:, 0])

    n_steps = int(round(horizon / step))
    n_curves, d = ys.shape
    ts = np.arange(n_steps + 1) * step
    xs = np.zeros((n_curves, n_steps + 1, d))
    vs = np.zeros((n_curves, n_steps + 1, d))
    accs = np.zeros((n_curves, n_steps + 1, d))
    rhos = np.zeros((n_curves, n_steps + 1))
    x, v = ys.copy(), directions.copy()
    rho = geom.rho_dense(x, 0)[:, 0]
    a = acc(x, v, rho)
    xs[:, 0], vs[:, 0], accs[:, 0], rhos[:, 0] = x, v, a, rho
    for k in range(n_steps):
        # the acceleration at the step's start is the previous step's end
        k1x, k1v = v, a
        k2x, k2v = v + 0.5 * step * k1v, acc_at(x + 0.5 * step * k1x, v + 0.5 * step * k1v)
        k3x, k3v = v + 0.5 * step * k2v, acc_at(x + 0.5 * step * k2x, v + 0.5 * step * k2v)
        k4x, k4v = v + step * k3v, acc_at(x + step * k3x, v + step * k3v)
        x = x + (step / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (step / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        rho = geom.rho_dense(x, 0)[:, 0]
        left = (rho < -1e-8) | (np.max(np.abs(x), axis=1) > 1e6)
        if left.any():
            i = int(np.argmax(left))
            raise GeometryError(
                f"transversal from {tuple(ys[i].tolist())} left the chart domain "
                f"at t={ts[k + 1]:g}"
            )
        a = acc(x, v, rho)
        xs[:, k + 1], vs[:, k + 1], accs[:, k + 1], rhos[:, k + 1] = x, v, a, rho
    return [
        TransversalCurve(
            geom, ladder.y, ladder.direction, ts, xs[i], vs[i], accs[i], rhos[i]
        )
        for i, ladder in enumerate(ladders)
    ]


@dataclass
class CollarSample:
    """The product structure (boundary point, collar parameter) -> point."""

    ts: np.ndarray
    rows: list  # (y, t, point)
    min_separation: float


def collar_sample(
    curves: Sequence[TransversalCurve],
    ts: Sequence[float] | None = None,
) -> CollarSample:
    """Sample the collar map on transversals that are already integrated.

    ``ts`` defaults to five equally spaced parameters across the shortest
    curve; each row takes the nearest RK4 sample.  Injectivity is checked
    pairwise on the sampled rows; a collision (for example a duplicated
    boundary point) raises with the offending pair.
    """
    if ts is None:
        horizon = min(float(c.ts[-1]) for c in curves)
        ts = np.array([0.0, 0.25, 0.5, 0.75, 1.0]) * horizon
    ts = np.asarray(ts, dtype=float)
    rows = []
    for curve in curves:
        step = curve.ts[1] - curve.ts[0]
        for t in ts:
            if t == 0.0:
                pt = np.asarray(curve.y, dtype=float)
            else:
                k = min(int(round(t / step)), len(curve.ts) - 1)
                pt = curve.points[k]
            rows.append((curve.y, float(t), pt))
    min_sep = math.inf
    worst_pair = None
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            dist = float(np.max(np.abs(rows[i][2] - rows[j][2])))
            if dist < min_sep:
                min_sep = dist
                worst_pair = (rows[i][:2], rows[j][:2])
    if min_sep <= 0.0:
        raise GeometryError(
            f"collar is not injective: rows {worst_pair[0]} and {worst_pair[1]} collide"
        )
    return CollarSample(ts, rows, min_sep)


# -- projective second fundamental form ---------------------------------------


def tangential_basis(geom: Geometry, y: Point) -> np.ndarray:
    """Euler-chart orthonormal basis of ker d(rho) at a boundary point.

    Gram-Schmidt of the coordinate directions against d(rho) in the chart
    Euclidean inner product; deterministic, so reports diff cleanly.  All
    downstream assertions are basis-covariant.
    """
    d = geom.dim
    grad = geom.drho(y)
    nu = grad / math.sqrt(float(grad @ grad))
    basis = []
    for i in range(d):
        v = np.zeros(d)
        v[i] = 1.0
        v = v - (v @ nu) * nu
        for e in basis:
            v = v - (v @ e) * e
        norm = math.sqrt(float(v @ v))
        if norm > 0.3:
            basis.append(v / norm)
        if len(basis) == d - 1:
            break
    if len(basis) != d - 1:
        raise GeometryError(f"could not build a tangential basis at {tuple(y)}")
    return np.array(basis).T  # columns are the tangent vectors


def hessian_of_rho(geom: Geometry, y: Point, gamma_values: np.ndarray) -> np.ndarray:
    """Value matrix of the covariant Hessian of rho at a boundary point."""
    return _covariant_hessian(geom.rho_dense(y, 2), gamma_values)


def _covariant_hessian(rho2: np.ndarray, gamma_values: np.ndarray) -> np.ndarray:
    """``d_a d_b rho - Gamma^e_ab d_e rho`` (values) from the order-2 dense
    jet of rho."""
    d = len(gamma_values)
    grad = jet_gradient(rho2, jet_space(d, 2))
    hess = jet_gradient(grad, jet_space(d, 1))[..., 0]
    return hess - np.einsum("eab,e->ab", gamma_values, grad[:, 0])


@dataclass
class SecondFundamentalForm:
    """A representative of the projective second fundamental form at y."""

    point: tuple
    full: np.ndarray  # covariant Hessian of rho w.r.t. the extended connection
    tangential: np.ndarray  # restricted to the tangential basis
    basis: np.ndarray
    conformal_factor_defect: float
    projective_change_defect: float
    min_abs_eigenvalue: float


def second_fundamental_form(
    calc: TractorCalculus,
    ladder: Ladder,
    rng: np.random.Generator | None = None,
) -> SecondFundamentalForm:
    """The tangential Hessian of rho at ``ladder.y`` w.r.t. the class
    connection ``calc.hat`` extended along the ladder.

    Also verifies the two well-definedness properties numerically: a
    projective change of the connection leaves the tangential restriction
    unchanged, and replacing rho by ``exp(f) rho`` rescales it by the
    conformal factor ``exp(f(y))``.
    """
    geom = calc.geom
    d = geom.dim
    rng = rng or np.random.default_rng(11)
    y = ladder.y
    gamma0 = extended_christoffels(calc.hat, ladder)
    full = hessian_of_rho(geom, y, gamma0)
    E = tangential_basis(geom, y)
    tang = E.T @ full @ E
    scale = float(np.max(np.abs(tang))) + 1e-30

    def modified(one_form):
        # Gamma^c_ab + delta^c_a Y_b + delta^c_b Y_a
        eye = np.eye(d)
        return gamma0 + (
            np.einsum("ca,b->cab", eye, one_form) + np.einsum("cb,a->cab", eye, one_form)
        )

    # (a) projective invariance of the tangential restriction
    ups = rng.uniform(-0.8, 0.8, size=d)
    tang_proj = E.T @ hessian_of_rho(geom, y, modified(ups)) @ E
    proj_defect = float(np.max(np.abs(tang_proj - tang))) / scale

    # (b) conformal covariance under rho -> exp(f) rho with linear f; the
    # class connection changes by df/alpha
    fcoef = rng.uniform(-0.4, 0.4, size=d + 1)
    space2 = jet_space(d, 2)
    f = np.zeros(space2.ncoeff)
    f[0] = fcoef[0] + fcoef[1:] @ np.asarray(y)
    f[1 : 1 + d] = fcoef[1:]
    rho_new = jet_mul(jet_function("exp", f, space2), geom.rho_dense(y, 2), space2)
    hess_new = _covariant_hessian(rho_new, modified(fcoef[1:] / geom.alpha))
    tang_new = E.T @ hess_new @ E
    factor = math.exp(f[0])
    conf_defect = float(np.max(np.abs(tang_new - factor * tang))) / (
        scale * max(factor, 1.0)
    )

    eigs = np.linalg.eigvalsh(0.5 * (tang + tang.T))
    return SecondFundamentalForm(
        y, full, tang, E, conf_defect, proj_defect, float(np.min(np.abs(eigs)))
    )


# -- point functions of the boundary quantities -------------------------------
#
# Each is the value at an interior point whose boundary limit a check or
# ``tractorlab eval`` extrapolates; checks, boundary routines and the command
# line all call these, so a quantity and the check that judges it share one
# formula.  Each takes a point or a batch of points ``(B, d)`` (a whole
# ladder) and returns the value with its tensor axes first and the batch
# axis last, the layout of a dense jet array's ``[..., 0]`` slice.


def scalar_curvature(calc: TractorCalculus, p) -> np.ndarray:
    """The scalar curvature of the metric (Thm 2.5)."""
    return calc.pack_of(calc.levi_civita_splitting).dense("scalar", p, 0)[..., 0]


def schouten_trace(calc: TractorCalculus, p) -> np.ndarray:
    """``g^ij P_ij``, the metric trace of the Schouten tensor."""
    gv = calc.geom.metric_field().dense(p, 0)[..., 0]
    Pv = calc.pack_of(calc.levi_civita_splitting).dense("schouten", p, 0)[..., 0]
    return value_trace_product(value_inv(gv), Pv)


def tracefree_ricci(calc: TractorCalculus, p) -> np.ndarray:
    """``Ric - (S/(n+1)) g`` with the scalar curvature ``S`` at the point
    itself."""
    g = calc.geom.metric_field().dense(p, 0)[..., 0]
    ricci = calc.pack_of(calc.levi_civita_splitting).dense("ricci", p, 0)[..., 0]
    return ricci - scalar_curvature(calc, p) / (calc.n + 1) * g


def gamma_form(calc: TractorCalculus, p) -> np.ndarray:
    """``gamma = rho P + d(rho)^2 / (4 rho)`` (Prop 4.2); its tangential
    boundary value is the metric of the conformal infinity."""
    Pv = calc.pack_of(calc.levi_civita_splitting).dense("schouten", p, 0)[..., 0]
    rho, grad = calc.geom.rho_and_drho(p)
    return rho * Pv + value_outer(grad) / (4.0 * rho)


def t_vector(calc: TractorCalculus, p) -> np.ndarray:
    """``t^a = -P^ab rho_b / (4 rho^2)`` (Prop 4.2); raises
    ``numpy.linalg.LinAlgError`` where the Schouten tensor is singular."""
    Pv = calc.pack_of(calc.levi_civita_splitting).dense("schouten", p, 0)[..., 0]
    rho, grad = calc.geom.rho_and_drho(p)
    return value_matvec(-value_inv(Pv), grad) / (4.0 * np.float_power(rho, 2))


def h_form(calc: TractorCalculus, C: float, p) -> np.ndarray:
    """``h = rho g - (C/rho) d(rho) d(rho)``: the tensor ``h`` of the
    asymptotic form ``g = h/rho + C d(rho)^2/rho^2`` (Thm 2.5)."""
    gv = calc.geom.metric_field().dense(p, 0)[..., 0]
    rho, grad = calc.geom.rho_and_drho(p)
    return rho * gv - (C / rho) * value_outer(grad)


def _lc_curvature(name: str) -> Callable:
    def value(calc: TractorCalculus, p) -> np.ndarray:
        return calc.pack_of(calc.levi_civita_splitting).dense(name, p, 0)[..., 0]

    return value


#: The point function ``f(calc, p)`` of each quantity ``tractorlab eval``
#: evaluates pointwise; ``h_asymptotic`` also needs its constant and is
#: :func:`h_form`.
POINT_QUANTITIES: dict[str, Callable] = {
    "scalar_curvature": scalar_curvature,
    "schouten": _lc_curvature("schouten"),
    "weyl": _lc_curvature("weyl"),
    "cotton": _lc_curvature("cotton"),
    "l_tau": lambda calc, p: l_tau(calc, p, 0, calc.reference).values(),
    "gamma": gamma_form,
    "t_vector": t_vector,
}


# -- asymptotic form of the metric ---------------------------------------------


@dataclass
class AsymptoticHReport:
    points: list
    scalar_limits: list[float]
    scalar_spread: float
    C: float
    constructor_C: float | None
    h_limits: list[np.ndarray]
    h_errors: list[float]
    h_diverged: bool
    tangential_min_eigs: list[float]
    status: str


def asymptotic_h(
    calc: TractorCalculus, ladders: Sequence[Ladder]
) -> AsymptoticHReport:
    """Recover the order-2 asymptotic form ``g = h/rho + C d(rho)^2/rho^2``
    at the ladders' boundary points.

    The constant is ``C = -n(n+1)/(4 S_0)`` with ``S_0`` the extrapolated
    boundary scalar curvature (required locally constant and nonzero); the
    report carries the extrapolated ``h = rho g - (C/rho) d(rho) d(rho)``
    with its tangential nondegeneracy, and flags divergence for geometries
    that are not projectively compact of order two.
    """
    geom = calc.geom
    n = geom.dim - 1
    ys = [ladder.y for ladder in ladders]
    s_limits = []
    for ladder in ladders:
        est = boundary_limit(lambda p: scalar_curvature(calc, p), ladder)
        if est.diverged:
            return AsymptoticHReport(
                ys, [], math.inf, math.nan, _constructor_c(geom),
                [], [], True, [], "scalar curvature diverges at the boundary",
            )
        s_limits.append(float(est.value))
    spread = max(s_limits) - min(s_limits)
    s0 = float(np.mean(s_limits))
    if abs(s0) < 1e-6:
        return AsymptoticHReport(
            ys, s_limits, spread, math.nan,
            _constructor_c(geom), [], [], False, [],
            "boundary scalar curvature vanishes; no order-2 metric form",
        )
    C = -n * (n + 1) / (4.0 * s0)

    h_limits, h_errors, min_eigs = [], [], []
    diverged = False
    for ladder in ladders:
        est = boundary_limit(lambda p: h_form(calc, C, p), ladder)
        diverged = diverged or est.diverged
        h_limits.append(np.asarray(est.value))
        h_errors.append(est.error)
        if not est.diverged:
            E = tangential_basis(geom, ladder.y)
            tang = E.T @ np.asarray(est.value) @ E
            min_eigs.append(float(np.min(np.abs(np.linalg.eigvalsh(tang)))))
    status = "ok"
    if diverged:
        status = "h does not extend to the boundary"
    return AsymptoticHReport(
        ys, s_limits, spread, C, _constructor_c(geom),
        h_limits, h_errors, diverged, min_eigs, status,
    )


def _constructor_c(geom: Geometry) -> float | None:
    """The constant C the geometry was built with, at the origin of the
    chart (1/4 for the Klein model, by name); None when it has none."""
    if geom.constructor_C is None and geom.name == "klein":
        return 0.25
    return geom.constructor_C


def _delta_wedge(x: np.ndarray) -> np.ndarray:
    """``delta^c_a x_be - delta^c_b x_ae``, indexed ``[a, b, c, e, ...]``."""
    eye = np.eye(len(x))
    return (
        np.einsum("ca,be...->abce...", eye, x) - np.einsum("cb,ae...->abce...", eye, x)
    )


@dataclass
class EinsteinAsymptoticsReport:
    points: list
    tracefree_errors: list[float]
    tail_errors: list[float]
    pointwise_tracefree_diverges: bool
    diverged: bool
    status: str


def einstein_asymptotics(
    calc: TractorCalculus, ladders: Sequence[Ladder]
) -> EinsteinAsymptoticsReport:
    """Asymptotic Einstein property of an order-2 projectively compact metric
    at the ladders' boundary points.

    Checks that the Einstein-type trace adjustment of the Ricci tensor,
    ``Ric_ab - (S0/(n+1)) g_ab`` with ``S0`` the (locally constant) boundary
    value of the scalar curvature, extends smoothly, and that the curvature
    minus its universal singular part
    ``-(1/(2 rho^2)) delta^c_[a rho_b] rho_d - (1/(2 C rho)) delta^c_[a h_b]d``
    extends as well.

    The *pointwise* trace-free Ricci ``Ric - (S(x)/(n+1)) g`` differs from
    the combination above by ``(S0 - S(x)) g/(n+1)``, whose transversal slot
    grows like ``1/rho`` whenever the transversal derivative of S is nonzero
    at the boundary; it therefore extends only in the asymptotically
    stronger (Einstein-like) case and its divergence is reported separately
    as a diagnostic.
    """
    geom = calc.geom
    n = geom.dim - 1
    pack = calc.pack_of(calc.levi_civita_splitting)
    hrep = asymptotic_h(calc, ladders)
    if hrep.status != "ok":
        return EinsteinAsymptoticsReport(
            hrep.points, [], [], True, True, f"no asymptotic form: {hrep.status}"
        )
    C = hrep.C
    s_boundary = float(np.mean(hrep.scalar_limits))
    gfield = geom.metric_field()

    def adjusted_ricci(p):
        g = gfield.dense(p, 0)[..., 0]
        return pack.dense("ricci", p, 0)[..., 0] - s_boundary / (n + 1) * g

    def tail(p):
        R = pack.dense("riemann", p, 0)[..., 0]
        rv, grad = geom.rho_and_drho(p)
        return (
            R
            + _delta_wedge(value_outer(grad)) / (4.0 * np.float_power(rv, 2))
            + _delta_wedge(h_form(calc, C, p)) / (4.0 * C * rv)
        )

    tf_errors, tail_errors = [], []
    diverged = False
    pointwise_diverges = False
    for ladder in ladders:
        est = boundary_limit(adjusted_ricci, ladder)
        diverged = diverged or est.diverged
        tf_errors.append(est.scaled_error())
        est2 = boundary_limit(tail, ladder)
        diverged = diverged or est2.diverged
        tail_errors.append(est2.scaled_error())
        est3 = boundary_limit(lambda p: tracefree_ricci(calc, p), ladder)
        pointwise_diverges = pointwise_diverges or est3.diverged
    return EinsteinAsymptoticsReport(
        hrep.points, tf_errors, tail_errors, pointwise_diverges,
        diverged, "ok" if not diverged else "curvature tail diverges",
    )


# -- boundary frames and the conformal tractor bundle -------------------------


@dataclass
class BoundaryFrame:
    """Extrapolated tractor data of one boundary point.

    Carries the conformal data derived from the boundary value of the
    tractor metric L(tau) (tauhat, psi, the tangential gamma and its
    inverse), the tangential basis, the fiber map into the
    (beta; xi; sigma) splitting and L(tau) in that splitting.
    """

    ladder: Ladder
    basis: np.ndarray  # (d, n) tangent columns
    tau_hat: float
    psi: float
    gamma_t: np.ndarray  # tangential gamma in the basis
    gamma_t_inv: np.ndarray
    split_map: np.ndarray  # fiber map (sigma; nu) -> (beta; xi; sigma)
    split_map_inv: np.ndarray
    gram_split: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def point(self) -> tuple:
        return self.ladder.y

    @property
    def dim(self) -> int:
        return len(self.ladder.y)

    @property
    def n(self) -> int:
        return self.dim - 1

    def tangential_kappa(self, kappa_values: np.ndarray) -> np.ndarray:
        """Restrict the form indices of an End-valued two-form and move it
        into the (beta; xi; sigma) splitting."""
        E = self.basis
        n = self.n
        m = self.dim + 1
        out = np.zeros((n, n, m, m))
        for i in range(n):
            for j in range(n):
                block = np.einsum("abIJ,a,b->IJ", kappa_values, E[:, i], E[:, j])
                out[i, j] = self.split_map @ block @ self.split_map_inv
        return out


def boundary_frame(calc: TractorCalculus, ladder: Ladder) -> BoundaryFrame:
    """Assemble the boundary tractor data at ``ladder.y`` by extrapolation
    along the ladder."""
    geom = calc.geom
    d = geom.dim
    n = d - 1
    m = d + 1
    y = ladder.y
    grams = ladder_samples(lambda p: l_tau(calc, p, 0, calc.reference).values(), ladder)
    est_gram = richardson_limit(grams)
    eps = np.array(ladder.eps)
    est_tau = boundary_limit(lambda p: calc.tau.dense(p, 0)[..., 0] / eps, ladder)
    if est_gram.diverged or est_tau.diverged:
        raise BoundaryExtensionError(
            f"tractor metric data diverges at boundary point {y}"
        )
    gram = np.asarray(est_gram.value)
    tau_hat = float(est_tau.value)
    det_scaled = float(np.linalg.det(gram / tau_hat))
    if abs(det_scaled) < 1e-8:
        raise DegenerateBoundaryError(
            f"degenerate boundary geometry at {y}: |det L(tau)| = {abs(det_scaled):.2e}"
        )
    est_inv = richardson_limit(np.linalg.inv(grams))
    if est_inv.diverged:
        raise BoundaryExtensionError(
            f"inverse tractor metric diverges at boundary point {y}"
        )
    gram_inv = np.asarray(est_inv.value)
    t_vec = tau_hat * gram_inv[0, 1:] / 2.0
    psi = tau_hat * gram_inv[0, 0]
    gamma_full = gram[1:, 1:] / tau_hat
    drho = geom.drho(y)

    E = tangential_basis(geom, y)
    gamma_t = E.T @ gamma_full @ E
    gamma_t_inv = np.linalg.inv(gamma_t)

    full_basis = np.column_stack([E, t_vec])
    theta = np.linalg.inv(full_basis)
    B = np.zeros((m, m))
    B[0, 1:] = tau_hat * drho
    for i in range(n):
        B[1 + i, 1:] = theta[i]
    B[n + 1, 0] = 1.0
    Binv = np.linalg.inv(B)
    gram_split = Binv.T @ gram @ Binv

    # the boundary value of P^ab / rho is tau_hat times the gram_inv block
    dual = (tau_hat * gram_inv[1:, 1:]) @ gamma_full + np.outer(t_vec, drho)
    diagnostics = {
        "isotropy_T1": abs(gram[0, 0]) / tau_hat,
        "t_dot_drho": float(t_vec @ drho),
        "dual_gamma_defect": float(np.max(np.abs(dual - np.eye(d)))),
        "gamma_min_singular_value": float(
            np.min(np.abs(np.linalg.svd(gamma_t, compute_uv=False)))
        ),
    }
    return BoundaryFrame(
        ladder, E, tau_hat, psi, gamma_t, gamma_t_inv, B, Binv, gram_split,
        diagnostics,
    )


def expected_gram_split(frame: BoundaryFrame) -> np.ndarray:
    """The boundary tractor metric in the (beta; xi; sigma) splitting:
    hyperbolic beta-sigma pairing, tangential gamma block, and the
    ``-psi/(4 tauhat)`` correction on the beta line."""
    n = frame.n
    m = frame.dim + 1
    G = np.zeros((m, m))
    G[0, n + 1] = G[n + 1, 0] = 0.5
    G[0, 0] = -0.25 * frame.psi / frame.tau_hat
    G[1:n + 1, 1:n + 1] = frame.tau_hat * frame.gamma_t
    return G


@dataclass
class ConformalTractorData:
    """Boundary tractor bundle data over a set of boundary points."""

    frames: list[BoundaryFrame]
    gram_split_defects: list[float]
    sff_agreement: list[float]
    signature_ok: list[bool]
    isotropy: list[float]


def boundary_tractor_bundle(
    calc: TractorCalculus, ladders: Sequence[Ladder]
) -> ConformalTractorData:
    """Assemble and verify the conformal standard tractor bundle at the
    ladders' boundary points: isotropy of the distinguished line, agreement of the induced
    quotient metric with the second fundamental form, the block form of the
    tractor metric in the (beta; xi; sigma) splitting, and the signature
    bookkeeping (gamma's signature plus one hyperbolic plane)."""
    frames = []
    gram_defects = []
    sff_agree = []
    signature_ok = []
    isotropy = []
    for ladder in ladders:
        frame = boundary_frame(calc, ladder)
        frames.append(frame)
        isotropy.append(frame.diagnostics["isotropy_T1"])
        expected = expected_gram_split(frame)
        scale = 1.0 + float(np.max(np.abs(expected)))
        gram_defects.append(
            float(np.max(np.abs(frame.gram_split - expected))) / scale
        )
        sff = second_fundamental_form(calc, ladder)
        half_hess = 0.5 * (sff.basis.T @ sff.full @ sff.basis)
        scale = 1.0 + float(np.max(np.abs(half_hess)))
        sff_agree.append(
            float(np.max(np.abs(frame.gamma_t - half_hess))) / scale
        )
        eigs_gamma = np.linalg.eigvalsh(frame.gamma_t)
        sig_gamma = (int(np.sum(eigs_gamma > 0)), int(np.sum(eigs_gamma < 0)))
        eigs_gram = np.linalg.eigvalsh(frame.gram_split)
        sig_gram = (int(np.sum(eigs_gram > 0)), int(np.sum(eigs_gram < 0)))
        signature_ok.append(
            sig_gram == (sig_gamma[0] + 1, sig_gamma[1] + 1)
        )
    return ConformalTractorData(frames, gram_defects, sff_agree, signature_ok, isotropy)


# -- the metric tractor connection and its boundary normalization -------------


@dataclass
class CurvatureBlocks:
    """Boundary curvature of the metric tractor connection, split form."""

    frame: BoundaryFrame
    kappa_split: np.ndarray  # (n, n, m, m)
    V: np.ndarray  # (n, n, n)
    W: np.ndarray  # (n, n, n, n)
    zero_pattern_defect: float
    gamma_skew_defect: float
    bottom_middle_defect: float
    extrapolation_error: float


def curvature_blocks(calc: TractorCalculus, frame: BoundaryFrame) -> CurvatureBlocks:
    """Extrapolate the curvature of the metric tractor connection (the
    torsion-free modification of the tractor connection that is metric for
    L(tau), in the reference splitting) to the boundary along the frame's
    ladder, restrict its form indices tangentially, and extract the (V, W)
    blocks in the (beta; xi; sigma) splitting.

    Asserts the zero pattern (first row, last column and the corner), the
    gamma-skewness of W, and that the bottom-middle block is
    ``-2 tauhat V_ij^k gamma_kl``.
    """
    n = frame.n
    tc = metricity_contorsion(calc, calc.reference)
    est = boundary_limit(lambda p: tc.curvature(p, 0).values(), frame.ladder)
    if est.diverged:
        raise BoundaryExtensionError(
            f"metric tractor curvature diverges at {frame.point}"
        )
    kappa0 = np.asarray(est.value)
    kappa_split = frame.tangential_kappa(kappa0)

    V = kappa_split[:, :, 1:n + 1, 0].copy()
    W = kappa_split[:, :, 1:n + 1, 1:n + 1].copy()
    scale = 1.0 + float(np.max(np.abs(kappa_split)))
    zero = 0.0
    zero = max(zero, float(np.max(np.abs(kappa_split[:, :, 0, :]))))  # beta row
    zero = max(zero, float(np.max(np.abs(kappa_split[:, :, :, n + 1]))))  # sigma col
    zero = max(zero, float(np.max(np.abs(kappa_split[:, :, n + 1, 0]))))  # corner
    skew = float(
        np.max(
            np.abs(
                np.einsum("ijrl,kr->ijkl", W, frame.gamma_t)
                + np.einsum("ijrk,lr->ijkl", W, frame.gamma_t)
            )
        )
    )
    bottom_expected = -2.0 * frame.tau_hat * np.einsum(
        "ijk,kl->ijl", V, frame.gamma_t
    )
    bottom = float(
        np.max(np.abs(kappa_split[:, :, n + 1, 1:n + 1] - bottom_expected))
    )
    return CurvatureBlocks(
        frame, kappa_split, V, W,
        zero / scale, skew / scale, bottom / scale, est.scaled_error(),
    )


@dataclass
class NormalizationReport:
    """Outcome of normalizing the boundary tractor connection."""

    frame: BoundaryFrame
    phi: np.ndarray
    skew_defect: float  # the contorsion must be gram-skew (metricity of nabla^0)
    t1_preservation_defect: float
    ricci_residual: float
    quotient_action: np.ndarray


def normalize_boundary_connection(
    blocks: CurvatureBlocks,
    w_perturbation: np.ndarray | float = 0.0,
) -> NormalizationReport:
    """Normalize the restricted metric tractor connection.

    Computes ``phi_ij = -W_ki^k_j/(n-2) + W_kr^k_s gamma^rs gamma_ij /
    (2(n-1)(n-2))``, assembles the lower-triangular contorsion with blocks
    ``-phi_il gamma^kl/(2 tauhat)`` and ``phi_ij``, and verifies the
    normalization: the contorsion is skew for the boundary tractor metric
    (so the connection stays metric), the distinguished line stays
    preserved, and the Ricci-type contraction of the induced quotient
    action vanishes.  ``w_perturbation`` injects a fault into W to prove
    the detector fires.
    """
    frame = blocks.frame
    n = frame.n
    if n < 3:
        raise ValueError(f"normalization needs boundary dimension >= 3, got {n}")
    m = frame.dim + 1
    gamma = frame.gamma_t
    gamma_inv = frame.gamma_t_inv
    Wki = np.einsum("kikj->ij", blocks.W)
    wtrace = float(np.einsum("ij,ij->", Wki, gamma_inv))
    phi = -Wki / (n - 2) + wtrace * gamma / (2.0 * (n - 1) * (n - 2))

    # The fault injection perturbs the curvature *after* phi is fixed, so a
    # wrong W is visible in the residual instead of being renormalized away.
    W = blocks.W.copy()
    if np.ndim(w_perturbation) == 0:
        if float(w_perturbation) != 0.0:
            W[0, 1, 0, 1] += float(w_perturbation)
            W[1, 0, 0, 1] -= float(w_perturbation)
    else:
        W = W + np.asarray(w_perturbation)

    psi_tilde = np.zeros((n, m, m))
    for i in range(n):
        psi_tilde[i, 1:n + 1, 0] = -0.5 / frame.tau_hat * (gamma_inv @ phi[i])
        psi_tilde[i, n + 1, 1:n + 1] = phi[i]

    G = frame.gram_split
    skew = 0.0
    for i in range(n):
        M = psi_tilde[i]
        skew = max(skew, float(np.max(np.abs(M.T @ G + G @ M))))
    skew /= 1.0 + float(np.max(np.abs(G))) * (1.0 + float(np.max(np.abs(phi))))

    # T^1 preservation: the curvature kills the sigma slot (last column)
    # already at the unnormalized level, and the contorsion's sigma column
    # vanishes by construction; report the extrapolated column residual.
    t1 = float(np.max(np.abs(blocks.kappa_split[:, :, :, n + 1])))
    t1 += float(np.max(np.abs(psi_tilde[:, :, n + 1])))
    t1 /= 1.0 + float(np.max(np.abs(blocks.kappa_split)))

    # Induced action of the normalized curvature on the quotient, and its
    # Ricci-type contraction (the normalization residual).
    quotient = (
        W
        + np.einsum("ki,jl->ijkl", np.eye(n), phi)
        - np.einsum("kj,il->ijkl", np.eye(n), phi)
        - np.einsum("jr,kr,il->ijkl", phi, gamma_inv, gamma)
        + np.einsum("ir,kr,jl->ijkl", phi, gamma_inv, gamma)
    )
    ricci = np.einsum("kjkl->jl", quotient)
    scale = 1.0 + float(np.max(np.abs(W)))
    return NormalizationReport(
        frame, phi, skew, t1,
        float(np.max(np.abs(ricci))) / scale, quotient,
    )


@dataclass
class AsymptoticallyParallelReport:
    applicable: bool
    reason: str
    hypothesis_norm: float
    tracefree_ricci_norm: float
    equivalence_ok: bool
    t1_defect: float
    ricci_residual: float


def asymptotically_parallel_check(
    calc: TractorCalculus, ladder: Ladder
) -> AsymptoticallyParallelReport:
    """When the tractor derivative of L(tau) vanishes along the boundary,
    the restricted *standard* connection is already the normal conformal
    tractor connection; verify normality directly in that case.

    The hypothesis is checked by extrapolating ``tau grad_a P_bc`` (the only
    slot of the derivative); it is equivalent to the vanishing of the
    boundary trace-free Ricci tensor, and both norms are reported so the
    equivalence itself is testable.
    """
    geom = calc.geom
    d = geom.dim
    n = d - 1
    if d < 4:
        return AsymptoticallyParallelReport(
            False, f"needs dimension >= 4, got {d}", math.nan, math.nan,
            False, math.nan, math.nan,
        )
    pack = calc.pack_of(calc.levi_civita_splitting)

    def bottom_slot(p):
        tau = calc.tau.dense(p, 0)[..., 0]
        return tau * pack.dense("schouten_derivative", p, 0)[..., 0]

    est_h = boundary_limit(bottom_slot, ladder)
    est_tf = boundary_limit(lambda p: tracefree_ricci(calc, p), ladder)
    hyp = float(np.max(np.abs(est_h.value))) if not est_h.diverged else math.inf
    tf = float(np.max(np.abs(est_tf.value))) if not est_tf.diverged else math.inf
    equivalence = (hyp <= 1e-5) == (tf <= 1e-5)
    if hyp > 1e-6:
        return AsymptoticallyParallelReport(
            False,
            f"derivative of L(tau) does not vanish at the boundary "
            f"(|tau grad P| ~ {hyp:.2e})",
            hyp, tf, equivalence, math.nan, math.nan,
        )

    frame = boundary_frame(calc, ladder)
    est = boundary_limit(
        lambda p: tractor_curvature(calc, calc.reference, p, 0).values(), ladder
    )
    kappa_split = frame.tangential_kappa(np.asarray(est.value))
    W = kappa_split[:, :, 1:n + 1, 1:n + 1]
    scale = 1.0 + float(np.max(np.abs(kappa_split)))
    t1 = float(np.max(np.abs(kappa_split[:, :, :, n + 1]))) / scale
    ricci = float(np.max(np.abs(np.einsum("kjkl->jl", W)))) / scale
    return AsymptoticallyParallelReport(
        True, "", hyp, tf, equivalence, t1, ricci
    )
