"""Boundary asymptotics: geodetic transversals, the projective second
fundamental form, the asymptotic metric form, the boundary tractor frames
and the normalization of the boundary tractor connection, and the point
functions of the boundary quantities.

Everything here reduces a statement "X admits a smooth extension to the
boundary" to Richardson extrapolation of X along inward rays (module
``extrapolate``), or evaluates closed forms that are manifestly smooth at
``rho = 0``.  Every routine takes the boundary points as placed
:class:`~tractorlab.extrapolate.Ladder` values, so one ladder serves every
limit at its point and no routine chooses ``rho`` levels of its own.  A
routine takes all the ladders (or frames) of a check, evaluates each
quantity once on their stacked levels, then judges and raises ladder by
ladder in order.  The routines that need a connection, a curvature pack or
tau read them from the check's :class:`~tractorlab.tractor.TractorCalculus`.
Only routines that several checks share live here: a computation that
serves one check is part of that check's runner in ``verify``.  Each
boundary quantity has one point function here (``POINT_QUANTITIES``), which
the checks and ``tractorlab eval`` extrapolate alike.

Geodetic transversals are integrated by fixed-step RK4.  All curves of one
call share one ``(B, d)`` state, so each RK4 stage is one batched run of the
metric tape, whose last row is rho, over the point axis of the dense jet
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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .extrapolate import (
    Ladder,
    LimitEstimate,
    boundary_limit,
    ladder_samples,
    richardson_limits,
)
from .fields import (
    Geometry,
    GeometryError,
    value_dot,
    value_inv,
    value_matvec,
    value_outer,
    value_trace_product,
)
from .jets import jet_gradient, jet_space
from .tractor import TractorCalculus, curvature_of, l_tau, metric_tractor_omega

__all__ = [
    "BoundaryExtensionError",
    "DegenerateBoundaryError",
    "TransversalCurve",
    "BoundaryFrame",
    "POINT_QUANTITIES",
    "boundary_limit",
    "scalar_curvature",
    "schouten_trace",
    "tracefree_ricci",
    "gamma_form",
    "t_vector",
    "h_form",
    "hat_christoffels",
    "extended_christoffels",
    "geodetic_transversals",
    "second_fundamental_form",
    "asymptotic_h",
    "boundary_frame",
    "curvature_blocks",
    "normalize_boundary_connection",
]


class BoundaryExtensionError(RuntimeError):
    """A quantity that should extend to the boundary diverges there."""


class DegenerateBoundaryError(RuntimeError):
    """The induced boundary geometry is degenerate (e.g. flat control)."""


# -- connection extension ----------------------------------------------------


def hat_christoffels(calc: TractorCalculus, p) -> np.ndarray:
    """Values ``(d, d, d, B)`` of the rho-modified connection ``calc.hat``
    at a batch of interior points, from one order-1 run of the metric tape
    there (its rho row and its metric rows)."""
    return calc.hat_christoffel_values(*calc.geom.rho_and_metric(p, 1))


def extended_christoffels(
    calc: TractorCalculus, ladders: Sequence[Ladder]
) -> list[np.ndarray]:
    """Boundary values at the ladders' points of the rho-modified connection
    ``calc.hat``, which extends smoothly to ``rho = 0`` on a projectively
    compact geometry, one per ladder.

    Uses the geometry's exact closed-form extension
    (``exact_hat_christoffels``) when it has one, evaluated once at the
    ladders' boundary points, otherwise Richardson extrapolation along the
    ladders.  Divergence raises :class:`BoundaryExtensionError` for the
    first diverged ladder (the projectively-noncompact controls end up
    here).
    """
    exact = calc.geom.exact_hat_christoffels
    if exact is not None:
        ys = np.array([ladder.y for ladder in ladders]).reshape(-1, calc.dim)
        return list(np.moveaxis(exact(ys, 0)[..., 0], -1, 0))
    ests = boundary_limit(lambda p: hat_christoffels(calc, p), ladders)
    for ladder, est in zip(ladders, ests):
        if est.diverged:
            raise BoundaryExtensionError(
                f"connection does not extend to the boundary at {ladder.y}"
            )
    return [np.asarray(est.value) for est in ests]


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

    def _hermite(self, k: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Interpolate (x, mu) between samples k and k+1, s in [0, 1], for
        each entry of the arrays ``k`` and ``s``: ``(len(k), d)`` each."""
        h = (self.ts[k + 1] - self.ts[k])[:, None]
        x0, x1 = self.points[k], self.points[k + 1]
        v0, v1 = self.mus[k], self.mus[k + 1]
        a0, a1 = self.accs[k], self.accs[k + 1]
        s2, s3 = np.float_power(s, 2)[:, None], np.float_power(s, 3)[:, None]
        h00 = 2 * s3 - 3 * s2 + 1
        h10 = s3 - 2 * s2 + s[:, None]
        h01 = -2 * s3 + 3 * s2
        h11 = s3 - s2
        x = h00 * x0 + h10 * h * v0 + h01 * x1 + h11 * h * v1
        v = h00 * v0 + h10 * h * a0 + h01 * v1 + h11 * h * a1
        return x, v

    def at_rho(self, eps: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Points and velocities ``(len(eps), d)`` on the curve where rho
        equals each level of ``eps``.

        The levels share one Newton, each on its own Hermite step, and a
        level keeps its parameter once it converges, so it takes the steps
        it would take alone.  Raises :class:`GeometryError` when Newton does
        not bring rho within tolerance of a level (naming the lowest)."""
        targets = np.asarray(eps, dtype=float)
        unreached = (targets <= 0) | (targets > float(self.rhos.max()))
        if unreached.any():
            raise ValueError(
                f"rho={targets[unreached][0]:g} is not reached by this transversal"
            )
        k = np.clip(np.searchsorted(self.rhos, targets) - 1, 0, len(self.ts) - 2)
        h = self.ts[k + 1] - self.ts[k]
        s = np.full(len(targets), 0.5)
        for _ in range(60):
            x, v = self._hermite(k, s)
            rho, grad = self.geom.rho_and_drho(x)
            val = rho - targets
            open_ = ~(np.abs(val) <= 1e-14 * (1 + targets))
            if not open_.any():
                return x, v
            slope = value_dot(grad, v.T) * h
            s[open_] = np.clip(s[open_] - val[open_] / slope[open_], -0.5, 1.5)
        raise GeometryError(
            f"could not locate rho={targets[open_][0]:g} on the transversal "
            f"from {self.y}"
        )

    def geodesic_residual(self) -> float:
        """Max norm of d(mu)/dt + Gamma(mu, mu) via 4th-order differences."""
        h = self.ts[1] - self.ts[0]
        mu = self.mus
        dmu = (-mu[4:] + 8 * mu[3:-1] - 8 * mu[1:-3] + mu[:-4]) / (12 * h)
        return float(np.max(np.abs(dmu - self.accs[2:-2]), initial=0.0))


def geodetic_transversals(
    calc: TractorCalculus,
    ladders: Sequence[Ladder],
    step: float,
    horizon: float,
) -> list[TransversalCurve]:
    """Integrate the geodesics of the rho-modified connection ``calc.hat``
    from the ladders' boundary points, each launched along its ladder's
    direction ``mu0``, which must satisfy ``d(rho)(mu0) = 1``; one curve per
    ladder, in order.

    The curves are integrated together by classical fixed-step RK4 on one
    ``(B, d)`` state (the curves are short, collar scale).  The launch
    points lie on the boundary, where the connection has only its smooth
    extension: their acceleration is ``-Gamma(mu0, mu0)`` with the extended
    value along each ladder, and their rho comes from the one rho run that
    also checks the pairing.  Every later stage makes one batched order-1
    run of the metric tape (``Geometry.rho_and_metric``), whose rho row and
    metric rows give the connection's values (one formula,
    ``TractorCalculus.hat_christoffel_values``) and, at a step's end, the
    rho of the domain exit test.  When a step's end run raises, rho alone
    is run there for the exit test, so a curve that left the domain is
    named; otherwise the run's own error propagates.  When curves leave the
    chart domain, :class:`GeometryError` names the one that leaves at the
    earliest step; among curves leaving at the same step, the one with the
    lowest index.
    """
    geom = calc.geom
    ys = np.array([ladder.y for ladder in ladders])
    directions = np.array([ladder.direction for ladder in ladders])
    rho0, grads = geom.rho_and_drho(ys)
    for grad, mu0 in zip(grads.T, directions):
        pairing = float(grad @ mu0)  # the 1-D dot, row by row
        if abs(pairing - 1.0) > 1e-10:
            raise ValueError(f"d(rho)(mu0) = {pairing!r}, expected 1 at the boundary")
    # (d, d, d, B), the layout of hat_christoffel_values
    gamma_boundary = np.stack(extended_christoffels(calc, ladders), axis=-1)
    n_steps = int(round(horizon / step))
    ts = np.arange(n_steps + 1) * step

    def exit_test(x: np.ndarray, rho: np.ndarray, k: int) -> None:
        left = (rho[:, 0] < -1e-8) | (np.max(np.abs(x), axis=1) > 1e6)
        if left.any():
            i = int(np.argmax(left))
            raise GeometryError(
                f"transversal from {tuple(ys[i].tolist())} left the chart domain "
                f"at t={ts[k]:g}"
            )

    def acc(x: np.ndarray, v: np.ndarray, k: int | None = None):
        """The acceleration at the state ``(x, v)`` and the order-1 rho jets
        at ``x``; at the end of step ``k``, after the exit test."""
        try:
            rho, g = geom.rho_and_metric(x, 1)
        except (ArithmeticError, ValueError) as err:  # jet errors, math domain
            failure = err
        else:
            if k is not None:
                exit_test(x, rho, k)
            G = calc.hat_christoffel_values(rho, g)
            return -np.einsum("cabn,na,nb->nc", G, v, v), rho
        # outside the handler, so neither error carries the other as context
        if k is not None:
            exit_test(x, geom.rho_dense(x, 1), k)
        raise failure

    n_curves, d = ys.shape
    xs = np.zeros((n_curves, n_steps + 1, d))
    vs = np.zeros((n_curves, n_steps + 1, d))
    accs = np.zeros((n_curves, n_steps + 1, d))
    rhos = np.zeros((n_curves, n_steps + 1))
    x, v = ys.copy(), directions.copy()
    a = -np.einsum("cabn,na,nb->nc", gamma_boundary, v, v)
    xs[:, 0], vs[:, 0], accs[:, 0], rhos[:, 0] = x, v, a, rho0
    half, sixth = 0.5 * step, step / 6.0
    for k in range(n_steps):
        # the acceleration at the step's start is the previous step's end;
        # a stage's velocity is the next stage's position slope
        k1x, k1v = v, a
        k2x = v + half * k1v
        k2v = acc(x + half * k1x, k2x)[0]
        k3x = v + half * k2v
        k3v = acc(x + half * k2x, k3x)[0]
        k4x = v + step * k3v
        k4v = acc(x + step * k3x, k4x)[0]
        x = x + sixth * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + sixth * (k1v + 2 * k2v + 2 * k3v + k4v)
        a, rho = acc(x, v, k + 1)
        xs[:, k + 1], vs[:, k + 1], accs[:, k + 1], rhos[:, k + 1] = x, v, a, rho[:, 0]
    return [
        TransversalCurve(
            geom, ladder.y, ladder.direction, ts, xs[i], vs[i], accs[i], rhos[i]
        )
        for i, ladder in enumerate(ladders)
    ]


# -- projective second fundamental form ---------------------------------------


def tangential_basis(geom: Geometry, ys: np.ndarray) -> list[np.ndarray]:
    """Euler-chart orthonormal bases of ker d(rho) at a batch of boundary
    points ``(B, d)``, one ``(d, d-1)`` matrix of tangent columns per point,
    from one rho run at all of them.

    Gram-Schmidt of the coordinate directions against d(rho) in the chart
    Euclidean inner product, point by point with 1-D dots; deterministic,
    so reports diff cleanly.  All downstream assertions are
    basis-covariant.
    """
    d = geom.dim
    bases = []
    for y, grad in zip(ys, geom.rho_and_drho(ys)[1].T):
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
            raise GeometryError(
                f"could not build a tangential basis at {tuple(y.tolist())}"
            )
        bases.append(np.array(basis).T)  # columns are the tangent vectors
    return bases


def _covariant_hessian(rho2: np.ndarray, gamma_values: np.ndarray) -> np.ndarray:
    """``d_a d_b rho - Gamma^e_ab d_e rho`` (values) at one point from its
    order-2 dense rho jet ``(ncoeff,)`` and connection values ``(d, d,
    d)``."""
    d = len(gamma_values)
    grad = jet_gradient(rho2, jet_space(d, 2))
    hess = jet_gradient(grad, jet_space(d, 1))[..., 0]
    return hess - np.einsum("eab,e->ab", gamma_values, grad[:, 0])


@dataclass
class SecondFundamentalForm:
    """A representative of the projective second fundamental form at y: the
    covariant Hessian of rho, from its order-2 dense jet ``rho2`` at y, with
    respect to the connection values ``gamma`` extended to y."""

    point: tuple
    full: np.ndarray  # covariant Hessian of rho w.r.t. the extended connection
    tangential: np.ndarray  # restricted to the tangential basis
    basis: np.ndarray
    gamma: np.ndarray  # (d, d, d)
    rho2: np.ndarray  # (ncoeff,) at order 2


def second_fundamental_form(
    calc: TractorCalculus, ladders: Sequence[Ladder]
) -> list[SecondFundamentalForm]:
    """The tangential Hessian of rho at each ladder's point w.r.t. the class
    connection ``calc.hat`` extended along the ladders, one form per ladder."""
    geom = calc.geom
    gammas = extended_christoffels(calc, ladders)
    ys = np.array([ladder.y for ladder in ladders]).reshape(-1, calc.dim)
    rho2s = geom.rho_dense(ys, 2)
    forms = []
    for ladder, rho2, gamma0, E in zip(ladders, rho2s, gammas, tangential_basis(geom, ys)):
        full = _covariant_hessian(rho2, gamma0)
        forms.append(SecondFundamentalForm(ladder.y, full, E.T @ full @ E, E, gamma0, rho2))
    return forms


# -- point functions of the boundary quantities -------------------------------
#
# Each is the value at an interior point whose boundary limit a check or
# ``tractorlab eval`` extrapolates; checks, boundary routines and the command
# line all call these, so a quantity and the check that judges it share one
# formula.  Each takes a batch of points ``(B, d)`` (the stacked ladders of
# a check, or one point as a batch of one) and returns the values with the
# tensor axes first and the batch axis last, the layout of a dense jet
# array's ``[..., 0]`` slice.


def scalar_curvature(calc: TractorCalculus, p) -> np.ndarray:
    """The scalar curvature of the metric (Thm 2.5)."""
    return calc.levi_civita_splitting.pack.dense("scalar", p, 0)[..., 0]


def schouten_trace(calc: TractorCalculus, p) -> np.ndarray:
    """``g^ij P_ij``, the metric trace of the Schouten tensor."""
    gv = calc.geom.metric_field().dense(p, 0)[..., 0]
    Pv = calc.levi_civita_splitting.pack.dense("schouten", p, 0)[..., 0]
    return value_trace_product(value_inv(gv), Pv)


def tracefree_ricci(calc: TractorCalculus, p) -> np.ndarray:
    """``Ric - (S/(n+1)) g`` with the scalar curvature ``S`` at the point
    itself."""
    g = calc.geom.metric_field().dense(p, 0)[..., 0]
    ricci = calc.levi_civita_splitting.pack.dense("ricci", p, 0)[..., 0]
    return ricci - scalar_curvature(calc, p) / (calc.n + 1) * g


def gamma_form(calc: TractorCalculus, p) -> np.ndarray:
    """``gamma = rho P + d(rho)^2 / (4 rho)`` (Prop 4.2); its tangential
    boundary value is the metric of the conformal infinity."""
    Pv = calc.levi_civita_splitting.pack.dense("schouten", p, 0)[..., 0]
    rho, grad = calc.geom.rho_and_drho(p)
    return rho * Pv + value_outer(grad) / (4.0 * rho)


def t_vector(calc: TractorCalculus, p) -> np.ndarray:
    """``t^a = -P^ab rho_b / (4 rho^2)`` (Prop 4.2); raises
    ``numpy.linalg.LinAlgError`` where the Schouten tensor is singular."""
    Pv = calc.levi_civita_splitting.pack.dense("schouten", p, 0)[..., 0]
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
        return calc.levi_civita_splitting.pack.dense(name, p, 0)[..., 0]

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
    scalar_limits: list[float]
    scalar_spread: float
    C: float
    h_estimates: list[LimitEstimate]  # one per ladder; empty without a C
    status: str


def asymptotic_h(
    calc: TractorCalculus, ladders: Sequence[Ladder]
) -> AsymptoticHReport:
    """Recover the order-2 asymptotic form ``g = h/rho + C d(rho)^2/rho^2``
    at the ladders' boundary points.

    The constant is ``C = -n(n+1)/(4 S_0)`` with ``S_0`` the extrapolated
    boundary scalar curvature (required locally constant and nonzero); the
    report carries the estimates of ``h = rho g - (C/rho) d(rho) d(rho)``
    along the ladders, and flags divergence for geometries that are not
    projectively compact of order two.
    """
    n = calc.n
    s_ests = boundary_limit(lambda p: scalar_curvature(calc, p), ladders)
    if any(est.diverged for est in s_ests):
        return AsymptoticHReport(
            [], math.inf, math.nan, [], "scalar curvature diverges at the boundary"
        )
    s_limits = [float(est.value) for est in s_ests]
    spread = max(s_limits) - min(s_limits)
    s0 = float(np.mean(s_limits))
    if abs(s0) < 1e-6:
        return AsymptoticHReport(
            s_limits, spread, math.nan, [],
            "boundary scalar curvature vanishes; no order-2 metric form",
        )
    C = -n * (n + 1) / (4.0 * s0)
    h_ests = boundary_limit(lambda p: h_form(calc, C, p), ladders)
    diverged = any(est.diverged for est in h_ests)
    status = "h does not extend to the boundary" if diverged else "ok"
    return AsymptoticHReport(s_limits, spread, C, h_ests, status)


def _delta_wedge(x: np.ndarray) -> np.ndarray:
    """``delta^c_a x_be - delta^c_b x_ae``, indexed ``[a, b, c, e, ...]``."""
    eye = np.eye(len(x))
    return (
        np.einsum("ca,be...->abce...", eye, x) - np.einsum("cb,ae...->abce...", eye, x)
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
    isotropy_T1: float  # |L(tau)_00| / tauhat: the distinguished line is null

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


def boundary_frame(
    calc: TractorCalculus, ladders: Sequence[Ladder]
) -> list[BoundaryFrame]:
    """Assemble the boundary tractor data at the ladders' points by
    extrapolation along the ladders, one frame per ladder; d(rho) and the
    tangential bases come from rho runs at all the points together.  tauhat
    is the limit of tau / rho: each ladder's tau samples divided by its own
    rho levels."""
    geom = calc.geom
    n = geom.dim - 1
    m = n + 2
    samples = ladder_samples(lambda p: l_tau(calc, p, 0, calc.reference).values(), ladders)
    taus = ladder_samples(lambda p: calc.tau.dense(p, 0)[..., 0], ladders)
    ys = np.array([ladder.y for ladder in ladders])
    drhos = geom.rho_and_drho(ys)[1].T
    gram_ests = richardson_limits(samples)
    tau_ests = richardson_limits(np.asarray(taus) / np.array([lad.eps for lad in ladders]))
    try:
        inv_ests = richardson_limits(np.linalg.inv(samples))
    except np.linalg.LinAlgError:
        inv_ests = None  # the singular ladder raises below, after the earlier checks
    frames = []
    for i, (ladder, grams, drho, E) in enumerate(
        zip(ladders, samples, drhos, tangential_basis(geom, ys))
    ):
        y = ladder.y
        est_gram, est_tau = gram_ests[i], tau_ests[i]
        if est_gram.diverged or est_tau.diverged:
            raise BoundaryExtensionError(
                f"tractor metric data diverges at boundary point {y}"
            )
        gram = np.asarray(est_gram.value)
        tau_hat = float(est_tau.value)
        det_scaled = float(np.linalg.det(gram / tau_hat))
        if abs(det_scaled) < 1e-8:
            raise DegenerateBoundaryError(
                f"degenerate boundary geometry at {y}: "
                f"|det L(tau)| = {abs(det_scaled):.2e}"
            )
        if inv_ests is None:
            (est_inv,) = richardson_limits(np.linalg.inv(grams)[None])
        else:
            est_inv = inv_ests[i]
        if est_inv.diverged:
            raise BoundaryExtensionError(
                f"inverse tractor metric diverges at boundary point {y}"
            )
        gram_inv = np.asarray(est_inv.value)
        t_vec = tau_hat * gram_inv[0, 1:] / 2.0
        psi = tau_hat * gram_inv[0, 0]
        gamma_full = gram[1:, 1:] / tau_hat
        gamma_t = E.T @ gamma_full @ E
        gamma_t_inv = np.linalg.inv(gamma_t)

        full_basis = np.column_stack([E, t_vec])
        theta = np.linalg.inv(full_basis)
        B = np.zeros((m, m))
        B[0, 1:] = tau_hat * drho
        B[1 : n + 1, 1:] = theta[:n]
        B[n + 1, 0] = 1.0
        Binv = np.linalg.inv(B)
        gram_split = Binv.T @ gram @ Binv
        frames.append(BoundaryFrame(
            ladder, E, tau_hat, psi, gamma_t, gamma_t_inv, B, Binv, gram_split,
            abs(gram[0, 0]) / tau_hat,
        ))
    return frames


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


def curvature_blocks(
    calc: TractorCalculus, frames: Sequence[BoundaryFrame]
) -> list[CurvatureBlocks]:
    """Extrapolate the curvature of the metric tractor connection (the
    torsion-free modification of the tractor connection that is metric for
    L(tau), in the reference splitting) to the boundary along the frames'
    ladders, restrict its form indices tangentially, and extract the (V, W)
    blocks in the (beta; xi; sigma) splitting, one set per frame.

    Asserts the zero pattern (first row, last column and the corner), the
    gamma-skewness of W, and that the bottom-middle block is
    ``-2 tauhat V_ij^k gamma_kl``.
    """
    ests = boundary_limit(
        lambda p: curvature_of(metric_tractor_omega(calc, p, 1), 0)[..., 0],
        [frame.ladder for frame in frames],
    )
    out = []
    for frame, est in zip(frames, ests):
        n = frame.n
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
        out.append(CurvatureBlocks(
            frame, kappa_split, V, W,
            zero / scale, skew / scale, bottom / scale, est.scaled_error(),
        ))
    return out


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
    w_perturbation: float = 0.0,
) -> NormalizationReport:
    """Normalize the restricted metric tractor connection.

    Computes ``phi_ij = -W_ki^k_j/(n-2) + W_kr^k_s gamma^rs gamma_ij /
    (2(n-1)(n-2))``, assembles the lower-triangular contorsion with blocks
    ``-phi_il gamma^kl/(2 tauhat)`` and ``phi_ij``, and verifies the
    normalization: the contorsion is skew for the boundary tractor metric
    (so the connection stays metric), the distinguished line stays
    preserved, and the Ricci-type contraction of the induced quotient
    action vanishes.  ``w_perturbation`` injects a fault of that size into
    W to prove the detector fires.
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
    if w_perturbation:
        W[0, 1, 0, 1] += w_perturbation
        W[1, 0, 0, 1] -= w_perturbation

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
