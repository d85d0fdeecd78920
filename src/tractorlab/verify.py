"""Registry of proposition-level numerical checks and the harness running
them over a geometry and a sampling plan.

Each check evaluates residuals at seeded sample points (interior identities
are jet-exact and carry tight tolerances; extrapolated boundary limits get
looser ones).  An interior check draws its points as one ``(N, d)`` batch
and evaluates each quantity once on it, as a boundary check evaluates each
quantity once on its stacked ladders; per-point residuals are maxima over
the tensor axes (``_row_max``), and no runner loops over its points.  A
check that does not apply to a geometry is skipped with a reason; runtime
failures are captured as error reports, never thrown, so a suite always
completes -- the negative controls rely on that.  Residuals are scaled by
operand norms (``|residual| / (1 + |operands|)``) so the same tolerances
work across geometries.  A runner returns the facets of its statement by
name, as raw residuals or as fault flags (``diverged``), and the registry
gives a facet its own tolerance where it differs from the check's headline
one; :func:`run_suite` alone turns the facets into the headline residual and
names the worst one in a failed check's reason.  A boundary runner computes
its statement's limits itself and writes its facets and details directly;
it calls ``boundary`` only for what several checks share (frames,
curvature blocks, transversals, the second fundamental form, the
asymptotic metric form and the point functions).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import boundary as bd
from .affine import covariant_derivative, projective_change
from .extrapolate import (
    Ladder,
    boundary_ladder,
    boundary_ladders,
    boundary_limit,
    ladder_samples,
    richardson_limit,
    richardson_limits,
)
from .fields import (
    Geometry,
    GeometryError,
    TensorField,
    value_dot,
    value_inv,
    value_matmul,
    value_matvec,
    value_outer,
    value_vecmat,
)
from .jets import (
    PoleError,
    jet_einsum,
    jet_function,
    jet_gradient,
    jet_inverse,
    jet_mul,
    jet_space,
)
from .tractor import (
    TractorCalculus,
    TractorValue,
    bgg_split_metricity,
    curvature_of,
    l_tau,
    metric_tractor_curvature_blocks,
    metric_tractor_omega,
    polynomial_tractor_section,
    s2t_slots,
    standard_curvature_blocks,
    std_tractor_derivative,
    tractor_metric_inverse,
)

__all__ = ["SamplingPlan", "Check", "CheckReport", "registry", "run_suite"]


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic sampling configuration for a suite run."""

    seed: int = 0
    interior_points: int = 20
    boundary_points: int = 5
    eps0: float = 0.05
    levels: int = 6
    ode_step: float = 1e-3
    ode_horizon: float = 0.2

    def __post_init__(self):
        valid = {
            "seed": self.seed >= 0,
            "eps0": 0 < self.eps0 < math.inf,
            "levels": self.levels >= 2,
            "ode_step": 0 < self.ode_step < math.inf,
            "ode_horizon": 0 < self.ode_horizon < math.inf,
            "interior_points": self.interior_points >= 1,
            "boundary_points": self.boundary_points >= 1,
        }
        bad = [f"{k} = {getattr(self, k)!r}" for k, ok in valid.items() if not ok]
        if valid["ode_step"] and valid["ode_horizon"]:
            # the 4th-order differences of geodesic_residual and the five
            # collar parameters of lem-2.4 need 4 RK4 steps
            steps = self.ode_horizon / self.ode_step
            if not (math.isfinite(steps) and round(steps) >= 4):
                bad.append(f"ode_horizon / ode_step = {steps!r}")
        if bad:
            raise ValueError(
                "invalid sampling plan (" + ", ".join(bad) + "): eps0, ode_step "
                "and ode_horizon must be finite and > 0, ode_horizon / ode_step "
                "finite and rounding to at least 4 RK4 steps, levels >= 2, the "
                "point counts >= 1 and the seed >= 0"
            )


@dataclass
class CheckReport:
    check_id: str
    paper_ref: str
    status: str  # pass | fail | skip | error
    max_residual: float
    tolerance: float
    n_points: int
    details: list = field(default_factory=list)
    reason: str = ""
    wall_time: float = 0.0

    def to_doc(self) -> dict:
        return {
            "id": self.check_id,
            "paper_ref": self.paper_ref,
            "status": self.status,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "n_points": self.n_points,
            "details": self.details,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class Check:
    """One proposition-level verification.

    ``run`` returns ``(facets, n_points, details)``.  ``facets`` maps each
    facet's name to its residuals (a number, or one per point or ladder) or
    to a fault flag, a boolean that fails the check when set.  A facet is
    held to its entry in ``facet_tolerances``, else to ``tolerance``.
    """

    id: str
    paper_ref: str
    tolerance: float
    applicable: Callable[[Geometry, "_Session"], tuple[bool, str]]
    run: Callable[[Geometry, SamplingPlan, np.random.Generator, "_Session"], tuple]
    facet_tolerances: dict[str, float] = field(default_factory=dict)


#: The checks that integrate geodetic transversals: a suite running more
#: than one integrates all their curves together (:meth:`_Session.transversals`).
_TRANSVERSAL_CHECKS = ("lem-2.4-transversal", "prop-2.5-mu")


def _check_rng(plan: SamplingPlan, index: int) -> np.random.Generator:
    """The generator of the check at registry ``index``.  Seeded by the
    index, so a check samples the same points alone as in the full suite,
    and a session can draw a later check's points before that check runs."""
    return np.random.default_rng([plan.seed, index])


class _Session:
    """Per-geometry state shared between checks of one suite run: the placed
    ladders, the probe verdicts, ``calc``, the :class:`TractorCalculus` of
    the running check (:func:`run_suite` gives each check its own), and the
    transversals integrated ahead for later checks.

    ``transversal_checks`` holds the ``(registry index, check)`` of the
    transversal checks the suite runs, and ``index`` the registry index of
    the running check; both are set by :func:`run_suite`.  A session built
    without them integrates each check's transversals alone.  The curves
    integrated ahead live until their check reads them, within one suite:
    8 curves of 201 samples take about 0.1 MB."""

    def __init__(
        self,
        geom: Geometry,
        plan: SamplingPlan,
        transversal_checks: Sequence[tuple[int, Check]] = (),
    ):
        self.geom = geom
        self.plan = plan
        self.calc = self._probe_calc = TractorCalculus(geom)
        self.index: int | None = None
        self._probe: dict[str, tuple[bool, str]] = {}
        self._ladders: dict[tuple, Ladder] = {}
        self._transversal_checks = list(transversal_checks)
        self._curves: dict[tuple, bd.TransversalCurve] = {}

    def interior(self, rng, count=None) -> np.ndarray:
        """Sample interior points as one ``(N, d)`` batch: an interior
        check evaluates each quantity once, on all its points together."""
        return self.geom.interior_points(count or self.plan.interior_points, rng)

    def ladders(self, rng, count=None):
        """Sample boundary points and return the plan's ladder at each; the
        points not placed yet in this session are placed together
        (:func:`boundary_ladders`)."""
        ys = self.geom.boundary_points(count or self.plan.boundary_points, rng)
        new = {}
        for y in ys:
            key = tuple(y.tolist())
            if key not in self._ladders:
                new.setdefault(key, y)
        if new:
            placed = boundary_ladders(
                self.geom, list(new.values()), eps0=self.plan.eps0, levels=self.plan.levels
            )
            self._ladders.update(zip(new, placed))
        return [self.ladder(y) for y in ys]

    def ladder(self, y: np.ndarray):
        """The plan's ladder at a boundary point ``(d,)``, placed once per
        session: every limit taken at the point runs on it, whichever check
        (or probe) samples the point."""
        key = tuple(y.tolist())
        hit = self._ladders.get(key)
        if hit is None:
            hit = boundary_ladder(
                self.geom, y, eps0=self.plan.eps0, levels=self.plan.levels
            )
            self._ladders[key] = hit
        return hit

    def transversals(self, rng) -> tuple[list[Ladder], list[bd.TransversalCurve]]:
        """The ladders of a transversal check, its generator ``rng``'s first
        draw, and the geodetic transversals launched from them.

        A row of a batch of curves gets the bits it gets alone, so the first
        transversal check of a suite also draws the ladders of the later
        applicable ones, each from the generator :func:`run_suite` will give
        it, and integrates every curve in one batch; a later check reads its
        rows.  When that batch raises, each check integrates its own curves
        alone, so every error is the one the check meets alone.
        """
        ladders = self._transversal_ladders(rng)
        if all(ladder.y in self._curves for ladder in ladders):
            return ladders, [self._curves.pop(ladder.y) for ladder in ladders]
        try:
            later = [
                lad for i, check in self._transversal_checks
                if i > self.index and check.applicable(self.geom, self)[0]
                for lad in self._transversal_ladders(_check_rng(self.plan, i))
            ]
            curves = self._integrate(ladders + later) if later else None
        except Exception:
            # run_suite makes any exception a check's error, so whatever the
            # batch raises is left for the check that meets it alone
            curves = None
        if curves is None:
            return ladders, self._integrate(ladders)
        own = len(ladders)
        self._curves.update((lad.y, curve) for lad, curve in zip(later, curves[own:]))
        return ladders, curves[:own]

    def _transversal_ladders(self, rng) -> list[Ladder]:
        return self.ladders(rng, min(self.plan.boundary_points, 4))

    def _integrate(self, ladders) -> list[bd.TransversalCurve]:
        plan = self.plan
        return bd.geodetic_transversals(
            self.calc, ladders, step=plan.ode_step, horizon=plan.ode_horizon
        )

    def probe_nondegenerate(self) -> tuple[bool, str]:
        hit = self._probe.get("nondegenerate")
        if hit is None:
            rng = np.random.default_rng(self.plan.seed)
            p = self.geom.interior_points(1, rng)  # a batch of one
            calc = self._probe_calc
            Pv = calc.levi_civita_splitting.pack.dense("schouten", p, 0)[..., 0, 0]
            scale = float(np.max(np.abs(Pv))) + 1e-30
            ok = abs(np.linalg.det(Pv / scale)) > 1e-8
            hit = (ok, "" if ok else "degenerate boundary geometry")
            self._probe["nondegenerate"] = hit
        return hit

    def probe_compact(self) -> tuple[bool, str]:
        hit = self._probe.get("compact")
        if hit is None:
            rng = np.random.default_rng(self.plan.seed)
            y = self.geom.boundary_points(1, rng)[0]
            reason = "geometry fails the projective-compactness probes"
            calc = self._probe_calc
            try:
                ladders = [self.ladder(y)]
                (est,) = boundary_limit(lambda p: bd.hat_christoffels(calc, p), ladders)
                facets, _ = _defining_density(calc, ladders)
                ok = (not est.diverged) and not facets["not_a_defining_density"]
            except Exception as err:  # any failure means "not compact"
                ok = False
                reason += f" ({type(err).__name__}: {err})"
            hit = (ok, "" if ok else reason)
            self._probe["compact"] = hit
        return hit


# -- applicability ingredients -------------------------------------------------


def _needs(
    alpha: float | None = None,
    min_dim: int = 3,
    nondegenerate: bool = False,
    compact: bool = False,
):
    def applicable(geom: Geometry, session: _Session) -> tuple[bool, str]:
        if alpha is not None and abs(geom.alpha - alpha) > 1e-12:
            return False, f"requires alpha = {alpha:g}, geometry has {geom.alpha:g}"
        if geom.dim < min_dim:
            return False, f"requires dim >= {min_dim}, geometry has {geom.dim}"
        if nondegenerate:
            ok, reason = session.probe_nondegenerate()
            if not ok:
                return False, reason
        if compact:
            ok, reason = session.probe_compact()
            if not ok:
                return False, reason
        return True, ""

    return applicable


def _scaled(residual: float, scale: float) -> float:
    return residual / (1.0 + scale)


def _row_max(x: np.ndarray) -> np.ndarray:
    """The largest ``|x|`` over the tensor axes of a value array at a batch
    of points (batch axis last): one number per point."""
    x = np.abs(x)
    return x.reshape(-1, x.shape[-1]).max(axis=0)


def _point_details(pts: np.ndarray, **columns) -> list[dict]:
    """One detail per point of the batch ``pts``: the point, then its entry
    of each column (an array with one entry per point, or one value for
    all)."""
    rows = {k: np.broadcast_to(v, len(pts)).tolist() for k, v in columns.items()}
    return [
        {"point": p, **{k: v[i] for k, v in rows.items()}}
        for i, p in enumerate(pts.tolist())
    ]


def _columns(details: list[dict], *keys: str) -> dict:
    """Facets read off the details: each key's values, from those carrying it."""
    return {k: [d[k] for d in details if k in d] for k in keys}


def _per_ladder(ladders, ests, judge):
    """Judge each finite limit of the estimates ``ests``, one per ladder (a
    :func:`boundary_limit` of the ladders): ``judge(k, est)`` gets the
    ladder's index and its estimate and returns ``(facets, detail)``.
    Returns the facets, each with one value per judged ladder and led by the
    fault flag ``diverged``, and the per-ladder details, each led by its
    point; a diverged ladder's detail is ``{"point", "diverged": True}``."""
    facets = {"diverged": False}
    details = []
    for k, (ladder, est) in enumerate(zip(ladders, ests)):
        if est.diverged:
            facets["diverged"] = True
            details.append({"point": list(ladder.y), "diverged": True})
            continue
        found, detail = judge(k, est)
        for name, value in found.items():
            facets.setdefault(name, []).append(value)
        details.append({"point": list(ladder.y), **detail})
    return facets, details


# -- check runners ---------------------------------------------------------------


def _run_extend(geom, plan, rng, session):
    calc = session.calc
    sigma = calc.metricity_field()
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    scalar = boundary_limit(lambda p: bd.scalar_curvature(calc, p), ladders)
    metricity = boundary_limit(
        lambda p: bgg_split_metricity(calc, sigma, calc.reference, p, 0).values(),
        ladders,
    )
    details = [{
        "point": list(ladder.y),
        "scalar_limit": None if est_s.diverged else float(est_s.value),
        "scalar_extrapolation_error": est_s.scaled_error(),
        "metricity_tractor_extrapolation_error": est_t.scaled_error(),
    } for ladder, est_s, est_t in zip(ladders, scalar, metricity)]
    diverged = any(est.diverged for est in scalar + metricity)
    facets = {"diverged": diverged, **_columns(
        details, "scalar_extrapolation_error", "metricity_tractor_extrapolation_error"
    )}
    return facets, len(ladders), details


def _run_dense(geom, plan, rng, session):
    n = geom.dim - 1
    calc = session.calc
    gfield = geom.metric_field()

    def slots(p):
        ginv = value_inv(gfield.dense(p, 0)[..., 0])
        rv, grad = geom.rho_and_drho(p)
        rv2 = np.float_power(rv, 2)
        f1 = ginv / rv
        f2 = value_matvec(ginv, grad) / rv2
        f3 = bd.schouten_trace(calc, p) / (n + 1) + value_dot(
            value_vecmat(grad, ginv), grad
        ) / (4 * rv2)
        return np.concatenate(
            [f1.reshape((-1,) + f2.shape[1:]), f2, np.asarray(f3)[None]]
        )

    def judge(k, est):
        limit = float(np.asarray(est.value)[-1])
        detail = {"extrapolation_error": est.scaled_error(), "vanishing_combination_limit": limit}
        return {**detail, "vanishing_combination_limit": abs(limit)}, detail

    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    facets, details = _per_ladder(ladders, boundary_limit(slots, ladders), judge)
    return facets, len(ladders), details


def _run_prop23_h(geom, plan, rng, session):
    n = geom.dim - 1
    calc = session.calc
    gfield = geom.metric_field()

    def h23(p):
        gv = gfield.dense(p, 0)[..., 0]
        gP = bd.schouten_trace(calc, p)
        rho, grad = geom.rho_and_drho(p)
        return rho * gv + (n + 1) / (4 * rho * gP) * value_outer(grad)

    def judge(k, est):
        E = bases[k]
        tang = E.T @ np.asarray(est.value) @ E
        min_eig = float(np.min(np.abs(np.linalg.eigvalsh(tang))))
        error = {"extrapolation_error": est.scaled_error()}
        return {**error, "tangentially_degenerate": min_eig < 1e-6}, {
            **error, "tangential_min_eig": min_eig,
        }

    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    bases = bd.tangential_basis(geom, np.array([ladder.y for ladder in ladders]))
    facets, details = _per_ladder(ladders, boundary_limit(h23, ladders), judge)
    return facets, len(ladders), details


def _run_transversal(geom, plan, rng, session):
    ladders, curves = session.transversals(rng)
    grads = geom.rho_and_drho(np.array([curve.y for curve in curves]))[1].T
    details = [{
        "point": list(curve.y),
        "drho_pairing_defect": abs(float(grad @ curve.mu0) - 1.0),
        "geodesic_residual": curve.geodesic_residual(),
    } for curve, grad in zip(curves, grads)]
    # the collar map (boundary point, t) -> point at five parameters across
    # the curves, each at its nearest RK4 sample, must be injective on them
    ts = curves[0].ts
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0]) * ts[-1]
    ks = [min(int(round(t / (ts[1] - ts[0]))), len(ts) - 1) for t in grid]
    rows = np.concatenate([curve.points[ks] for curve in curves])
    pairs = np.triu_indices(len(rows), 1)
    gaps = np.max(np.abs(rows[pairs[0]] - rows[pairs[1]]), axis=-1)
    separation = float(np.nanmin(gaps))
    if separation <= 0.0:

        def row(r):  # the (boundary point, t) of a row
            return curves[r // len(grid)].y, float(grid[r % len(grid)])

        first = int(np.nanargmin(gaps))
        raise GeometryError(
            f"collar is not injective: rows {row(pairs[0][first])} and "
            f"{row(pairs[1][first])} collide"
        )
    details.append({"collar_min_separation": separation})
    return _columns(details, "drho_pairing_defect", "geodesic_residual"), len(ladders), details


def _run_mu(geom, plan, rng, session):
    n = geom.dim - 1
    calc = session.calc
    gfield = geom.metric_field()
    ladders, curves = session.transversals(rng)
    diverged, errors, defects, extrapolated, details = False, [], [], [], []

    # rho^2 g(mu, mu) at every tenth RK4 sample of each curve and at the
    # points where it meets its ladder's levels, all curves in one batch
    located = [curve.at_rho(lad.eps) for lad, curve in zip(ladders, curves)]
    ks = np.arange(5, len(curves[0].ts), 10)
    points = np.concatenate([c.points[ks] for c in curves] + [x for x, _ in located])
    mus = np.concatenate([c.mus[ks] for c in curves] + [v for _, v in located])
    gv = gfield.dense(points, 0)[..., 0]
    rho2 = np.float_power(geom.rho_value(points), 2)
    values = rho2 * value_dot(value_vecmat(mus.T, gv), mus.T)
    along = values[: len(curves) * len(ks)].reshape(len(curves), len(ks))
    located_values = np.split(values[len(curves) * len(ks):], len(curves))
    predictions = boundary_limit(
        lambda p: -(n + 1) / (4.0 * bd.schouten_trace(calc, p)), ladders
    )
    for ladder, samples, at_levels, est_rhs in zip(
        ladders, along, located_values, predictions
    ):
        variation = float(samples.max() - samples.min())
        est = richardson_limit(at_levels)
        if est.diverged or est_rhs.diverged:
            diverged = True
            details.append({"point": list(ladder.y), "diverged": True})
            continue
        errors.append(est.error)
        defects.append(abs(float(est.value) - float(est_rhs.value)))
        extrapolated.append(float(est.value))
        details.append({
            "point": list(ladder.y),
            "variation_along_curve": variation,
            "extrapolated_value": float(est.value),
            "schouten_trace_prediction": float(est_rhs.value),
        })
    cross = (max(extrapolated) - min(extrapolated)) if extrapolated else 0.0
    facets = {
        "diverged": diverged, "curve_limit_error": errors, "prediction_defect": defects,
        **_columns(details, "variation_along_curve"), "cross_transversal_variation": cross,
    }
    details.append({"cross_transversal_variation": cross})
    return facets, len(ladders), details


def _run_s_const(geom, plan, rng, session):
    calc = session.calc
    ladders = session.ladders(rng, max(plan.boundary_points, 5))

    def judge(k, est):
        return {"extrapolation_error": est.scaled_error()}, {"scalar_limit": float(est.value)}

    ests = boundary_limit(lambda p: bd.scalar_curvature(calc, p), ladders)
    facets, details = _per_ladder(ladders, ests, judge)
    limits = _columns(details, "scalar_limit")["scalar_limit"]
    if limits:
        spread = max(limits) - min(limits)
        facets["spread"] = _scaled(spread, abs(np.mean(limits)))
        facets["boundary_S_vanishes"] = abs(np.mean(limits)) < 1e-6
        details.append({"spread": spread, "mean": float(np.mean(limits))})
    return facets, len(ladders), details


def _run_thm25_c(geom, plan, rng, session):
    ladders = session.ladders(rng, max(plan.boundary_points, 3))
    rep = bd.asymptotic_h(session.calc, ladders)
    # the smallest |eigenvalue| of h restricted to ker d(rho), at the ladders
    # whose h extends
    judged = [(lad, est) for lad, est in zip(ladders, rep.h_estimates) if not est.diverged]
    min_eigs = []
    if judged:
        ys = np.array([lad.y for lad, _ in judged])
        for (_, est), E in zip(judged, bd.tangential_basis(geom, ys)):
            tang = E.T @ np.asarray(est.value) @ E
            min_eigs.append(float(np.min(np.abs(np.linalg.eigvalsh(tang)))))
    details = [{
        "C": rep.C,
        "constructor_C": geom.constructor_C,
        "scalar_spread": rep.scalar_spread,
        "tangential_min_eigs": min_eigs,
        "status": rep.status,
    }]
    if rep.status != "ok":  # a diverged h sets the status too
        return {"asymptotic_form_fails": True}, len(ladders), details
    facets = {
        "h_extrapolation_error": [est.error for est in rep.h_estimates],
        "scalar_spread": rep.scalar_spread,
        "tangentially_degenerate": min(min_eigs) < 0.5,
    }
    if geom.constructor_C is not None:
        facets["C_recovery"] = abs(rep.C - geom.constructor_C)
    if facets["tangentially_degenerate"]:
        details.append({"reason": "tangential h below the nondegeneracy floor"})
    return facets, len(ladders), details


def _sff_defects(geom: Geometry, sff: bd.SecondFundamentalForm, rng) -> dict:
    """The two well-definedness defects of the representative ``sff``,
    relative to its size: a projective change of the connection by a
    constant one-form ``ups`` leaves its tangential restriction unchanged,
    and replacing rho by ``exp(f) rho`` with linear ``f`` (coefficients
    ``fcoef``, which change the class connection by ``df/alpha``) rescales
    it by the conformal factor ``exp(f(y))``.  Draws ``ups``, then
    ``fcoef``, from ``rng``."""
    d = geom.dim
    E, tang, gamma0, rho2 = sff.basis, sff.tangential, sff.gamma, sff.rho2
    scale = float(np.max(np.abs(tang))) + 1e-30
    ups = rng.uniform(-0.8, 0.8, size=d)
    tang_proj = E.T @ bd._covariant_hessian(rho2, projective_change(gamma0, ups)) @ E
    fcoef = rng.uniform(-0.4, 0.4, size=d + 1)
    space2 = jet_space(d, 2)
    f = np.zeros(space2.ncoeff)
    f[0] = fcoef[0] + fcoef[1:] @ np.asarray(sff.point)
    f[1 : 1 + d] = fcoef[1:]
    rho_new = jet_mul(jet_function("exp", f, space2), rho2, space2)
    gamma_new = projective_change(gamma0, fcoef[1:] / geom.alpha)
    tang_new = E.T @ bd._covariant_hessian(rho_new, gamma_new) @ E
    factor = math.exp(f[0])
    return {
        "conformal_factor_defect": float(np.max(np.abs(tang_new - factor * tang)))
        / (scale * max(factor, 1.0)),
        "projective_change_defect": float(np.max(np.abs(tang_proj - tang))) / scale,
    }


def _run_pff(geom, plan, rng, session):
    alpha = geom.alpha
    pack = session.calc.levi_civita_splitting.pack
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    sffs = bd.second_fundamental_form(session.calc, ladders)
    # every form draws from rng in ladder order before any limit, diverged
    # ladders included
    sff_defects = [_sff_defects(geom, sff, rng) for sff in sffs]

    def lhs(p):
        Pv = pack.dense("schouten", p, 0)[..., 0]
        rho, grad = geom.rho_and_drho(p)
        return rho * Pv + (alpha - 1) / alpha**2 / rho * value_outer(grad)

    def judge(k, est):
        sff = sffs[k]
        target = sff.full / alpha
        scale = float(np.max(np.abs(target)))
        gap = float(np.max(np.abs(np.asarray(est.value) - target)))
        defects = sff_defects[k]
        eigs = np.linalg.eigvalsh(0.5 * (sff.tangential + sff.tangential.T))
        return {"schouten_asymptotics_gap": _scaled(gap, scale), **defects}, {
            "schouten_asymptotics_gap": gap,
            **defects,
            "tangential_min_abs_eig": float(np.min(np.abs(eigs))),
        }

    facets, details = _per_ladder(ladders, boundary_limit(lhs, ladders), judge)
    return facets, len(ladders), details


def _run_totally_geodesic(geom, plan, rng, session):
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    sffs = bd.second_fundamental_form(session.calc, ladders)
    details = [
        {"point": list(lad.y), "tangential_sff_norm": float(np.abs(sff.tangential).max())}
        for lad, sff in zip(ladders, sffs)
    ]
    return _columns(details, "tangential_sff_norm"), len(ladders), details


def _run_h_vs_sff(geom, plan, rng, session):
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    rep = bd.asymptotic_h(session.calc, ladders)
    if rep.status != "ok":
        return {"asymptotic_form_fails": True}, len(ladders), [{"status": rep.status}]
    gaps, details = [], []
    sffs = bd.second_fundamental_form(session.calc, ladders)
    for ladder, h_est, sff in zip(ladders, rep.h_estimates, sffs):
        target = -2.0 * rep.C * sff.full
        scale = float(np.max(np.abs(target)))
        gap = float(np.max(np.abs(np.asarray(h_est.value) - target)))
        gaps.append(_scaled(gap, scale))
        details.append({"point": list(ladder.y), "h_vs_minus_2C_hessian": gap})
    return {"h_vs_minus_2C_hessian": gaps}, len(ladders), details


def _run_prop33(geom, plan, rng, session, *, order_one: bool):
    alpha = geom.alpha
    pack = session.calc.levi_civita_splitting.pack
    power = 1 if order_one else 2
    ladders = session.ladders(rng, min(plan.boundary_points, 3))

    def scaled_riemann(p):
        rho_power = np.float_power(geom.rho_value(p), power)
        return rho_power * pack.dense("riemann", p, 0)[..., 0]

    ests = boundary_limit(scaled_riemann, ladders)
    if order_one:
        # the Hessian with the extended connection at the ladders whose
        # limit is judged
        judged = [k for k, est in enumerate(ests) if not est.diverged]
        sffs = bd.second_fundamental_form(session.calc, [ladders[k] for k in judged])
        hessians = {k: sff.full for k, sff in zip(judged, sffs)}
    else:
        grads = geom.rho_and_drho(np.array([ladder.y for ladder in ladders]))[1].T

    def judge(k, est):
        if order_one:
            x = hessians[k]
        else:
            x = np.outer((1 - alpha) / alpha**2 * grads[k], grads[k])
        target = bd._delta_wedge(x)
        scale = float(np.max(np.abs(target)))
        gap = float(np.max(np.abs(np.asarray(est.value) - target)))
        key = "curvature_asymptotics_gap"
        return {key: _scaled(gap, scale)}, {key: gap}

    facets, details = _per_ladder(ladders, ests, judge)
    return facets, len(ladders), details


def _run_einstein(geom, plan, rng, session):
    """The Einstein-type adjustment ``Ric - (S0/(n+1)) g`` of the Ricci
    tensor, with ``S0`` the (locally constant) boundary scalar curvature,
    extends, and so does the curvature minus its universal singular part
    ``-(1/(2 rho^2)) delta^c_[a rho_b] rho_d - (1/(2 C rho)) delta^c_[a h_b]d``.

    The pointwise trace-free Ricci ``Ric - (S(x)/(n+1)) g`` differs from the
    adjustment by ``(S0 - S(x)) g/(n+1)``, whose transversal slot grows like
    ``1/rho`` wherever S has a transversal derivative at the boundary; it
    extends only in the Einstein-like case, so its divergence is a detail,
    not a facet.
    """
    calc = session.calc
    n = geom.dim - 1
    pack = calc.levi_civita_splitting.pack
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    hrep = bd.asymptotic_h(calc, ladders)
    if hrep.status != "ok":
        return {"diverged": True}, len(ladders), [{
            "status": f"no asymptotic form: {hrep.status}", "tracefree_errors": [],
            "tail_errors": [], "pointwise_tracefree_diverges": True,
        }]
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
            + bd._delta_wedge(value_outer(grad)) / (4.0 * np.float_power(rv, 2))
            + bd._delta_wedge(bd.h_form(calc, C, p)) / (4.0 * C * rv)
        )

    tf_ests = boundary_limit(adjusted_ricci, ladders)
    tail_ests = boundary_limit(tail, ladders)
    pointwise = boundary_limit(lambda p: bd.tracefree_ricci(calc, p), ladders)
    diverged = any(est.diverged for est in tf_ests + tail_ests)
    facets = {
        "diverged": diverged,
        "tracefree_errors": [est.scaled_error() for est in tf_ests],
        "tail_errors": [est.scaled_error() for est in tail_ests],
    }
    details = [{
        "status": "curvature tail diverges" if diverged else "ok",
        "tracefree_errors": facets["tracefree_errors"],
        "tail_errors": facets["tail_errors"],
        "pointwise_tracefree_diverges": any(est.diverged for est in pointwise),
    }]
    return facets, len(ladders), details


def _signature(x: np.ndarray) -> tuple[int, int]:
    """The numbers of positive and negative eigenvalues of a symmetric
    matrix."""
    eigs = np.linalg.eigvalsh(x)
    return int(np.sum(eigs > 0)), int(np.sum(eigs < 0))


def _run_bundle(geom, plan, rng, session):
    """The boundary tractor bundle at each ladder's point: the distinguished
    line is isotropic, the quotient metric gamma is half the second
    fundamental form, the tractor metric takes its block form in the
    (beta; xi; sigma) splitting, and its signature is gamma's plus one
    hyperbolic plane."""
    calc = session.calc
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    frames = bd.boundary_frame(calc, ladders)
    details = []
    for frame, sff in zip(frames, bd.second_fundamental_form(calc, ladders)):
        # hyperbolic beta-sigma pairing, tangential gamma block and the
        # -psi/(4 tauhat) correction on the beta line
        n = frame.n
        expected = np.zeros((n + 2, n + 2))
        expected[0, n + 1] = expected[n + 1, 0] = 0.5
        expected[0, 0] = -0.25 * frame.psi / frame.tau_hat
        expected[1:n + 1, 1:n + 1] = frame.tau_hat * frame.gamma_t
        scale = 1.0 + float(np.max(np.abs(expected)))
        gram_defect = float(np.max(np.abs(frame.gram_split - expected))) / scale
        half_hess = 0.5 * (sff.basis.T @ sff.full @ sff.basis)
        scale = 1.0 + float(np.max(np.abs(half_hess)))
        sff_gap = float(np.max(np.abs(frame.gamma_t - half_hess))) / scale
        pos, neg = _signature(frame.gamma_t)
        singular_values = np.linalg.svd(frame.gamma_t, compute_uv=False)
        details.append({
            "point": list(frame.point),
            "isotropy_T1": frame.isotropy_T1,
            "tract_met_split_defect": gram_defect,
            "quotient_vs_sff": sff_gap,
            "signature_ok": _signature(frame.gram_split) == (pos + 1, neg + 1),
            "gamma_min_singular_value": float(np.min(np.abs(singular_values))),
        })
    facets = _columns(details, "isotropy_T1", "tract_met_split_defect", "quotient_vs_sff")
    facets["signature_wrong"] = not all(d["signature_ok"] for d in details)
    return facets, len(ladders), details


def _run_splitids(geom, plan, rng, session):
    calc = session.calc
    pts = session.interior(rng, min(plan.interior_points, 10))
    pack = calc.levi_civita_splitting.pack
    # The identities compare values, so the tractor quantities are
    # evaluated at jet order 0; only rho needs its gradient.
    Pinv = jet_inverse(pack.dense("schouten", pts, 0), jet_space(geom.dim, 0))[..., 0]
    rho, grad = geom.rho_and_drho(pts)
    Linv = tractor_metric_inverse(l_tau(calc, pts, 0, calc.reference))
    tau_hat = calc.tau_hat_dense(pts, 0)[..., 0]
    top, mid, bot = (x[..., 0] for x in s2t_slots(Linv))
    # slot identifications of the inverse tractor metric
    t_vec = tau_hat * mid * 0.5
    psi = tau_hat * bot
    # the three splitting identities
    gamma = bd.gamma_form(calc, pts)
    gap = np.max([
        _row_max(t_vec - bd.t_vector(calc, pts)),
        _row_max(np.abs(tau_hat * top - Pinv / rho) / (1 + np.abs(Pinv / rho))),
        np.abs(value_dot(t_vec, grad) - (1.0 - rho * psi)),
        _row_max(value_vecmat(t_vec, gamma) + 0.25 * psi * grad),
        _row_max(
            t_vec[:, None] * grad[None] + value_matmul(Pinv / rho, gamma)
            - np.eye(geom.dim)[..., None]
        ),
    ], axis=0)
    # boundary limit of t.drho -> 1
    def t_dot(pt):
        return value_dot(bd.t_vector(calc, pt), geom.rho_and_drho(pt)[1])

    def judge(k, est):
        return (
            {"t_dot_drho_defect": abs(float(est.value) - 1.0)},
            {"t_dot_drho_limit": float(est.value)},
        )

    ladders = session.ladders(rng, 2)
    limits = boundary_limit(t_dot, ladders)
    limit_facets, limit_details = _per_ladder(ladders, limits, judge)
    details = _point_details(pts, identity_residual=gap) + limit_details
    return {"identity_residual": gap, **limit_facets}, len(pts), details


def _prop43_terms(rho, grad, Phat, dPhat, hess2):
    """The right-hand side of ``rho grad_a P_bc`` in Proposition 4.3, term by
    term (values indexed ``[a, b, c]``): the Hessian of rho and the Schouten
    data of the rho-modified connection."""
    half = 0.5 * grad
    return (
        0.5 * hess2,
        grad[:, None, None] * Phat[None],
        half[None, :, None] * Phat[:, None],
        half[None, None, :] * Phat[:, :, None],
        rho * dPhat,
    )


def _prop43_lc_terms(rho, grad, phi, dphi, g, dS, n):
    """The Levi-Civita variant: ``phi`` is the trace-adjusted Schouten tensor
    ``P - S g/(n(n+1))`` and ``dS`` the gradient of the scalar curvature."""
    half = 0.5 * grad
    return (
        grad[:, None, None] * phi[None],
        half[None, :, None] * phi[:, None],
        half[None, None, :] * phi.swapaxes(0, 1)[:, :, None],
        rho * (dphi + g[None] * dS[:, None, None] * (1.0 / (n * (n + 1)))),
    )


def _run_prop43(geom, plan, rng, session):
    calc = session.calc
    d = geom.dim
    n = d - 1
    pts = session.interior(rng, plan.interior_points)
    lc_pack = calc.levi_civita_splitting.pack
    hat_pack = calc.reference.pack
    hat_conn = calc.hat
    gfield = geom.metric_field()

    def drho_eval(pt, k):
        return jet_gradient(geom.rho_dense(pt, k + 1), jet_space(d, k + 1))

    def phi_eval(pt, k):
        Sg = jet_mul(lc_pack.dense("scalar", pt, k), gfield.dense(pt, k), jet_space(d, k))
        return lc_pack.dense("schouten", pt, k) - Sg * (1.0 / (n * (n + 1)))

    drho_field = TensorField(geom.chart, "d", drho_eval, name="drho")
    hess2_field = covariant_derivative(covariant_derivative(drho_field, hat_conn), hat_conn)
    phi_field = TensorField(geom.chart, "dd", phi_eval, name="phi")
    dphi_field = covariant_derivative(phi_field, hat_conn)

    rho, grad = geom.rho_and_drho(pts)
    lhs = rho * lc_pack.dense("schouten_derivative", pts, 0)[..., 0]
    scale = _row_max(lhs)
    rhs = sum(_prop43_terms(
        rho, grad, hat_pack.dense("schouten", pts, 0)[..., 0],
        hat_pack.dense("schouten_derivative", pts, 0)[..., 0],
        hess2_field.dense(pts, 0)[..., 0],
    ))
    gap = _row_max(lhs - rhs)
    dS = np.moveaxis(lc_pack.dense("scalar", pts, 1)[..., 1 : 1 + d], -1, 0)
    rhs2 = sum(_prop43_lc_terms(
        rho, grad, phi_field.dense(pts, 0)[..., 0], dphi_field.dense(pts, 0)[..., 0],
        gfield.dense(pts, 0)[..., 0], dS, n,
    ))
    gap2 = _row_max(lhs - rhs2)
    facets = {
        "identity_residual": _scaled(gap, scale),
        "variant_residual": _scaled(gap2, scale),
    }
    details = _point_details(pts, identity_residual=gap, variant_residual=gap2)
    return facets, len(pts), details


def _not_parallel(hyp: float) -> str:
    return f"derivative of L(tau) does not vanish at the boundary (|tau grad P| ~ {hyp:.2e})"


def _run_thm41a(geom, plan, rng, session):
    """Where the tractor derivative of L(tau) vanishes along the boundary,
    the restricted standard tractor connection is already normal: normality
    is judged at the ladders where the hypothesis holds, and the check skips
    when it holds at none.

    The hypothesis is the vanishing of the limit of ``tau grad_a P_bc``, the
    derivative's only slot; it is equivalent to the vanishing of the
    boundary trace-free Ricci tensor, and both norms are reported so the
    equivalence itself is tested.
    """
    calc = session.calc
    n = geom.dim - 1
    pack = calc.levi_civita_splitting.pack
    ladders = session.ladders(rng, 2)

    def bottom_slot(p):
        tau = calc.tau.dense(p, 0)[..., 0]
        return tau * pack.dense("schouten_derivative", p, 0)[..., 0]

    hyps = [est.norm() for est in boundary_limit(bottom_slot, ladders)]
    tfs = [est.norm() for est in boundary_limit(lambda p: bd.tracefree_ricci(calc, p), ladders)]
    # normality at the ladders where the hypothesis holds: (t1, Ricci) by ladder
    held = [lad for lad, hyp in zip(ladders, hyps) if hyp <= 1e-6]
    if not held:
        raise _SkipCheck(_not_parallel(hyps[0]))
    frames = bd.boundary_frame(calc, held)
    kappas = boundary_limit(
        lambda p: curvature_of(calc.omega(calc.reference, p, 1), 0)[..., 0], held
    )
    normal = {}
    for frame, est in zip(frames, kappas):
        kappa_split = frame.tangential_kappa(np.asarray(est.value))
        W = kappa_split[:, :, 1:n + 1, 1:n + 1]
        scale = 1.0 + float(np.max(np.abs(kappa_split)))
        t1 = float(np.max(np.abs(kappa_split[:, :, :, n + 1]))) / scale
        ricci = float(np.max(np.abs(np.einsum("kjkl->jl", W)))) / scale
        normal[frame.ladder] = t1, ricci
    details = []
    for ladder, hyp, tf in zip(ladders, hyps, tfs):
        equivalence_ok = (hyp <= 1e-5) == (tf <= 1e-5)
        if ladder in normal:
            t1, ricci = normal[ladder]
            details.append({
                "point": list(ladder.y), "hypothesis_norm": hyp, "tracefree_ricci_norm": tf,
                "t1_defect": t1, "normality_residual": ricci, "equivalence_ok": equivalence_ok,
            })
        else:
            details.append({
                "point": list(ladder.y), "skipped": _not_parallel(hyp),
                "equivalence_ok": equivalence_ok,
            })
    facets = _columns(details, "hypothesis_norm", "t1_defect", "normality_residual")
    facets["equivalence_fails"] = not all(d["equivalence_ok"] for d in details)
    return facets, len(ladders), details


def _run_thm43_metric(geom, plan, rng, session):
    calc = session.calc
    pts = session.interior(rng, 3)
    # seven section pairs (s1, s2) at each point, drawn point by point: a
    # section does not depend on its point, so they come from one batch that
    # repeats each point 14 times, whose row 14 i + 2 j + k is section k of
    # pair j at point i
    drawn = polynomial_tractor_section(calc, np.repeat(pts, 14, axis=0), 1, rng).data
    pairs = np.ascontiguousarray(
        drawn.reshape(drawn.shape[:1] + (len(pts), 7, 2, -1)).transpose(2, 3, 0, 1, 4)
    )
    # the identity compares values of first derivatives, so the sections
    # and L(tau) are built at jet order 1, and the metric tractor
    # connection matrices, built once for all fourteen sections, at order 0
    L = l_tau(calc, pts, 1, calc.reference)
    G = L.data
    lower = jet_space(geom.dim, 0)
    omega = metric_tractor_omega(calc, pts, 0)
    gap = 0.0
    for pair in pairs:
        s1, s2 = (TractorValue(x, L.space, "u", 0, calc.reference) for x in pair)
        Ds1 = std_tractor_derivative(calc, s1, pts, omega).data
        Ds2 = std_tractor_derivative(calc, s2, pts, omega).data
        # d_a L(s1, s2) against L(D_a s1, s2) + L(s1, D_a s2)
        Ls1 = jet_einsum("ij,i->j", G, s1.data, L.space)
        lhs = jet_gradient(jet_einsum("j,j->", Ls1, s2.data, L.space), L.space)
        rhs = jet_einsum(
            "aj,j->a", jet_einsum("ij,ai->aj", G, Ds1, lower), s2.data, lower
        ) + jet_einsum("j,aj->a", Ls1, Ds2, lower)
        gap = np.maximum(gap, _row_max(lhs[..., 0] - rhs[..., 0]))
    facets = {"compatibility_residual": _scaled(gap, _row_max(L.values()))}
    details = _point_details(pts, compatibility_residual=gap, pairs=len(pairs))
    return facets, len(pts), details


def _run_thm43_torsion(geom, plan, rng, session):
    calc = session.calc
    pts = session.interior(rng, 3)
    kap = curvature_of(metric_tractor_omega(calc, pts, 1), 0)[..., 0]
    blocks = metric_tractor_curvature_blocks(calc, pts, 0)[..., 0]
    scale = _row_max(kap)
    torsion = _row_max(kap[:, :, 1:, 0])
    corner = _row_max(kap[:, :, 0, 0])
    block_gap = _row_max(kap - blocks)
    facets = {
        "torsion_block": _scaled(torsion, scale),
        "scalar_block": _scaled(corner, scale),
        "block_formula_vs_commutator": _scaled(block_gap, scale),
    }
    details = _point_details(
        pts, torsion_block=torsion, scalar_block=corner,
        block_formula_vs_commutator=block_gap,
    )
    return facets, len(pts), details


def _run_thm44(geom, plan, rng, session):
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    frames = bd.boundary_frame(session.calc, ladders)
    details = []
    for ladder, blocks in zip(ladders, bd.curvature_blocks(session.calc, frames)):
        rep = bd.normalize_boundary_connection(blocks)
        fault = bd.normalize_boundary_connection(blocks, w_perturbation=1.0)
        details.append({
            "point": list(ladder.y),
            "zero_pattern": blocks.zero_pattern_defect,
            "gamma_skewness": blocks.gamma_skew_defect,
            "bottom_middle_block": blocks.bottom_middle_defect,
            "contorsion_gram_skewness": rep.skew_defect,
            "normality_residual": rep.ricci_residual,
            "t1_preservation": rep.t1_preservation_defect,
            "fault_detector_residual": fault.ricci_residual,
        })
    facets = _columns(
        details, "zero_pattern", "gamma_skewness", "bottom_middle_block",
        "contorsion_gram_skewness", "normality_residual", "t1_preservation",
    )
    # the detector must fire on the injected fault at every point
    facets["detector_silent"] = not all(d["fault_detector_residual"] > 0.1 for d in details)
    return facets, len(ladders), details


def _run_weyl_traces(geom, plan, rng, session):
    pack = session.calc.levi_civita_splitting.pack
    eye = np.eye(geom.dim)
    pts = session.interior(rng, plan.interior_points)
    C, R, P, beta = (
        pack.dense(name, pts, 0)[..., 0] for name in ("weyl", "riemann", "schouten", "beta")
    )
    traces = np.concatenate([np.einsum("eaeb...->ab...", C), np.einsum("abee...->ab...", C)])
    back = (
        C + np.einsum("ca,be...->abce...", eye, P) - np.einsum("cb,ae...->abce...", eye, P)
        + np.einsum("ce,ab...->abce...", eye, beta)
    )
    facets = {
        "trace_free": _scaled(_row_max(traces), _row_max(R)),
        "reassembly": _scaled(_row_max(back - R), _row_max(R)),
    }
    return facets, len(pts), [{"points": len(pts)}]


def _run_bianchi(geom, plan, rng, session):
    pack = session.calc.levi_civita_splitting.pack
    pts = session.interior(rng, plan.interior_points)
    R = pack.dense("riemann", pts, 0)[..., 0]
    cyc = R + np.einsum("beca...->abce...", R) + np.einsum("eacb...->abce...", R)
    facets = {"cyclic_sum": _scaled(_row_max(cyc), _row_max(R))}
    return facets, len(pts), [{"points": len(pts)}]


def _run_equivariance(geom, plan, rng, session):
    calc = session.calc
    d = geom.dim
    pts = session.interior(rng, 3)
    coef = rng.uniform(-0.5, 0.5, size=(d, d + 1))

    def ups(points, order):
        # the affine one-form coef[:, 0] + coef[:, 1:] x as dense jets at a
        # batch of points
        out = np.zeros((d, len(points), jet_space(d, order).ncoeff))
        out[..., 0] = coef[:, :1] + value_matvec(coef[:, 1:], points.T)
        if order >= 1:
            out[..., 1 : 1 + d] = coef[:, None, 1:]
        return out

    s3 = calc.splitting(TensorField(geom.chart, "d", ups))
    nondegenerate, _ = session.probe_nondegenerate()
    # the routes compare values of a derivative: the section at jet order 1
    tv = polynomial_tractor_section(calc, pts, 1, rng)
    gap = 0.0
    for target in (calc.levi_civita_splitting, s3):
        route1 = calc.in_splitting(std_tractor_derivative(calc, tv, pts), target, pts)
        route2 = std_tractor_derivative(calc, calc.in_splitting(tv, target, pts), pts)
        gap = np.maximum(gap, _row_max(route1.values() - route2.values()))
    # instance matches: the closed-form components of L(tau), the
    # metricity tractor and its inverse (the inverse needs a
    # nondegenerate Schouten tensor, so the flat control skips it)
    gap_inst = _instance_matches(calc, pts) if nondegenerate else 0.0
    details = _point_details(pts, equivariance_gap=gap, instance_gap=gap_inst)
    return {"equivariance_gap": gap, "instance_gap": gap_inst}, len(pts), details


def _instance_matches(calc: TractorCalculus, pts: np.ndarray) -> np.ndarray:
    """Closed-form component checks of the three splitting-change instances,
    one gap per point of the batch ``pts``.

    The gaps compare values, so the tractor quantities are evaluated at jet
    order 0 and the closed forms on their ``[..., 0]`` slices; only rho
    needs its gradient.
    """
    geom = calc.geom
    n = geom.dim - 1
    order = 0
    rho, grad = geom.rho_and_drho(pts)
    tau_hat = calc.tau_hat_dense(pts, order)[..., 0]
    tau = calc.tau.dense(pts, order)[..., 0]
    P = calc.levi_civita_splitting.pack.dense("schouten", pts, order)[..., 0]
    g_jets = geom.metric_field().dense(pts, order)
    g = g_jets[..., 0]
    ginv = jet_inverse(g_jets, jet_space(geom.dim, order))[..., 0]
    grad2 = value_outer(grad)

    # L(tau) in the reference splitting
    G = l_tau(calc, pts, order, calc.reference).values()
    gaps = [
        np.abs(G[0, 0] - rho * tau_hat),
        _row_max(G[0, 1:] - 0.5 * grad * tau_hat),
        _row_max(G[1:, 1:] - (P * rho * tau_hat + grad2 * tau_hat / (4.0 * rho))),
    ]

    # the metricity tractor in the reference splitting
    H = bgg_split_metricity(calc, calc.metricity_field(), calc.reference, pts, order)
    _, mid, bot = (x[..., 0] for x in s2t_slots(H))
    gP = bd.schouten_trace(calc, pts)
    gq = value_dot(value_vecmat(grad, ginv), grad)
    expect_bot = gP / tau * (1.0 / (n + 1)) + gq / tau / (4.0 * rho * rho)
    gaps += [
        _row_max(mid - value_matvec(ginv, grad) * (-0.5) / rho / tau),
        np.abs(bot - expect_bot),
    ]

    # its inverse (the boundary metric tractor of the interior metric)
    Gp = tractor_metric_inverse(H).values()
    expect = tau_hat * (rho * g + (n + 1) / (4.0 * rho) / gP * grad2)
    gaps += [
        np.abs(Gp[0, 0] - tau_hat * rho * (n + 1) / gP),
        _row_max(Gp[0, 1:] - tau_hat * (0.5 * (n + 1)) / gP * grad),
        _row_max((Gp[1:, 1:] - expect) / (1 + np.abs(expect))),
    ]
    return np.max(gaps, axis=0)


def _run_curv_consistency(geom, plan, rng, session):
    calc = session.calc
    pts = session.interior(rng, 3)
    gap = 0.0
    for s in (calc.reference, calc.levi_civita_splitting):
        kap = curvature_of(calc.omega(s, pts, 1), 0)[..., 0]
        blocks = standard_curvature_blocks(calc, s, pts, 0)[..., 0]
        scale = _row_max(kap) + _row_max(blocks)
        gap = np.maximum(gap, _scaled(_row_max(kap - blocks), scale))
    details = _point_details(pts, commutator_vs_blocks=gap)
    return {"commutator_vs_blocks": gap}, len(pts), details


def _defining_density(calc: TractorCalculus, ladders) -> tuple[dict, list]:
    """The facets and details of ``tau/rho^(2/alpha)`` extending, nonzero,
    to the ladders' points: the numerical form of the parallel weight-2
    density extending by zero to a defining density precisely when the
    volume growth matches the compactness order (for order 2 the quotient is
    literally tau/rho).  Divergence (the flat control), a rough
    extrapolation (the conformally compact control, on the default plan)
    and a zero limit set the flag ``not_a_defining_density``, and so does a
    pole on any ladder, which leaves every limit and error NaN; the detail's
    reason names the last such fault.  Each ladder's tau samples are divided
    by its own levels' ``rho^(2/alpha)``."""
    limits, errors, reason = [], [], ""
    try:
        samples = ladder_samples(lambda p: calc.tau.dense(p, 0)[..., 0], ladders)
    except PoleError:
        samples = []
        limits = errors = [float("nan")] * len(ladders)
        reason = "pole while approaching the boundary"
    if samples:
        eps = np.array([lad.eps for lad in ladders])
        samples = np.asarray(samples) / np.float_power(eps, 2.0 / calc.geom.alpha)
    for est in richardson_limits(samples):
        limits.append(float(est.value))
        errors.append(est.error)
        if est.diverged:
            reason = "tau/rho diverges at the boundary"
        elif est.error / (1.0 + abs(est.value)) > 1e-5:
            reason = "tau/rho does not extrapolate smoothly"
        elif abs(est.value) < 1e-3:
            reason = "tau/rho has zero boundary limit"
    facets = {
        "not_a_defining_density": bool(reason),
        "extrapolation_error": [e / (1 + abs(v)) for e, v in zip(errors, limits)],
    }
    details = [{
        "points": [list(lad.y) for lad in ladders],
        "limits": limits,
        "errors": errors,
        "reason": reason,
    }]
    return facets, details


def _run_defining_density(geom, plan, rng, session):
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    facets, details = _defining_density(session.calc, ladders)
    return facets, len(ladders), details


def _run_rho_extends(geom, plan, rng, session):
    """The rho-modified connection extends at each ladder's point.  A
    diverged ladder carries the slope of ``log |Gamma|`` against ``log rho``
    (a slope <= -0.9 is the 1/rho signature of a missing projective
    compactification) and has no limit to judge; where the geometry has an
    exact closed-form extension, the gap between the two paths is a facet.
    """
    exact_hat = geom.exact_hat_christoffels
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    # the samples stay at hand for the divergence slope
    calc = session.calc
    samples = ladder_samples(lambda p: bd.hat_christoffels(calc, p), ladders)
    details = []
    for ladder, values, est in zip(ladders, samples, richardson_limits(samples)):
        slope = gap = None
        if est.diverged:
            norms = np.abs(values).reshape(len(values), -1).max(axis=1)
            slope = float(np.polyfit(np.log(ladder.eps), np.log(norms + 1e-300), 1)[0])
        elif exact_hat is not None:
            exact = exact_hat(np.array([ladder.y]), 0)[..., 0, 0]
            gap = float(np.max(np.abs(exact - est.value)))
        details.append({
            "point": list(ladder.y),
            "diverged": est.diverged,
            "loglog_slope": slope,
            "extrapolation_error": est.error,
            "dual_path_gap": gap,
        })
    facets = {
        "diverged": any(d["diverged"] for d in details),
        "extrapolation_error": [d["extrapolation_error"] for d in details if not d["diverged"]],
        "dual_path_gap": [d["dual_path_gap"] for d in details if d["dual_path_gap"] is not None],
    }
    return facets, len(ladders), details


class _SkipCheck(Exception):
    """Raised by a runner that discovers mid-run it cannot apply."""


# -- the registry ---------------------------------------------------------------


def registry() -> list[Check]:
    """The full catalog of checks, in fixed (report) order."""
    any_alpha = _needs()
    a2 = _needs(alpha=2.0)
    a2c = _needs(alpha=2.0, compact=True)
    a2cn = _needs(alpha=2.0, compact=True, nondegenerate=True)
    a1 = _needs(alpha=1.0)
    return [
        Check(
            "prop-2.1-extend",
            "The metricity solution and the scalar curvature extend smoothly "
            "to the boundary when the projective structure does.",
            1e-5, _needs(), _run_extend,
        ),
        Check(
            "prop-2.2-dense",
            "In the smooth splitting, g^ab/rho and g^ab rho_b/rho^2 extend "
            "and the trace combination g^ij P_ij/(n+1) + g^ij rho_i rho_j/"
            "(4 rho^2) extends with boundary value zero.",
            1e-5, a2c, _run_dense,
        ),
        Check(
            "prop-2.3-h",
            "rho g_ab + (n+1)/(4 rho) (g^ij P_ij)^-1 rho_a rho_b extends with "
            "tangentially nondegenerate boundary values.",
            1e-5, a2c, _run_prop23_h,
        ),
        Check(
            "lem-2.4-transversal",
            "Boundary vectors with d(rho) pairing one extend uniquely to "
            "geodetic transversals; the collar map is injective on samples.",
            1e-8, _needs(compact=True), _run_transversal,
            {"drho_pairing_defect": 1e-10},
        ),
        Check(
            "prop-2.5-mu",
            "rho^2 g(mu, mu) is constant along geodetic transversals and its "
            "boundary value is -(n+1)/4 (g^ij P_ij)^-1, constant along the "
            "boundary.",
            1e-5, a2c, _run_mu,
            {"variation_along_curve": 1e-6, "cross_transversal_variation": 1e-4},
        ),
        Check(
            "thm-2.5-S-const",
            "The boundary value of the scalar curvature is locally constant "
            "and nowhere vanishing.",
            1e-5, a2c, _run_s_const,
        ),
        Check(
            "thm-2.5-C",
            "The asymptotic form g = h/rho + C d(rho)^2/rho^2 holds with the "
            "constant C = -n(n+1)/(4 S) and tangentially nondegenerate h.",
            1e-5, a2c, _run_thm25_c, {"C_recovery": 1e-6},
        ),
        Check(
            "prop-3.1-pff",
            "rho P_ab + (alpha-1)/alpha^2 rho_a rho_b / rho extends with "
            "boundary value the second-fundamental-form representative "
            "(Hessian of rho)/alpha; the representative's conformal class is "
            "independent of the defining function and class connection.",
            1e-5, _needs(compact=True), _run_pff,
            {"conformal_factor_defect": 1e-6, "projective_change_defect": 1e-6},
        ),
        Check(
            "prop-3.2-i",
            "For asymptotic forms of order below two the boundary is totally "
            "geodesic (the tangential second fundamental form vanishes).",
            1e-5, a1, _run_totally_geodesic,
        ),
        Check(
            "prop-3.2-ii",
            "For order two with constant C the boundary value of h equals "
            "-2C times the Hessian of rho.",
            1e-5, a2c, _run_h_vs_sff,
        ),
        Check(
            "prop-3.3-i",
            "For order one, rho R extends with the boundary value built from "
            "the Hessian of rho.",
            1e-5, a1,
            lambda g, p, r, s: _run_prop33(g, p, r, s, order_one=True),
        ),
        Check(
            "prop-3.3-ii",
            "For order two, rho^2 R extends with boundary value the rank-one "
            "curvature tensor of d(rho) scaled by (1-alpha)/alpha^2.",
            1e-5, a2c,
            lambda g, p, r, s: _run_prop33(g, p, r, s, order_one=False),
        ),
        Check(
            "thm-3.3-einstein",
            "Order-two metrics are asymptotically Einstein: the Ricci tensor "
            "minus its boundary-constant trace part extends, as does the "
            "curvature minus its universal singular part.",
            1e-5, a2c, _run_einstein,
        ),
        Check(
            "prop-4.1-bundle",
            "The boundary restriction of the standard tractor bundle with "
            "the metric L(tau) is a conformal standard tractor bundle: the "
            "distinguished line is isotropic, the quotient metric is the "
            "second fundamental form (up to the tauhat/2 factor), and the "
            "tractor metric takes the expected block form.",
            1e-5, a2cn, _run_bundle,
            {"isotropy_T1": 1e-8, "tract_met_split_defect": 1e-7},
        ),
        Check(
            "prop-4.2-splitids",
            "The inverse tractor metric has slots (P^ab/(rho tauhat); "
            "2t^a/tauhat; psi/tauhat) and the three splitting identities "
            "hold; t^a rho_a approaches 1 at the boundary.",
            1e-8, a2cn, _run_splitids, {"t_dot_drho_defect": 1e-5},
        ),
        Check(
            "prop-4.3-identity",
            "rho grad_a P_bc equals its manifestly-extending form (Hessian "
            "of rho and smooth-connection Schouten data), exactly in the "
            "interior; likewise the Levi-Civita variant with the "
            "trace-adjusted Schouten tensor.",
            1e-8, a2c, _run_prop43,
        ),
        Check(
            "thm-4.1a-normal",
            "If the tractor derivative of L(tau) vanishes along the "
            "boundary, the restricted standard tractor connection is normal; "
            "the hypothesis is equivalent to the vanishing of the boundary "
            "trace-free Ricci tensor.",
            1e-6, _needs(alpha=2.0, min_dim=4, compact=True, nondegenerate=True),
            _run_thm41a,
        ),
        Check(
            "thm-4.3-metric",
            "The contorsioned tractor connection is compatible with the "
            "bundle metric L(tau) on random section pairs.",
            1e-6, a2cn, _run_thm43_metric,
        ),
        Check(
            "thm-4.3-torsionfree",
            "The metric tractor connection is torsion free (vanishing "
            "top-right curvature block) and its curvature matches the "
            "explicit block formula.",
            1e-6, a2cn, _run_thm43_torsion,
        ),
        Check(
            "thm-4.4-normality",
            "On the boundary the metric tractor curvature has the (V, W) "
            "block pattern with gamma-skew W; the normalization by phi "
            "yields a metric connection whose Ricci-type contraction "
            "vanishes, and the detector fires on an injected fault.",
            1e-5, _needs(alpha=2.0, min_dim=4, compact=True, nondegenerate=True),
            _run_thm44,
            {"contorsion_gram_skewness": 1e-6, "normality_residual": 1e-6},
        ),
        Check(
            "weyl-traces",
            "Projective Weyl curvature is trace free in both traces and the "
            "curvature decomposition reassembles the Riemann tensor.",
            1e-9, any_alpha, _run_weyl_traces,
        ),
        Check(
            "bianchi",
            "First Bianchi identity for torsion-free connections.",
            1e-9, any_alpha, _run_bianchi,
        ),
        Check(
            "splitting-equivariance",
            "The tractor derivative commutes with changes of splitting, and "
            "the closed-form component expressions of L(tau), the metricity "
            "tractor and its inverse hold in the smooth splitting.",
            1e-7, a2, _run_equivariance,
        ),
        Check(
            "tractor-curv-consistency",
            "The commutator curvature of the standard tractor connection "
            "equals the (Weyl, Cotton) block matrix in every splitting "
            "(this pins the Cotton sign).",
            1e-7, any_alpha, _run_curv_consistency,
        ),
        Check(
            "defining-density",
            "The canonical parallel density extends by zero to a defining "
            "density: tau/rho^(2/alpha) has a finite nonzero boundary limit.",
            1e-5, _needs(), _run_defining_density,
        ),
        Check(
            "rho-connection-extends",
            "The rho-modified connection extends smoothly to the boundary "
            "(and agrees with the exact closed-form extension when one "
            "exists).",
            1e-5, _needs(), _run_rho_extends, {"dual_path_gap": 1e-6},
        ),
    ]


def run_suite(
    geom: Geometry,
    ids: Sequence[str] | str = "all",
    plan: SamplingPlan | None = None,
) -> list[CheckReport]:
    """Run the selected checks against one geometry.

    Inapplicable checks are skipped with a reason; runner exceptions become
    error reports.  Deterministic for a fixed plan seed.
    """
    plan = plan or SamplingPlan()
    checks = registry()
    wanted = [c.id for c in checks] if ids == "all" else list(ids)
    unknown = [i for i in wanted if i not in {c.id for c in checks}]
    if unknown:
        raise KeyError(f"unknown check id(s): {unknown}")
    session = _Session(geom, plan, [
        (index, check) for index, check in enumerate(checks)
        if check.id in wanted and check.id in _TRANSVERSAL_CHECKS
    ])
    reports = []
    for index, check in enumerate(checks):
        if check.id not in wanted:
            continue
        start = time.perf_counter()
        residual, n_points, details = math.nan, 0, []
        status = "skip"
        ok, reason = check.applicable(geom, session)
        try:
            if ok:
                rng = _check_rng(plan, index)
                session.index = index
                session.calc = TractorCalculus(geom)  # its memos end with the check
                facets, n_points, details = check.run(geom, plan, rng, session)
                # each facet's worst value in units of its own tolerance,
                # times the headline one; a set fault flag or a NaN is inf
                scored = []
                for name, value in facets.items():
                    tol = check.facet_tolerances.get(name, check.tolerance)
                    v = np.asarray(value)
                    if v.dtype == bool:
                        worst = math.inf if v.any() else 0.0
                    else:
                        worst = float(np.max(v, initial=0.0))
                        worst = math.inf if math.isnan(worst) else worst
                    scored.append((worst * (check.tolerance / tol), name, worst, tol))
                residual, name, worst, tol = max(scored, key=lambda row: row[0])
                status = "pass" if residual <= check.tolerance else "fail"
                if status == "fail":
                    reason = f"{name}: residual {worst:.3g} against tolerance {tol:g}"
        except _SkipCheck as skip:
            reason = str(skip)
        except Exception as err:  # captured, never thrown (suite completes)
            status, residual, n_points, details = "error", math.inf, 0, []
            reason = f"{type(err).__name__}: {err}"
        reports.append(CheckReport(
            check.id, check.paper_ref, status, residual, check.tolerance,
            n_points, details, reason, time.perf_counter() - start,
        ))
    return reports
