"""Registry of proposition-level numerical checks and the harness running
them over a geometry and a sampling plan.

Each check evaluates residuals at seeded sample points (interior identities
are jet-exact and carry tight tolerances; extrapolated boundary limits get
looser ones).  An interior check draws its points as one ``(N, d)`` batch
and evaluates each quantity once on it, as a boundary check evaluates each
ladder once; its per-point residuals are maxima over the tensor axes
(``_row_max``), and no runner loops over its points.  A check that does not
apply to a geometry is skipped with a reason; runtime failures are captured
as error reports, never thrown, so a suite always completes -- the negative
controls rely on that.  Residuals are scale-normalized by operand norms
(``|residual| / (1 + |operands|)``) so the same tolerances work across
geometries.  When a check combines facets with different tolerances, each
facet's residual is rescaled into the check's headline tolerance; the raw
numbers stay in the details.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import boundary as bd
from .affine import covariant_derivative, defining_density_check
from .extrapolate import Ladder, boundary_ladder, boundary_limit, richardson_limit
from .fields import (
    Geometry,
    TensorField,
    value_dot,
    value_inv,
    value_matmul,
    value_matvec,
    value_outer,
    value_vecmat,
)
from .jets import jet_einsum, jet_gradient, jet_inverse, jet_mul, jet_space
from .tractor import (
    TractorCalculus,
    TractorValue,
    bgg_split_metricity,
    l_tau,
    metric_tractor_curvature_blocks,
    metricity_contorsion,
    polynomial_tractor_section,
    s2t_slots,
    standard_curvature_blocks,
    std_tractor_derivative,
    tractor_curvature,
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
        if bad:
            raise ValueError(
                "invalid sampling plan (" + ", ".join(bad) + "): eps0, ode_step "
                "and ode_horizon must be finite and > 0, levels >= 2, the point "
                "counts >= 1 and the seed >= 0"
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
    """One proposition-level verification."""

    id: str
    paper_ref: str
    tolerance: float
    applicable: Callable[[Geometry, "_Session"], tuple[bool, str]]
    run: Callable[[Geometry, SamplingPlan, np.random.Generator, "_Session"], tuple]
    # run returns (max_residual, n_points, details)


class _Session:
    """Per-geometry state shared between checks of one suite run: the one
    :class:`TractorCalculus` every check reads its connections, curvature
    packs and tau from, the placed ladders and the probe verdicts."""

    def __init__(self, geom: Geometry, plan: SamplingPlan):
        self.geom = geom
        self.plan = plan
        self.calc = TractorCalculus(geom)
        self._probe: dict[str, tuple[bool, str]] = {}
        self._ladders: dict[tuple, Ladder] = {}

    def interior(self, rng, count=None) -> np.ndarray:
        """Sample interior points as one ``(N, d)`` batch: an interior
        check evaluates each quantity once, on all its points together."""
        return np.array(
            self.geom.interior_points(count or self.plan.interior_points, rng)
        )

    def ladders(self, rng, count=None):
        """Sample boundary points and return the plan's ladder at each."""
        return [self.ladder(y) for y in self.geom.boundary_points(
            count or self.plan.boundary_points, rng)]

    def ladder(self, y: tuple):
        """The plan's ladder at a boundary point, placed once per session:
        every limit taken at the point runs on it, whichever check (or
        probe) samples the point."""
        hit = self._ladders.get(y)
        if hit is None:
            hit = boundary_ladder(
                self.geom, y, eps0=self.plan.eps0, levels=self.plan.levels
            )
            self._ladders[y] = hit
        return hit

    def probe_nondegenerate(self) -> tuple[bool, str]:
        hit = self._probe.get("nondegenerate")
        if hit is None:
            rng = np.random.default_rng(self.plan.seed)
            p = self.geom.interior_points(1, rng)[0]
            pack = self.calc.pack_of(self.calc.levi_civita_splitting)
            Pv = pack.dense("schouten", p, 0)[..., 0]
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
            try:
                ladders = [self.ladder(y)]
                reps = bd.rho_connection_extension(self.calc.hat, ladders)
                dd = defining_density_check(self.calc.tau, self.geom, ladders)
                ok = (not reps[0].diverged) and dd.passed
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


def _per_ladder(ladders, f, judge):
    """Extrapolate the point function ``f`` along each ladder and judge each
    finite limit: ``judge(k, est)`` gets the ladder's index and its estimate
    and returns ``(residual, detail)``.  A diverged limit makes the residual
    infinite and its detail ``{"point", "diverged": True}``.  Returns the
    worst residual and the per-ladder details, each led by its point."""
    residual = 0.0
    details = []
    for k, ladder in enumerate(ladders):
        est = boundary_limit(f, ladder)
        if est.diverged:
            residual = math.inf
            details.append({"point": list(ladder.y), "diverged": True})
            continue
        r, detail = judge(k, est)
        residual = max(residual, r)
        details.append({"point": list(ladder.y), **detail})
    return residual, details


# -- check runners ---------------------------------------------------------------


def _run_extend(geom, plan, rng, session):
    calc = session.calc
    sigma = calc.metricity_field()
    residual = 0.0
    details = []
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    for ladder in ladders:
        est_s = boundary_limit(lambda p: bd.scalar_curvature(calc, p), ladder)
        r = math.inf if est_s.diverged else est_s.scaled_error()
        residual = max(residual, r)
        est_t = boundary_limit(
            lambda p: bgg_split_metricity(calc, sigma, calc.reference, p, 0).values(),
            ladder,
        )
        r2 = math.inf if est_t.diverged else est_t.scaled_error()
        residual = max(residual, r2)
        details.append({
            "point": list(ladder.y),
            "scalar_limit": None if est_s.diverged else float(est_s.value),
            "scalar_extrapolation_error": r,
            "metricity_tractor_extrapolation_error": r2,
        })
    return residual, len(ladders), details


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
        vals = np.asarray(est.value)
        r = max(est.scaled_error(), abs(float(vals[-1])))
        return r, {
            "extrapolation_error": est.scaled_error(),
            "vanishing_combination_limit": float(vals[-1]),
        }

    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    residual, details = _per_ladder(ladders, slots, judge)
    return residual, len(ladders), details


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
        E = bd.tangential_basis(geom, ladders[k].y)
        tang = E.T @ np.asarray(est.value) @ E
        min_eig = float(np.min(np.abs(np.linalg.eigvalsh(tang))))
        r = est.scaled_error() if min_eig >= 1e-6 else math.inf
        return r, {
            "extrapolation_error": est.scaled_error(),
            "tangential_min_eig": min_eig,
        }

    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    residual, details = _per_ladder(ladders, h23, judge)
    return residual, len(ladders), details


def _run_transversal(geom, plan, rng, session):
    ladders = session.ladders(rng, min(plan.boundary_points, 4))
    residual = 0.0
    details = []
    curves = bd.geodetic_transversals(
        session.calc, ladders, step=plan.ode_step, horizon=plan.ode_horizon
    )
    for curve in curves:
        pairing = abs(float(geom.drho(np.asarray(curve.y)) @ curve.mu0) - 1.0)
        res = curve.geodesic_residual()
        residual = max(residual, pairing / 1e-2, res)  # pairing tol 1e-10
        details.append({
            "point": list(curve.y),
            "drho_pairing_defect": pairing,
            "geodesic_residual": res,
        })
    collar = bd.collar_sample(curves)
    t0_defect = 0.0
    for (y, t, p) in collar.rows:
        if t == 0.0:
            t0_defect = max(t0_defect, float(np.max(np.abs(np.asarray(y) - p))))
    residual = max(residual, t0_defect)
    details.append({
        "collar_min_separation": collar.min_separation,
        "t0_row_defect": t0_defect,
    })
    if collar.min_separation <= 0:
        residual = math.inf
    return residual, len(ladders), details


def _run_mu(geom, plan, rng, session):
    n = geom.dim - 1
    calc = session.calc
    gfield = geom.metric_field()
    ladders = session.ladders(rng, min(plan.boundary_points, 4))
    extrapolated = []
    residual = 0.0
    details = []
    curves = bd.geodetic_transversals(
        calc, ladders, step=plan.ode_step, horizon=plan.ode_horizon
    )

    def quantity(points, mus):
        """``rho^2 g(mu, mu)`` at each row of a batch of curve points."""
        gv = gfield.dense(points, 0)[..., 0]
        rho2 = np.float_power(geom.rho_value(points), 2)
        return rho2 * value_dot(value_vecmat(mus.T, gv), mus.T)

    for ladder, curve in zip(ladders, curves):
        ks = np.arange(5, len(curve.ts), 10)
        samples = quantity(curve.points[ks], curve.mus[ks])
        variation = float(samples.max() - samples.min())

        est = richardson_limit(quantity(*curve.at_rho(np.array(ladder.eps))))

        est_rhs = boundary_limit(
            lambda p: -(n + 1) / (4.0 * bd.schouten_trace(calc, p)), ladder
        )
        if est.diverged or est_rhs.diverged:
            residual = math.inf
            details.append({"point": list(ladder.y), "diverged": True})
            continue
        value_defect = abs(float(est.value) - float(est_rhs.value))
        # variation facet tolerance 1e-6 vs check tolerance 1e-5
        residual = max(residual, variation * 10.0, est.error, value_defect)
        extrapolated.append(float(est.value))
        details.append({
            "point": list(ladder.y),
            "variation_along_curve": variation,
            "extrapolated_value": float(est.value),
            "schouten_trace_prediction": float(est_rhs.value),
        })
    cross = (max(extrapolated) - min(extrapolated)) if extrapolated else 0.0
    residual = max(residual, cross / 10.0)  # cross-transversal tol 1e-4
    details.append({"cross_transversal_variation": cross})
    return residual, len(ladders), details


def _run_s_const(geom, plan, rng, session):
    calc = session.calc
    ladders = session.ladders(rng, max(plan.boundary_points, 5))
    limits = []

    def judge(k, est):
        limits.append(float(est.value))
        return est.scaled_error(), {"scalar_limit": float(est.value)}

    residual, details = _per_ladder(
        ladders, lambda p: bd.scalar_curvature(calc, p), judge
    )
    if limits:
        spread = max(limits) - min(limits)
        residual = max(residual, _scaled(spread, abs(np.mean(limits))))
        if abs(np.mean(limits)) < 1e-6:
            residual = math.inf
        details.append({"spread": spread, "mean": float(np.mean(limits))})
    return residual, len(ladders), details


def _run_thm25_c(geom, plan, rng, session):
    ladders = session.ladders(rng, max(plan.boundary_points, 3))
    rep = bd.asymptotic_h(session.calc, ladders)
    details = [{
        "C": rep.C,
        "constructor_C": rep.constructor_C,
        "scalar_spread": rep.scalar_spread,
        "tangential_min_eigs": rep.tangential_min_eigs,
        "status": rep.status,
    }]
    if rep.status != "ok" or rep.h_diverged:
        return math.inf, len(ladders), details
    residual = max(rep.h_errors) if rep.h_errors else 0.0
    residual = max(residual, rep.scalar_spread)
    if rep.constructor_C is not None:
        # C recovery tolerance 1e-6 vs headline 1e-5
        residual = max(residual, abs(rep.C - rep.constructor_C) * 10.0)
    if min(rep.tangential_min_eigs) < 0.5:
        residual = math.inf
        details.append({"reason": "tangential h below the nondegeneracy floor"})
    return residual, len(ladders), details


def _run_pff(geom, plan, rng, session):
    alpha = geom.alpha
    pack = session.calc.pack_of(session.calc.levi_civita_splitting)
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    # every form draws from rng before any limit, diverged ladders included
    sffs = [bd.second_fundamental_form(session.calc, lad, rng=rng) for lad in ladders]

    def lhs(p):
        Pv = pack.dense("schouten", p, 0)[..., 0]
        rho, grad = geom.rho_and_drho(p)
        return rho * Pv + (alpha - 1) / alpha**2 / rho * value_outer(grad)

    def judge(k, est):
        sff = sffs[k]
        target = sff.full / alpha
        scale = float(np.max(np.abs(target)))
        gap = float(np.max(np.abs(np.asarray(est.value) - target)))
        # conformal/projective invariance facets carry tolerance 1e-6
        r = max(
            _scaled(gap, scale),
            sff.conformal_factor_defect * 10.0,
            sff.projective_change_defect * 10.0,
        )
        return r, {
            "schouten_asymptotics_gap": gap,
            "conformal_factor_defect": sff.conformal_factor_defect,
            "projective_change_defect": sff.projective_change_defect,
            "tangential_min_abs_eig": sff.min_abs_eigenvalue,
        }

    residual, details = _per_ladder(ladders, lhs, judge)
    return residual, len(ladders), details


def _run_totally_geodesic(geom, plan, rng, session):
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    residual = 0.0
    details = []
    for ladder in ladders:
        sff = bd.second_fundamental_form(session.calc, ladder, rng=rng)
        r = float(np.max(np.abs(sff.tangential)))
        residual = max(residual, r)
        details.append({"point": list(ladder.y), "tangential_sff_norm": r})
    return residual, len(ladders), details


def _run_h_vs_sff(geom, plan, rng, session):
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    rep = bd.asymptotic_h(session.calc, ladders)
    if rep.status != "ok":
        return math.inf, len(ladders), [{"status": rep.status}]
    residual = 0.0
    details = []
    for ladder, h_lim in zip(ladders, rep.h_limits):
        sff = bd.second_fundamental_form(session.calc, ladder, rng=rng)
        target = -2.0 * rep.C * sff.full
        scale = float(np.max(np.abs(target)))
        gap = float(np.max(np.abs(h_lim - target)))
        residual = max(residual, _scaled(gap, scale))
        details.append({"point": list(ladder.y), "h_vs_minus_2C_hessian": gap})
    return residual, len(ladders), details


def _run_prop33(geom, plan, rng, session, *, order_one: bool):
    alpha = geom.alpha
    pack = session.calc.pack_of(session.calc.levi_civita_splitting)
    power = 1 if order_one else 2
    ladders = session.ladders(rng, min(plan.boundary_points, 3))

    def scaled_riemann(p):
        rho_power = np.float_power(geom.rho_value(p), power)
        return rho_power * pack.dense("riemann", p, 0)[..., 0]

    def judge(k, est):
        ladder = ladders[k]
        if order_one:
            x = bd.hessian_of_rho(
                geom, ladder.y, bd.extended_christoffels(session.calc.hat, ladder)
            )
        else:
            grad = geom.drho(ladder.y)
            x = np.outer((1 - alpha) / alpha**2 * grad, grad)
        target = bd._delta_wedge(x)
        scale = float(np.max(np.abs(target)))
        gap = float(np.max(np.abs(np.asarray(est.value) - target)))
        return _scaled(gap, scale), {"curvature_asymptotics_gap": gap}

    residual, details = _per_ladder(ladders, scaled_riemann, judge)
    return residual, len(ladders), details


def _run_einstein(geom, plan, rng, session):
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    rep = bd.einstein_asymptotics(session.calc, ladders)
    details = [{
        "status": rep.status,
        "tracefree_errors": rep.tracefree_errors,
        "tail_errors": rep.tail_errors,
        "pointwise_tracefree_diverges": rep.pointwise_tracefree_diverges,
    }]
    if rep.diverged:
        return math.inf, len(ladders), details
    residual = max(rep.tracefree_errors + rep.tail_errors)
    return residual, len(ladders), details


def _run_bundle(geom, plan, rng, session):
    calc = session.calc
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    data = bd.boundary_tractor_bundle(calc, ladders)
    residual = 0.0
    details = []
    for frame, gram_defect, sff_gap, sig_ok, iso in zip(
        data.frames, data.gram_split_defects, data.sff_agreement,
        data.signature_ok, data.isotropy,
    ):
        # isotropy tolerance 1e-8, gram block form 1e-7, sff agreement 1e-5
        residual = max(
            residual, iso * 1e3, gram_defect * 1e2, sff_gap,
            0.0 if sig_ok else math.inf,
        )
        details.append({
            "point": list(frame.point),
            "isotropy_T1": iso,
            "tract_met_split_defect": gram_defect,
            "quotient_vs_sff": sff_gap,
            "signature_ok": sig_ok,
            "gamma_min_singular_value":
                frame.diagnostics["gamma_min_singular_value"],
        })
    return residual, len(ladders), details


def _run_splitids(geom, plan, rng, session):
    calc = session.calc
    pts = session.interior(rng, min(plan.interior_points, 10))
    pack = calc.pack_of(calc.levi_civita_splitting)
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
    # boundary limit of t.drho -> 1 (tolerance 1e-5 vs headline 1e-8)
    def t_dot(pt):
        return value_dot(bd.t_vector(calc, pt), geom.drho(pt))

    def judge(k, est):  # a 1e-5 facet in the 1e-8 headline
        return abs(float(est.value) - 1.0) * 1e-3, {"t_dot_drho_limit": float(est.value)}

    limit_residual, limit_details = _per_ladder(session.ladders(rng, 2), t_dot, judge)
    details = _point_details(pts, identity_residual=gap) + limit_details
    return max(float(np.max(gap)), limit_residual), len(pts), details


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
    lc_pack = calc.pack_of(calc.levi_civita_splitting)
    hat_pack = calc.pack_of(calc.reference)
    hat_conn = calc.connection_of(calc.reference)
    gfield = geom.metric_field()

    def drho_eval(pt, k):
        return jet_gradient(geom.rho_dense(pt, k + 1), jet_space(d, k + 1))

    def phi_eval(pt, k):
        Sg = jet_mul(lc_pack.dense("scalar", pt, k), gfield.dense(pt, k), jet_space(d, k))
        return lc_pack.dense("schouten", pt, k) - Sg * (1.0 / (n * (n + 1)))

    drho_field = TensorField(geom.chart, "d", drho_eval, name="drho")
    hess2_field = covariant_derivative(covariant_derivative(drho_field, hat_conn), hat_conn)
    phi_field = TensorField(geom.chart, "dd", phi_eval, name="phi", sym=((0, 1),))
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
    residual = float(np.max(np.maximum(_scaled(gap, scale), _scaled(gap2, scale))))
    details = _point_details(pts, identity_residual=gap, variant_residual=gap2)
    return residual, len(pts), details


def _run_thm41a(geom, plan, rng, session):
    calc = session.calc
    ladders = session.ladders(rng, 2)
    residual = 0.0
    details = []
    skipped = 0
    for ladder in ladders:
        rep = bd.asymptotically_parallel_check(calc, ladder)
        if not rep.applicable:
            skipped += 1
            details.append({"point": list(ladder.y), "skipped": rep.reason,
                            "equivalence_ok": rep.equivalence_ok})
            if not rep.equivalence_ok:
                residual = math.inf
            continue
        residual = max(
            residual, rep.hypothesis_norm, rep.t1_defect, rep.ricci_residual,
            0.0 if rep.equivalence_ok else math.inf,
        )
        details.append({
            "point": list(ladder.y),
            "hypothesis_norm": rep.hypothesis_norm,
            "tracefree_ricci_norm": rep.tracefree_ricci_norm,
            "t1_defect": rep.t1_defect,
            "normality_residual": rep.ricci_residual,
            "equivalence_ok": rep.equivalence_ok,
        })
    if skipped == len(ladders):
        raise _SkipCheck(details[0]["skipped"])
    return residual, len(ladders), details


def _run_thm43_metric(geom, plan, rng, session):
    calc = session.calc
    tc = metricity_contorsion(calc, calc.reference)
    pts = session.interior(rng, 3)
    # seven section pairs (s1, s2) at each point, drawn point by point: a
    # section does not depend on its point, so they come from one batch that
    # repeats each point 14 times, whose row 14 i + 2 j + k is section k of
    # pair j at point i
    drawn = polynomial_tractor_section(calc, np.repeat(pts, 14, axis=0), 3, rng).data
    pairs = np.ascontiguousarray(
        drawn.reshape(drawn.shape[:1] + (len(pts), 7, 2, -1)).transpose(2, 3, 0, 1, 4)
    )
    L = l_tau(calc, pts, 3, calc.reference)
    G = L.data
    lower = jet_space(geom.dim, 2)
    gap = 0.0
    for pair in pairs:
        s1, s2 = (TractorValue(x, L.space, "u", 0, calc.reference) for x in pair)
        Ds1 = tc.derivative(s1, pts).data
        Ds2 = tc.derivative(s2, pts).data
        # d_a L(s1, s2) against L(D_a s1, s2) + L(s1, D_a s2)
        Ls1 = jet_einsum("ij,i->j", G, s1.data, L.space)
        lhs = jet_gradient(jet_einsum("j,j->", Ls1, s2.data, L.space), L.space)
        rhs = jet_einsum(
            "aj,j->a", jet_einsum("ij,ai->aj", G, Ds1, lower), s2.data, lower
        ) + jet_einsum("j,aj->a", Ls1, Ds2, lower)
        gap = np.maximum(gap, _row_max(lhs[..., 0] - rhs[..., 0]))
    residual = float(np.max(_scaled(gap, _row_max(L.values()))))
    details = _point_details(pts, compatibility_residual=gap, pairs=len(pairs))
    return residual, len(pts), details


def _run_thm43_torsion(geom, plan, rng, session):
    calc = session.calc
    tc = metricity_contorsion(calc, calc.reference)
    pts = session.interior(rng, 3)
    kap = tc.curvature(pts, 0).values()
    blocks = metric_tractor_curvature_blocks(calc, pts, 0)[..., 0]
    scale = _row_max(kap)
    torsion = _row_max(kap[:, :, 1:, 0])
    corner = _row_max(kap[:, :, 0, 0])
    block_gap = _row_max(kap - blocks)
    residual = float(np.max([
        _scaled(torsion, scale), _scaled(corner, scale), _scaled(block_gap, scale)
    ]))
    details = _point_details(
        pts, torsion_block=torsion, scalar_block=corner,
        block_formula_vs_commutator=block_gap,
    )
    return residual, len(pts), details


def _run_thm44(geom, plan, rng, session):
    calc = session.calc
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    residual = 0.0
    details = []
    for ladder in ladders:
        frame = bd.boundary_frame(calc, ladder)
        blocks = bd.curvature_blocks(calc, frame)
        rep = bd.normalize_boundary_connection(blocks)
        fault = bd.normalize_boundary_connection(blocks, w_perturbation=1.0)
        detector_fired = fault.ricci_residual > 0.1
        residual = max(
            residual,
            blocks.zero_pattern_defect,
            blocks.gamma_skew_defect,
            blocks.bottom_middle_defect,
            rep.skew_defect * 10.0,       # 1e-6 facet in 1e-5 headline
            rep.ricci_residual * 10.0,    # 1e-6 facet
            rep.t1_preservation_defect,
            0.0 if detector_fired else math.inf,
        )
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
    return residual, len(ladders), details


def _run_weyl_traces(geom, plan, rng, session):
    pack = session.calc.pack_of(session.calc.levi_civita_splitting)
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
    worst = np.maximum(_row_max(traces), _row_max(back - R))
    return float(np.max(_scaled(worst, _row_max(R)))), len(pts), [{"points": len(pts)}]


def _run_bianchi(geom, plan, rng, session):
    pack = session.calc.pack_of(session.calc.levi_civita_splitting)
    pts = session.interior(rng, plan.interior_points)
    R = pack.dense("riemann", pts, 0)[..., 0]
    cyc = R + np.einsum("beca...->abce...", R) + np.einsum("eacb...->abce...", R)
    residual = float(np.max(_scaled(_row_max(cyc), _row_max(R))))
    return residual, len(pts), [{"points": len(pts)}]


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

    s3 = calc.splitting(ups, "equivariance-probe")
    nondegenerate, _ = session.probe_nondegenerate()
    tv = polynomial_tractor_section(calc, pts, 3, rng, s=calc.reference)
    gap = 0.0
    for target in (calc.levi_civita_splitting, s3):
        route1 = calc.in_splitting(std_tractor_derivative(calc, tv, pts), target, pts)
        route2 = std_tractor_derivative(calc, calc.in_splitting(tv, target, pts), pts)
        gap = np.maximum(gap, _row_max(route1.values() - route2.values()))
    # instance matches: the closed-form components of L(tau), the
    # metricity tractor and its inverse (the inverse needs a
    # nondegenerate Schouten tensor, so the flat control skips it)
    gap_inst = _instance_matches(calc, pts) if nondegenerate else 0.0
    residual = float(np.max(np.maximum(gap, gap_inst)))
    details = _point_details(pts, equivariance_gap=gap, instance_gap=gap_inst)
    return residual, len(pts), details


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
    P = calc.pack_of(calc.levi_civita_splitting).dense("schouten", pts, order)[..., 0]
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
        kap = tractor_curvature(calc, s, pts, 0).values()
        blocks = standard_curvature_blocks(calc, s, pts, 0)[..., 0]
        scale = _row_max(kap) + _row_max(blocks)
        gap = np.maximum(gap, _scaled(_row_max(kap - blocks), scale))
    details = _point_details(pts, commutator_vs_blocks=gap)
    return float(np.max(gap)), len(pts), details


def _run_defining_density(geom, plan, rng, session):
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    rep = defining_density_check(session.calc.tau, geom, ladders)
    details = [{
        "points": [list(y) for y in rep.points],
        "limits": rep.limits,
        "errors": rep.errors,
        "reason": rep.reason,
    }]
    residual = 0.0 if rep.passed else math.inf
    if rep.passed:
        residual = max(
            e / (1 + abs(v)) for e, v in zip(rep.errors, rep.limits)
        )
    return residual, len(ladders), details


def _run_rho_extends(geom, plan, rng, session):
    ladders = session.ladders(rng, min(plan.boundary_points, 3))
    reps = bd.rho_connection_extension(session.calc.hat, ladders)
    residual = 0.0
    details = []
    for rep in reps:
        if rep.diverged:
            residual = math.inf
        else:
            residual = max(residual, rep.error)
            if rep.dual_path_gap is not None:
                # agreement of the exact and extrapolated extensions carries
                # the tighter 1e-6 facet tolerance
                residual = max(residual, rep.dual_path_gap * 10.0)
        details.append({
            "point": list(rep.point),
            "diverged": rep.diverged,
            "loglog_slope": rep.loglog_slope,
            "extrapolation_error": rep.error,
            "dual_path_gap": rep.dual_path_gap,
        })
    return residual, len(ladders), details


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
        ),
        Check(
            "prop-2.5-mu",
            "rho^2 g(mu, mu) is constant along geodetic transversals and its "
            "boundary value is -(n+1)/4 (g^ij P_ij)^-1, constant along the "
            "boundary.",
            1e-5, a2c, _run_mu,
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
            1e-5, a2c, _run_thm25_c,
        ),
        Check(
            "prop-3.1-pff",
            "rho P_ab + (alpha-1)/alpha^2 rho_a rho_b / rho extends with "
            "boundary value the second-fundamental-form representative "
            "(Hessian of rho)/alpha; the representative's conformal class is "
            "independent of the defining function and class connection.",
            1e-5, _needs(compact=True), _run_pff,
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
        ),
        Check(
            "prop-4.2-splitids",
            "The inverse tractor metric has slots (P^ab/(rho tauhat); "
            "2t^a/tauhat; psi/tauhat) and the three splitting identities "
            "hold; t^a rho_a approaches 1 at the boundary.",
            1e-8, a2cn, _run_splitids,
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
            1e-5, _needs(), _run_rho_extends,
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
    if ids != "all":
        wanted = list(ids)
        known = {c.id for c in checks}
        unknown = [i for i in wanted if i not in known]
        if unknown:
            raise KeyError(f"unknown check id(s): {unknown}")
        checks = [c for c in checks if c.id in wanted]
    session = _Session(geom, plan)
    reports = []
    for index, check in enumerate(checks):
        start = time.perf_counter()
        ok, reason = check.applicable(geom, session)
        if not ok:
            reports.append(
                CheckReport(
                    check.id, check.paper_ref, "skip", math.nan,
                    check.tolerance, 0, [], reason,
                    time.perf_counter() - start,
                )
            )
            continue
        rng = np.random.default_rng([plan.seed, index])
        try:
            residual, n_points, details = check.run(geom, plan, rng, session)
            status = "pass" if residual <= check.tolerance else "fail"
            reports.append(
                CheckReport(
                    check.id, check.paper_ref, status, float(residual),
                    check.tolerance, n_points, details, "",
                    time.perf_counter() - start,
                )
            )
        except _SkipCheck as skip:
            reports.append(
                CheckReport(
                    check.id, check.paper_ref, "skip", math.nan,
                    check.tolerance, 0, [], str(skip),
                    time.perf_counter() - start,
                )
            )
        except Exception as err:  # captured, never thrown (suite completes)
            reports.append(
                CheckReport(
                    check.id, check.paper_ref, "error", math.inf,
                    check.tolerance, 0, [],
                    f"{type(err).__name__}: {err}",
                    time.perf_counter() - start,
                )
            )
    return reports
