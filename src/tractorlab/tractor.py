"""Projective standard tractor calculus.

The standard tractor bundle of a projective structure in dimension n+1 has
rank n+2.  A connection in the projective class splits it; in a splitting a
tractor is a column ``(sigma; nu^a)`` and this module fixes the fiber layout

* slot 0       : the distinguished subbundle direction (``sigma``),
* slots 1..n+1 : the quotient directions (``nu^a``),

with the dual layout for cotractors, so the natural pairing is the plain
dot product of component columns.  In the splitting of a connection with
Christoffels ``Gamma`` and Schouten ``P`` the tractor connection acts by
``d_a + Omega_a`` with

    Omega_a[0, 0]     = -Gamma^e_ea / (n+2)
    Omega_a[0, 1+b]   = -P_ab
    Omega_a[1+b, 0]   = delta_a^b
    Omega_a[1+b, 1+e] = Gamma^b_ae - delta^b_e Gamma^f_fa / (n+2)

(the diagonal terms transport the weight -1 densities sitting in the slots).
Changing the splitting connection by a one-form Y acts on components by the
single fiber map ``(sigma; nu) -> (sigma - Y_a nu^a; nu)``; its inverse
transpose handles lower slots and every higher tractor bundle follows by
tensoriality.  That map is derived once from the endomorphism change law by
conjugation and is locked by instance tests on the metricity tractor, its
inverse and the defining-density tractor.

The reference splitting of a geometry is the one of the rho-modified
connection (smooth up to the boundary); the Levi-Civita splitting is the
derived view with offset ``-d(rho)/(alpha rho)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .affine import (
    Connection,
    CurvaturePack,
    canonical_tau,
    covariant_derivative,
    levi_civita,
    projective_modify,
    rho_connection,
    rho_upsilon,
)
from .fields import Geometry, TensorField
from .jets import Jet, jet_matrix_inverse, jet_space, jet_values

__all__ = [
    "Splitting",
    "TractorValue",
    "TractorCalculus",
    "TractorConnection",
    "change_splitting",
    "std_tractor_derivative",
    "bgg_split_metricity",
    "l_tau",
    "tractor_metric_inverse",
    "s2t_slots",
    "s2tstar_slots",
    "metricity_residual",
    "tractor_curvature",
    "standard_curvature_blocks",
    "metricity_contorsion",
    "metric_tractor_curvature_blocks",
    "polynomial_tractor_section",
]

Point = Sequence[float]


@dataclass(frozen=True)
class Splitting:
    """A splitting of the tractor bundle, tagged by its offset one-form.

    ``upsilon(point, order)`` is the offset of the splitting connection from
    the geometry's reference connection (the rho-modified one); ``None``
    denotes the reference splitting itself.
    """

    label: str
    upsilon: Callable[[Point, int], np.ndarray] | None = None

    def __hash__(self):
        return hash(self.label)

    def __eq__(self, other):
        return isinstance(other, Splitting) and self.label == other.label


@dataclass
class TractorValue:
    """A pointwise tractor tensor with jet components.

    ``components`` has shape ``(d,)*n_form + (n+2,)*len(tvariance)``: the
    spacetime form axes come first, then the tractor axes, whose variance is
    one letter each (``u`` upper, ``d`` lower).  Form axes are plain
    covariant spacetime slots that change-of-splitting leaves alone.
    """

    components: np.ndarray
    tvariance: str
    n_form: int
    splitting: Splitting

    @property
    def order(self) -> int:
        return int(min(j.order for j in self.components.flat))

    def values(self) -> np.ndarray:
        return jet_values(self.components)

    def copy(self) -> "TractorValue":
        return TractorValue(
            self.components.copy(), self.tvariance, self.n_form, self.splitting
        )


def _contract_axis(mat: np.ndarray, comps: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(mat, comps, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def _change_matrices(upsilon: np.ndarray, space) -> tuple[np.ndarray, np.ndarray]:
    """The fiber change map S (upper slots) and its inverse transpose."""
    d = len(upsilon)
    m = d + 1
    one = space.constant(1.0)
    zero = space.constant(0.0)
    S = np.empty((m, m), dtype=object)
    T = np.empty((m, m), dtype=object)
    S[...] = zero
    T[...] = zero
    S[0, 0] = one
    T[0, 0] = one
    for a in range(d):
        S[1 + a, 1 + a] = one
        T[1 + a, 1 + a] = one
        u = upsilon[a] if isinstance(upsilon[a], Jet) else space.constant(upsilon[a])
        S[0, 1 + a] = -u
        T[1 + a, 0] = u
    return S, T


def change_splitting(
    tv: TractorValue,
    upsilon: np.ndarray,
    new_splitting: Splitting | None = None,
) -> TractorValue:
    """Re-express a tractor tensor in the splitting offset by ``upsilon``.

    ``upsilon`` is the one-form of the *change* (target offset minus source
    offset), given as jets or floats at the point.  All

    tractor axes are transformed by the single fiber map; this is a group
    action: composing changes by Y1 then Y2 equals one change by Y1 + Y2.
    """
    sample = next(iter(tv.components.flat))
    space = sample.space
    S, T = _change_matrices(np.asarray(upsilon, dtype=object), space)
    comps = tv.components
    for k, var in enumerate(tv.tvariance):
        axis = tv.n_form + k
        comps = _contract_axis(S if var == "u" else T, comps, axis)
    return TractorValue(
        comps,
        tv.tvariance,
        tv.n_form,
        new_splitting if new_splitting is not None else tv.splitting,
    )


class TractorCalculus:
    """Tractor-calculus context for one geometry.

    Owns the Levi-Civita and rho-modified connections with their curvature
    packs, the canonical density tau, the named splittings, and the
    splitting-dependent tractor connection matrices (memoized per point).
    """

    def __init__(self, geom: Geometry):
        self.geom = geom
        self.dim = geom.dim
        self.n = geom.dim - 1
        self.lc = levi_civita(geom)
        self.hat = rho_connection(geom, base=self.lc)
        self.tau = canonical_tau(geom)
        self.reference = Splitting("reference", None)
        ups_hat = rho_upsilon(geom)

        def minus_hat(point, order):
            return np.array([-u for u in ups_hat(point, order)], dtype=object)

        self.levi_civita_splitting = Splitting("levi_civita", minus_hat)
        self._connections: dict[str, Connection] = {
            "reference": self.hat,
            "levi_civita": self.lc,
        }
        self._packs: dict[str, CurvaturePack] = {}
        self._matrices: dict = {}
        self._counter = itertools.count()

    # -- splittings -----------------------------------------------------

    def splitting(
        self, upsilon: Callable[[Point, int], np.ndarray], label: str | None = None
    ) -> Splitting:
        """A splitting with the given offset one-form from the reference."""
        if label is None:
            label = f"custom-{next(self._counter)}"
        s = Splitting(label, upsilon)
        self._connections[label] = projective_modify(self.hat, upsilon)
        return s

    def splitting_from_lc(
        self, upsilon_from_lc: Callable[[Point, int], np.ndarray],
        label: str | None = None,
    ) -> Splitting:
        """A splitting offset from the Levi-Civita connection instead."""
        ups_hat = rho_upsilon(self.geom)

        def offset(point, order):
            u = upsilon_from_lc(point, order)
            h = ups_hat(point, order)
            return np.array([u[a] - h[a] for a in range(self.dim)], dtype=object)

        if label is None:
            label = f"customlc-{next(self._counter)}"
        s = Splitting(label, offset)
        base = self._connections["levi_civita"]
        self._connections[label] = projective_modify(base, upsilon_from_lc)
        return s

    def connection_of(self, s: Splitting) -> Connection:
        return self._connections[s.label]

    def pack_of(self, s: Splitting) -> CurvaturePack:
        pack = self._packs.get(s.label)
        if pack is None:
            metric = self.geom.metric_field() if self.geom.metric is not None else None
            pack = self._packs[s.label] = CurvaturePack(self.connection_of(s), metric)
        return pack

    def upsilon_jets(self, s: Splitting, point: Point, order: int) -> np.ndarray:
        if s.upsilon is None:
            space = jet_space(self.dim, order)
            return np.array(
                [space.constant(0.0) for _ in range(self.dim)], dtype=object
            )
        return s.upsilon(point, order)

    def change_upsilon(
        self, source: Splitting, target: Splitting, point: Point, order: int
    ) -> np.ndarray:
        us = self.upsilon_jets(source, point, order)
        ut = self.upsilon_jets(target, point, order)
        return np.array([ut[a] - us[a] for a in range(self.dim)], dtype=object)

    def in_splitting(self, tv: TractorValue, target: Splitting, point: Point):
        if tv.splitting == target:
            return tv
        ups = self.change_upsilon(tv.splitting, target, point, tv.order)
        return change_splitting(tv, ups, target)

    # -- scalar data ------------------------------------------------------

    def tau_jet(self, point: Point, order: int) -> Jet:
        return self.tau.jet(point, order)

    def tau_hat_jet(self, point: Point, order: int) -> Jet:
        """tau / rho at an interior point (smooth up to the boundary)."""
        return self.tau.jet(point, order) / self.geom.rho_jet(point, order)

    def metricity_field(self) -> TensorField:
        """The metricity-equation candidate ``tau^-1 g^ab`` (weight -2)."""
        if not hasattr(self, "_sigma_field"):
            geom = self.geom
            gfield = geom.metric_field()
            tau = self.tau

            def evaluator(point, order):
                g = gfield.components(point, order)
                ginv = jet_matrix_inverse(g)
                inv_tau = 1.0 / tau.jet(point, order)
                out = np.empty_like(ginv)
                for idx in np.ndindex(ginv.shape):
                    out[idx] = ginv[idx] * inv_tau
                return out

            self._sigma_field = TensorField(
                geom.chart, "uu", evaluator, weight=-2.0,
                name="metricity", sym=((0, 1),),
            )
        return self._sigma_field

    # -- connection matrices ----------------------------------------------

    def connection_matrices(self, s: Splitting, point: Point, order: int) -> np.ndarray:
        """``Omega_a`` of the standard tractor connection in splitting ``s``."""
        key = (s.label, tuple(point), order)
        hit = self._matrices.get(key)
        if hit is not None:
            return hit
        d = self.dim
        conn = self.connection_of(s)
        pack = self.pack_of(s)
        G = conn.christoffels(point, order)
        P = pack.schouten(point, order)
        tg = conn.trace_gamma(point, order)
        space = jet_space(d, order)
        zero = space.constant(0.0)
        one = space.constant(1.0)
        omega = np.empty((d, d + 1, d + 1), dtype=object)
        for a in range(d):
            gamma_a = tg[a] / (d + 1.0)
            omega[a, 0, 0] = -gamma_a
            for b in range(d):
                omega[a, 0, 1 + b] = -P[a, b]
                omega[a, 1 + b, 0] = one if a == b else zero
                for e in range(d):
                    val = G[b, a, e]
                    if b == e:
                        val = val - gamma_a
                    omega[a, 1 + b, 1 + e] = val
        self._matrices[key] = omega
        return omega


# -- derivatives --------------------------------------------------------


def std_tractor_derivative(
    calc: TractorCalculus,
    tv: TractorValue,
    point: Point,
    contorsion: "TractorConnection | None" = None,
) -> TractorValue:
    """Coupled tractor covariant derivative in the value's own splitting.

    Acts by the Leibniz rule on every tractor axis (upper axes get
    ``+Omega``, lower axes ``-Omega^T``); existing spacetime form axes ride
    along uncoupled, which is the right bookkeeping for curvature by
    commutators along coordinate directions.  The new form axis is axis 0
    and the output order drops by one.
    """
    k = tv.order
    if k < 1:
        raise ValueError("need jets of order >= 1 to differentiate")
    d = calc.dim
    if contorsion is not None:
        omega = contorsion.matrices(point, k - 1)
    else:
        omega = calc.connection_matrices(tv.splitting, point, k - 1)
    shape = tv.components.shape
    out = np.empty((d,) + shape, dtype=object)
    for a in range(d):
        # partial derivative of every component
        da = np.empty(shape, dtype=object)
        for idx in np.ndindex(shape):
            da[idx] = tv.components[idx].partial(a)
        for kax, var in enumerate(tv.tvariance):
            axis = tv.n_form + kax
            if var == "u":
                da = da + _contract_axis(omega[a], tv.components, axis)
            else:
                da = da - _contract_axis(omega[a].T, tv.components, axis)
        out[a] = da
    return TractorValue(out, tv.tvariance, tv.n_form + 1, tv.splitting)


# -- the BGG splitting operator on S^2 T ----------------------------------


def bgg_split_metricity(
    calc: TractorCalculus,
    sigma_field: TensorField,
    s: Splitting,
    point: Point,
    order: int,
) -> TractorValue:
    """Splitting-operator lift of a symmetric weight -2 section to S^2 T.

    In the splitting of a connection ``D`` with Schouten ``P`` the three
    slots are ``(sigma^ab; -D_d sigma^dc/(n+2);
    D_d D_e sigma^de/((n+1)(n+2)) + P_de sigma^de/(n+1))``.
    """
    d = calc.dim
    n = calc.n
    conn = calc.connection_of(s)
    pack = calc.pack_of(s)
    sigma = sigma_field.components(point, order)
    dsig_field = covariant_derivative(sigma_field, conn)
    dsig = dsig_field.components(point, order)

    def trace_eval(pt, k):
        ds = dsig_field.components(pt, k)
        out = np.empty(d, dtype=object)
        for c in range(d):
            acc = ds[0, 0, c]
            for e in range(1, d):
                acc = acc + ds[e, e, c]
            out[c] = acc
        return out

    trace_field = TensorField(
        sigma_field.chart, "u", trace_eval, weight=sigma_field.weight,
        name="div(sigma)",
    )
    ddiv = covariant_derivative(trace_field, conn).components(point, order)
    P = pack.schouten(point, order)

    middle = np.empty(d, dtype=object)
    for c in range(d):
        acc = dsig[0, 0, c]
        for e in range(1, d):
            acc = acc + dsig[e, e, c]
        middle[c] = acc * (-1.0 / (n + 2))
    bottom = None
    for e in range(d):
        term = ddiv[e, e]
        bottom = term if bottom is None else bottom + term
    bottom = bottom * (1.0 / ((n + 1) * (n + 2)))
    psig = None
    for a in range(d):
        for b in range(d):
            term = P[a, b] * sigma[a, b]
            psig = term if psig is None else psig + term
    bottom = bottom + psig * (1.0 / (n + 1))

    m = d + 1
    H = np.empty((m, m), dtype=object)
    H[0, 0] = bottom
    for a in range(d):
        H[0, 1 + a] = middle[a]
        H[1 + a, 0] = middle[a]
        for b in range(d):
            H[1 + a, 1 + b] = sigma[a, b]
    return TractorValue(H, "uu", 0, s)


def l_tau(
    calc: TractorCalculus,
    point: Point,
    order: int,
    s: Splitting | None = None,
) -> TractorValue:
    """The defining-density tractor metric L(tau) as a section of S^2 T*.

    In the Levi-Civita splitting its column is ``(tau; 0; P_ab tau)``; any
    other splitting is reached by the change map.  The Schouten tensor of a
    special connection is symmetric, so this is a bundle metric.
    """
    d = calc.dim
    tau = calc.tau_jet(point, order)
    P = calc.pack_of(calc.levi_civita_splitting).schouten(point, order)
    space = jet_space(d, order)
    zero = space.constant(0.0)
    m = d + 1
    G = np.empty((m, m), dtype=object)
    G[0, 0] = tau
    for a in range(d):
        G[0, 1 + a] = zero
        G[1 + a, 0] = zero
        for b in range(d):
            G[1 + a, 1 + b] = P[a, b] * tau
    tv = TractorValue(G, "dd", 0, calc.levi_civita_splitting)
    if s is not None and s != calc.levi_civita_splitting:
        tv = calc.in_splitting(tv, s, point)
    return tv


def tractor_metric_inverse(tv: TractorValue) -> TractorValue:
    """Fiberwise inverse of a symmetric tractor two-tensor.

    Raises ``PoleError`` through the jet layer when the fiber Gram matrix is
    numerically degenerate, which is how degenerate boundary geometries
    announce themselves.
    """
    if tv.n_form != 0 or len(tv.tvariance) != 2:
        raise ValueError("tractor_metric_inverse expects a pure two-tensor")
    inv = jet_matrix_inverse(tv.components)
    flip = {"u": "d", "d": "u"}
    return TractorValue(
        inv, flip[tv.tvariance[0]] + flip[tv.tvariance[1]], 0, tv.splitting
    )


def s2t_slots(tv: TractorValue) -> tuple[np.ndarray, np.ndarray, Jet]:
    """(top sigma^ab, middle nu^a, bottom scalar) of an S^2 T value."""
    H = tv.components
    return H[1:, 1:], H[0, 1:].copy(), H[0, 0]


def s2tstar_slots(tv: TractorValue) -> tuple[Jet, np.ndarray, np.ndarray]:
    """(top scalar, middle lambda_a, bottom Phi_ab) of an S^2 T* value."""
    G = tv.components
    return G[0, 0], G[0, 1:].copy(), G[1:, 1:]


# -- metricity residual ----------------------------------------------------


def metricity_residual(
    calc: TractorCalculus,
    upsilon_from_lc: Callable[[Point, int], np.ndarray] | None,
    points: Sequence[Point],
    order: int = 1,
) -> dict:
    """How far a candidate connection is from being the metric one.

    The candidate is the projective modification of the Levi-Civita
    connection by the given one-form.  The residual combines the metric
    compatibility defect ``|D' g|`` with the middle slot of the metricity
    tractor expressed in the candidate's splitting; both vanish exactly when
    the candidate is the Levi-Civita connection itself.
    """
    if upsilon_from_lc is None:
        s = calc.levi_civita_splitting
        conn = calc.lc
    else:
        s = calc.splitting_from_lc(upsilon_from_lc)
        conn = calc.connection_of(s)
    gfield = calc.geom.metric_field()
    dg_field = covariant_derivative(gfield, conn)
    sigma = calc.metricity_field()
    compat = 0.0
    middle = 0.0
    scale = 0.0
    for p in points:
        dg = jet_values(dg_field.components(p, 0))
        compat = max(compat, float(np.max(np.abs(dg))))
        g = jet_values(gfield.components(p, 0))
        scale = max(scale, float(np.max(np.abs(g))))
        lifted = bgg_split_metricity(calc, sigma, s, p, order)
        _, nu, _ = s2t_slots(lifted)
        middle = max(middle, float(np.max(np.abs(jet_values(nu)))))
    total = compat / (1.0 + scale) + middle
    return {
        "residual": total,
        "compatibility_defect": compat,
        "middle_slot": middle,
        "splitting": s.label,
    }


# -- curvature ---------------------------------------------------------------


def tractor_curvature(
    calc: TractorCalculus,
    s: Splitting,
    point: Point,
    order: int,
    contorsion: "TractorConnection | None" = None,
) -> TractorValue:
    """Curvature of the (possibly contorsioned) tractor connection.

    Computed as the commutator of coupled derivatives along coordinate
    directions (whose brackets vanish):
    ``kappa_ab = d_a Omega_b - d_b Omega_a + [Omega_a, Omega_b]``.
    The result is an End(T)-valued two-form, antisymmetric in the form
    indices by construction.
    """
    d = calc.dim
    if contorsion is not None:
        omega = contorsion.matrices(point, order + 1)
    else:
        omega = calc.connection_matrices(s, point, order + 1)
    m = d + 1
    zero = jet_space(d, order).constant(0.0)
    kappa = np.empty((d, d, m, m), dtype=object)
    domega = np.empty((d, d, m, m), dtype=object)
    for a in range(d):
        for i in range(m):
            for j in range(m):
                for b in range(d):
                    domega[b, a, i, j] = omega[a, i, j].partial(b)
    for a in range(d):
        kappa[a, a, :, :] = zero
        for b in range(a + 1, d):
            comm = np.tensordot(omega[a], omega[b], axes=([1], [0])) - np.tensordot(
                omega[b], omega[a], axes=([1], [0])
            )
            block = domega[a, b] - domega[b, a] + comm
            kappa[a, b] = block
            kappa[b, a] = -block
    return TractorValue(kappa, "ud", 2, s)


def standard_curvature_blocks(
    calc: TractorCalculus, s: Splitting, point: Point, order: int
) -> np.ndarray:
    """Expected standard tractor curvature assembled from (Weyl, Cotton).

    The endomorphism block is the projective Weyl tensor, the bottom-left
    slot the Cotton tensor (in the sign convention of module ``affine``),
    the diagonal scalar the Ricci antisymmetry ``beta`` (zero for special
    connections), and the top-right slot vanishes.
    """
    d = calc.dim
    pack = calc.pack_of(s)
    C = pack.weyl(point, order)
    Y = pack.cotton(point, order)
    beta = pack.beta(point, order)
    zero = jet_space(d, order).constant(0.0)
    m = d + 1
    kappa = np.empty((d, d, m, m), dtype=object)
    for a in range(d):
        for b in range(d):
            kappa[a, b, 0, 0] = beta[a, b]
            for c in range(d):
                kappa[a, b, 1 + c, 0] = zero
                kappa[a, b, 0, 1 + c] = Y[a, b, c]
                for e in range(d):
                    kappa[a, b, 1 + c, 1 + e] = C[a, b, c, e]
    return kappa


# -- the metric tractor connection (contorsion) ------------------------------


@dataclass
class TractorConnection:
    """A tractor connection: base splitting plus an optional contorsion.

    ``matrices(point, order)`` returns the full connection matrices
    ``Omega + Psi`` in the base splitting; the standard connection has
    ``Psi = 0``.
    """

    calc: TractorCalculus
    splitting: Splitting
    contorsion: Callable[[Point, int], np.ndarray] | None = None
    name: str = "tractor-connection"

    def matrices(self, point: Point, order: int) -> np.ndarray:
        omega = self.calc.connection_matrices(self.splitting, point, order)
        if self.contorsion is None:
            return omega
        psi = self.contorsion(point, order)
        return omega + psi

    def contorsion_matrices(self, point: Point, order: int) -> np.ndarray:
        d = self.calc.dim
        if self.contorsion is not None:
            return self.contorsion(point, order)
        zero = jet_space(d, order).constant(0.0)
        psi = np.empty((d, d + 1, d + 1), dtype=object)
        psi[...] = zero
        return psi

    def derivative(self, tv: TractorValue, point: Point) -> TractorValue:
        if tv.splitting != self.splitting:
            raise ValueError("value is expressed in a different splitting")
        return std_tractor_derivative(self.calc, tv, point, contorsion=self)

    def curvature(self, point: Point, order: int) -> TractorValue:
        return tractor_curvature(
            self.calc, self.splitting, point, order, contorsion=self
        )


def contorsion_slots_lc(
    calc: TractorCalculus, point: Point, order: int
) -> np.ndarray:
    """The endomorphism slot ``A_a^b_c`` of the metricity contorsion.

    ``A_a^b_c = P^bd (D_a P_dc + D_c P_da - D_d P_ac) / 2`` in the
    Levi-Civita scale: the Koszul-type correction built from the Schouten
    tensor, symmetric in the lower pair.  The sign is pinned by metric
    compatibility of the resulting connection for L(tau) (flipping it gives
    a compatibility defect of exactly twice the derivative of L(tau)).
    """
    d = calc.dim
    pack = calc.pack_of(calc.levi_civita_splitting)
    P = pack.schouten(point, order)
    dP = pack.schouten_derivative(point, order)
    Pinv = jet_matrix_inverse(P)
    A = np.empty((d, d, d), dtype=object)
    for a in range(d):
        for c in range(a, d):
            combo = np.empty(d, dtype=object)
            for e in range(d):
                combo[e] = dP[a, e, c] + dP[c, e, a] - dP[e, a, c]
            for b in range(d):
                acc = None
                for e in range(d):
                    term = Pinv[b, e] * combo[e]
                    acc = term if acc is None else acc + term
                A[a, b, c] = acc * 0.5
                A[c, b, a] = A[a, b, c]
    return A


def metricity_contorsion(
    calc: TractorCalculus, s: Splitting | None = None
) -> TractorConnection:
    """The torsion-free modification making the tractor connection metric
    for L(tau).

    The contorsion has only the endomorphism slot in the Levi-Civita
    splitting; other splittings are reached through the endomorphism change
    law (conjugation by the fiber change map), which populates the
    bottom-left slot with ``-A_a^d_c Y_d``.
    """
    if s is None:
        s = calc.reference
    d = calc.dim

    def psi_matrices(point: Point, order: int) -> np.ndarray:
        A = contorsion_slots_lc(calc, point, order)
        m = d + 1
        zero = jet_space(d, order).constant(0.0)
        psi = np.empty((d, m, m), dtype=object)
        psi[...] = zero
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    psi[a, 1 + b, 1 + c] = A[a, b, c]
        tv = TractorValue(psi, "ud", 1, calc.levi_civita_splitting)
        tv = calc.in_splitting(tv, s, point)
        return tv.components

    return TractorConnection(calc, s, psi_matrices, name="metric-tractor")


def metric_tractor_curvature_blocks(
    calc: TractorCalculus, point: Point, order: int
) -> np.ndarray:
    """Curvature of the metric tractor connection from its block formula.

    Assembled independently of the commutator route, in the reference
    splitting: with ``A`` the contorsion slot, ``psi_ac = -A_a^d_c Y_d``
    (``Y = d(rho)/(2 rho)``), Weyl/Cotton/Schouten of the rho-modified
    connection, the endomorphism block is
    ``C + 2 D_[a A_b] - 2 psi_d[a delta_b] + 2 A_e^c_[a A_b]^e_d`` and the
    bottom slot ``Y + 2 D_[a psi_b] - 2 P_e[a A_b]^e_d + 2 psi_e[a A_b]^e_d``;
    the right column vanishes (torsion freeness).
    """
    d = calc.dim
    s = calc.reference
    pack = calc.pack_of(s)
    conn = calc.connection_of(s)
    C = pack.weyl(point, order)
    Y = pack.cotton(point, order)
    Phat = pack.schouten(point, order)

    tc = metricity_contorsion(calc, s)
    psi_raw = tc.contorsion_matrices(point, order + 1)
    A = np.empty((d, d, d), dtype=object)
    psi = np.empty((d, d), dtype=object)
    for a in range(d):
        for c in range(d):
            psi[a, c] = psi_raw[a, 0, 1 + c]
            for b in range(d):
                A[a, b, c] = psi_raw[a, 1 + b, 1 + c]

    # Coupled covariant derivatives of A (valence [form d, u, d]) and psi.
    G = conn.christoffels(point, order)
    dA = np.empty((d, d, d, d), dtype=object)
    for e in range(d):
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    acc = A[a, b, c].partial(e)
                    for f in range(d):
                        acc = acc - G[f, e, a] * A[f, b, c]
                        acc = acc + G[b, e, f] * A[a, f, c]
                        acc = acc - G[f, e, c] * A[a, b, f]
                    dA[e, a, b, c] = acc
    dpsi = np.empty((d, d, d), dtype=object)
    for e in range(d):
        for a in range(d):
            for c in range(d):
                acc = psi[a, c].partial(e)
                for f in range(d):
                    acc = acc - G[f, e, a] * psi[f, c]
                    acc = acc - G[f, e, c] * psi[a, f]
                dpsi[e, a, c] = acc

    m = d + 1
    zero = jet_space(d, order).constant(0.0)
    kappa = np.empty((d, d, m, m), dtype=object)
    for a in range(d):
        for b in range(d):
            kappa[a, b, 0, 0] = zero
            for c in range(d):
                kappa[a, b, 1 + c, 0] = zero
    for a in range(d):
        for b in range(a, d):
            for c in range(d):
                for e in range(d):
                    val = C[a, b, c, e] + dA[a, b, c, e] - dA[b, a, c, e]
                    if c == a:
                        val = val + psi[b, e]
                    if c == b:
                        val = val - psi[a, e]
                    for f in range(d):
                        val = val + A[a, c, f] * A[b, f, e]
                        val = val - A[b, c, f] * A[a, f, e]
                    kappa[a, b, 1 + c, 1 + e] = val
                    if a != b:
                        kappa[b, a, 1 + c, 1 + e] = -val
            for e in range(d):
                val = Y[a, b, e] + dpsi[a, b, e] - dpsi[b, a, e]
                for f in range(d):
                    val = val - Phat[f, a] * A[b, f, e] + Phat[f, b] * A[a, f, e]
                    val = val + psi[a, f] * A[b, f, e] - psi[b, f] * A[a, f, e]
                kappa[a, b, 0, 1 + e] = val
                if a != b:
                    kappa[b, a, 0, 1 + e] = -val
    return kappa


# -- helpers for checks -------------------------------------------------------


def polynomial_tractor_section(
    calc: TractorCalculus,
    point: Point,
    order: int,
    rng: np.random.Generator,
    s: Splitting | None = None,
    degree: int = 2,
) -> TractorValue:
    """A random polynomial section of T, as jets at one point."""
    d = calc.dim
    s = s or calc.reference
    space = jet_space(d, order)
    xs = [space.variable(i, float(point[i])) - float(point[i]) for i in range(d)]
    comps = np.empty(d + 1, dtype=object)
    for slot in range(d + 1):
        val = space.constant(float(rng.uniform(-1, 1)))
        for i in range(d):
            val = val + float(rng.uniform(-1, 1)) * xs[i]
        if degree >= 2:
            for i in range(d):
                for j in range(i, d):
                    val = val + float(rng.uniform(-0.5, 0.5)) * xs[i] * xs[j]
        comps[slot] = val
    return TractorValue(comps, "u", 0, s)
