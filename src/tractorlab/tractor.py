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

Every tractor quantity is evaluated at a batch of points ``(B, d)`` (one
point is a batch of one) as a dense jet array (module ``jets``) of shape
``(d,)*n_form + (n+2,)*n_tractor + (B, ncoeff)``: spacetime form axes first
(derivative index outermost), then the tractor axes in fiber layout, then
the batch axis and the Taylor coefficients.  The connection matrices are
``(d, n+2, n+2, B, ncoeff)`` arrays indexed ``[a, i, j]``; curvatures are
``(d, d, n+2, n+2, B, ncoeff)``.

A splitting is the connection that makes it: a :class:`Splitting` carries
that connection, its curvature pack and its offset one-form from the
reference.  The reference splitting of a geometry is the one of the
rho-modified connection (smooth up to the boundary); the Levi-Civita
splitting has offset ``-d(rho)/(alpha rho)``.  The metric tractor
connection is the standard one of the reference splitting plus the
metricity contorsion, as connection matrices
(:func:`metric_tractor_omega`); :func:`curvature_of` is the one entry point
for the curvature of either, e.g. ``curvature_of(calc.omega(s, points,
order + 1), order)`` for the standard one in splitting ``s``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import (
    Connection,
    CurvaturePack,
    canonical_tau,
    covariant_derivative,
    levi_civita,
    levi_civita_jets,
    projective_change,
    projective_modify,
    rho_log_gradient,
    rho_one_form,
)
from .fields import Geometry, TensorField
from .jets import (
    JetSpace,
    jet_einsum,
    jet_gradient,
    jet_inverse,
    jet_mul,
    jet_reciprocal,
    jet_space,
)

__all__ = [
    "Splitting",
    "TractorValue",
    "TractorCalculus",
    "change_splitting",
    "std_tractor_derivative",
    "bgg_split_metricity",
    "l_tau",
    "tractor_metric_inverse",
    "s2t_slots",
    "curvature_of",
    "standard_curvature_blocks",
    "metricity_contorsion",
    "metric_tractor_omega",
    "metric_tractor_curvature_blocks",
    "polynomial_tractor_section",
]

#: Einsum letters for the axes of a tractor value ('a', 'x', 'y' are taken).
_AXES = "bcdefghijk"


@dataclass(frozen=True, eq=False)
class Splitting:
    """The splitting of the tractor bundle by a connection in the projective
    class, with that connection's curvature pack.

    ``upsilon`` is the offset of ``connection`` from the geometry's
    reference connection (the rho-modified one) as a one-form field;
    ``None`` denotes the reference splitting itself.  Two splittings are
    equal only when they are the same object.
    """

    connection: Connection
    pack: CurvaturePack
    upsilon: TensorField | None = None


@dataclass
class TractorValue:
    """A pointwise tractor tensor: one dense jet array over ``space``.

    ``data`` has shape ``(d,)*n_form + (n+2,)*len(tvariance) + (B,
    ncoeff)``: the spacetime form axes come first, then the tractor axes,
    whose variance is one letter each (``u`` upper, ``d`` lower), then the
    batch axis of its points.  Form axes are plain covariant
    spacetime slots that change-of-splitting leaves alone.
    """

    data: np.ndarray
    space: JetSpace
    tvariance: str
    n_form: int
    splitting: Splitting

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def rank(self) -> int:
        return self.n_form + len(self.tvariance)

    def values(self) -> np.ndarray:
        return self.data[..., 0]


def _on_axis(
    mat_spec: str, mat: np.ndarray, data: np.ndarray, axis: int, rank: int,
    space: JetSpace,
) -> np.ndarray:
    """Contract the fiber matrix ``mat`` with one of the ``rank`` tensor axes
    of ``data``.

    In ``mat_spec`` the letter ``y`` is summed against the axis and ``x``
    takes its place; any other letter leads the output."""
    idx = _AXES[:rank]
    lead = mat_spec.replace("x", "").replace("y", "")
    src = idx[:axis] + "y" + idx[axis + 1:]
    dst = idx[:axis] + "x" + idx[axis + 1:]
    return jet_einsum(f"{mat_spec},{src}->{lead}{dst}", mat, data, space)


def change_splitting(
    tv: TractorValue,
    upsilon: np.ndarray,
    new_splitting: Splitting | None = None,
) -> TractorValue:
    """Re-express a tractor tensor in the splitting offset by ``upsilon``.

    ``upsilon`` is the one-form of the *change* (target offset minus source
    offset), a dense ``(d, B, ncoeff)`` jet array of at least the value's
    order.  All tractor axes are transformed by the single fiber map ``S``
    (upper axes) or its inverse transpose (lower axes); this is a group
    action: composing changes by Y1 then Y2 equals one change by Y1 + Y2.
    """
    space = tv.space
    u = upsilon[..., : space.ncoeff]
    m = u.shape[0] + 1
    eye = np.zeros((m, m) + u.shape[1:])
    eye[np.arange(m), np.arange(m), ..., 0] = 1.0
    S, T = eye, eye.copy()
    S[0, 1:] = -u
    T[1:, 0] = u
    data = tv.data
    for k, var in enumerate(tv.tvariance):
        mat = S if var == "u" else T
        data = _on_axis("xy", mat, data, tv.n_form + k, tv.rank, space)
    return TractorValue(
        data, space, tv.tvariance, tv.n_form,
        new_splitting if new_splitting is not None else tv.splitting,
    )


class TractorCalculus:
    """Tractor-calculus context for one geometry.

    Owns the metric field ``metric`` (one for its lifetime, read by every
    quantity of the calculus and by the check that holds it), the reference
    and Levi-Civita splittings (``reference``, ``levi_civita_splitting``)
    with their connections and curvature packs, the rho-modified connection
    ``hat`` (the reference one), the canonical density ``tau``, and the
    splitting-dependent tractor connection matrices (:meth:`omega`, built on
    each call).  It is the only builder of these objects: a suite session
    makes one for each check it runs and one for its probes, and a CLI
    evaluation makes one, so each memo has one owner and ends with the
    check.  Nothing caches a calculus, or anything evaluated, on its
    ``Geometry``.
    """

    def __init__(self, geom: Geometry):
        self.geom = geom
        self.dim = geom.dim
        self.n = geom.dim - 1
        self.metric = geom.metric_field()
        lc = levi_civita(self.metric)
        rho_form = rho_one_form(geom)  # one memo for hat and the Levi-Civita offset
        self.hat = projective_modify(lc, rho_form)
        self.tau = canonical_tau(self.metric)
        self.reference = self._split(self.hat, None)
        # Closures here capture locals, never ``self``: a reference cycle
        # would keep every calculus and its memoized arrays alive until a
        # full garbage collection.
        self.levi_civita_splitting = self._split(lc, TensorField(
            geom.chart, "d", lambda points, order: -rho_form.dense(points, order)
        ))

    # -- splittings -----------------------------------------------------

    def _split(self, conn: Connection, upsilon: TensorField | None) -> Splitting:
        return Splitting(conn, CurvaturePack(conn, self.metric), upsilon)

    def splitting(self, upsilon: TensorField) -> Splitting:
        """A new splitting with the given offset one-form from the
        reference."""
        return self._split(projective_modify(self.hat, upsilon), upsilon)

    def hat_christoffel_values(self, rho: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Christoffel values ``(d, d, d, B)`` of ``hat`` at a batch of
        interior points, from the order-1 rho jets ``(B, ncoeff)`` and
        metric jets ``(d, d, B, ncoeff)`` of one run there
        (``Geometry.rho_and_metric``): the value slice of
        ``hat.dense(points, 0)``, bit for bit.  It is the package's one
        formula for the values of ``hat``: the stages of the geodetic
        transversals and every boundary limit of the connection take
        them from here."""
        u = rho_log_gradient(rho, self.geom.alpha, jet_space(self.dim, 0))
        return projective_change(levi_civita_jets(g, 0)[..., 0], u[..., 0])

    def in_splitting(self, tv: TractorValue, target: Splitting, points: np.ndarray):
        """``tv`` re-expressed in the splitting ``target``, changed by the
        difference of the two offsets (the reference's is zero)."""
        if tv.splitting is target:
            return tv
        to, frm = (
            0.0 if s.upsilon is None else s.upsilon.dense(points, tv.order)
            for s in (target, tv.splitting)
        )
        return change_splitting(tv, to - frm, target)

    # -- scalar data ------------------------------------------------------

    def tau_hat_dense(self, points: np.ndarray, order: int) -> np.ndarray:
        """Dense jets ``(B, ncoeff)`` of tau / rho at a batch of interior
        points (smooth up to the boundary)."""
        space = jet_space(self.dim, order)
        inv_rho = jet_reciprocal(self.geom.rho_dense(points, order), space)
        return jet_mul(self.tau.dense(points, order), inv_rho, space)

    def metricity_field(self) -> TensorField:
        """The metricity-equation candidate ``tau^-1 g^ab`` (weight -2)."""
        if not hasattr(self, "_sigma_field"):
            gfield, dim, tau = self.metric, self.dim, self.tau

            def evaluator(points, order):
                space = jet_space(dim, order)
                ginv = jet_inverse(gfield.dense(points, order), space)
                inv_tau = jet_reciprocal(tau.dense(points, order), space)
                return jet_mul(ginv, inv_tau, space)

            self._sigma_field = TensorField(
                self.geom.chart, "uu", evaluator, weight=-2.0, name="metricity"
            )
        return self._sigma_field

    # -- connection matrices ----------------------------------------------

    def omega(self, s: Splitting, points: np.ndarray, order: int) -> np.ndarray:
        """``Omega_a`` of the standard tractor connection in splitting ``s``
        at a batch of points, a ``(d, n+2, n+2, B, ncoeff)`` array."""
        d = self.dim
        conn = s.connection
        G = conn.dense(points, order)
        P = s.pack.dense("schouten", points, order)
        gamma = conn.trace_gamma(points, order) / (d + 1.0)
        eye = np.eye(d)
        omega = np.zeros((d, d + 1, d + 1) + G.shape[3:])
        omega[:, 0, 0] = -gamma
        omega[:, 0, 1:] = -P
        omega[:, 1:, 0, :, 0] = eye[..., None]
        omega[:, 1:, 1:] = G.swapaxes(0, 1) - np.einsum("be,a...->abe...", eye, gamma)
        return omega

    def connection_matrices(self, s: Splitting, point: np.ndarray, order: int) -> np.ndarray:
        """:meth:`omega` at a batch of points ``point``; kept as a method,
        with its parameter names, because the benchmark tracer
        (``perfbench/tracer.py``) counts its calls."""
        return self.omega(s, point, order)


# -- derivatives --------------------------------------------------------


def std_tractor_derivative(
    calc: TractorCalculus,
    tv: TractorValue,
    points: np.ndarray,
    omega: np.ndarray | None = None,
) -> TractorValue:
    """Coupled tractor covariant derivative in the value's own splitting.

    Acts by the Leibniz rule on every tractor axis (upper axes get
    ``+Omega``, lower axes ``-Omega^T``); existing spacetime form axes ride
    along uncoupled, which is the right bookkeeping for curvature by
    commutators along coordinate directions.  The new form axis is axis 0
    and the output order drops by one.  ``omega`` gives the connection
    matrices at the value's order minus one, e.g. the metric tractor
    connection's (:func:`metric_tractor_omega`) built once for several
    values; by default they are the standard ones of the value's splitting.
    """
    k = tv.order
    if k < 1:
        raise ValueError("need jets of order >= 1 to differentiate")
    if omega is None:
        omega = calc.omega(tv.splitting, points, k - 1)
    lower = jet_space(calc.dim, k - 1)
    out = jet_gradient(tv.data, tv.space)
    for kax, var in enumerate(tv.tvariance):
        axis = tv.n_form + kax
        if var == "u":
            out = out + _on_axis("axy", omega, tv.data, axis, tv.rank, lower)
        else:
            out = out - _on_axis("ayx", omega, tv.data, axis, tv.rank, lower)
    return TractorValue(out, lower, tv.tvariance, tv.n_form + 1, tv.splitting)


# -- the BGG splitting operator on S^2 T ----------------------------------


def bgg_split_metricity(
    calc: TractorCalculus,
    sigma_field: TensorField,
    s: Splitting,
    points: np.ndarray,
    order: int,
) -> TractorValue:
    """Splitting-operator lift of a symmetric weight -2 section to S^2 T.

    In the splitting of a connection ``D`` with Schouten ``P`` the three
    slots are ``(sigma^ab; -D_d sigma^dc/(n+2);
    D_d D_e sigma^de/((n+1)(n+2)) + P_de sigma^de/(n+1))``.
    """
    n = calc.n
    space = jet_space(calc.dim, order)
    conn = s.connection
    sigma = sigma_field.dense(points, order)
    dsig_field = covariant_derivative(sigma_field, conn)
    trace_field = TensorField(
        sigma_field.chart, "u",
        lambda pt, k: np.einsum("eec...->c...", dsig_field.dense(pt, k)),
        weight=sigma_field.weight, name="div(sigma)",
    )
    ddiv = covariant_derivative(trace_field, conn).dense(points, order)
    P = s.pack.dense("schouten", points, order)

    middle = np.einsum("eec...->c...", dsig_field.dense(points, order)) * (
        -1.0 / (n + 2)
    )
    bottom = np.einsum("ee...->...", ddiv) * (1.0 / ((n + 1) * (n + 2))) + jet_einsum(
        "ab,ab->", P, sigma, space
    ) * (1.0 / (n + 1))
    H = np.empty((calc.dim + 1,) * 2 + sigma.shape[2:])
    H[0, 0] = bottom
    H[0, 1:] = middle
    H[1:, 0] = middle
    H[1:, 1:] = sigma
    return TractorValue(H, space, "uu", 0, s)


def l_tau(
    calc: TractorCalculus,
    points: np.ndarray,
    order: int,
    s: Splitting | None = None,
) -> TractorValue:
    """The defining-density tractor metric L(tau) as a section of S^2 T*.

    In the Levi-Civita splitting its column is ``(tau; 0; P_ab tau)``; any
    other splitting is reached by the change map.  The Schouten tensor of a
    special connection is symmetric, so this is a bundle metric.
    """
    space = jet_space(calc.dim, order)
    tau = calc.tau.dense(points, order)
    P = calc.levi_civita_splitting.pack.dense("schouten", points, order)
    G = np.zeros((calc.dim + 1,) * 2 + tau.shape)
    G[0, 0] = tau
    G[1:, 1:] = jet_mul(P, tau, space)
    tv = TractorValue(G, space, "dd", 0, calc.levi_civita_splitting)
    if s is not None:
        tv = calc.in_splitting(tv, s, points)
    return tv


def tractor_metric_inverse(tv: TractorValue) -> TractorValue:
    """Fiberwise inverse of a symmetric tractor two-tensor.

    Raises ``PoleError`` through the jet layer when the fiber Gram matrix is
    numerically degenerate, which is how degenerate boundary geometries
    announce themselves.
    """
    if tv.n_form != 0 or len(tv.tvariance) != 2:
        raise ValueError("tractor_metric_inverse expects a pure two-tensor")
    flip = {"u": "d", "d": "u"}
    return TractorValue(
        jet_inverse(tv.data, tv.space), tv.space,
        flip[tv.tvariance[0]] + flip[tv.tvariance[1]], 0, tv.splitting,
    )


def s2t_slots(tv: TractorValue) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(top sigma^ab, middle nu^a, bottom scalar) of an S^2 T value, as
    dense jet arrays."""
    H = tv.data
    return H[1:, 1:], H[0, 1:], H[0, 0]


# -- curvature ---------------------------------------------------------------


def _skew(x: np.ndarray) -> np.ndarray:
    """``x[a, b, ...] - x[b, a, ...]``, exactly antisymmetric."""
    return x - x.swapaxes(0, 1)


def curvature_of(omega: np.ndarray, order: int) -> np.ndarray:
    """Curvature of the tractor connection with matrices ``omega`` (a dense
    ``(d, n+2, n+2, B, ncoeff)`` array at jet order ``order + 1``).

    Computed as the commutator of coupled derivatives along coordinate
    directions (whose brackets vanish):
    ``kappa_ab = d_a Omega_b - d_b Omega_a + [Omega_a, Omega_b]``.
    The result, a dense ``(d, d, n+2, n+2, B, ncoeff)`` array at jet order
    ``order``, is an End(T)-valued two-form, antisymmetric in the form
    indices by construction.
    """
    d = omega.shape[0]
    space = jet_space(d, order)
    domega = jet_gradient(omega, jet_space(d, order + 1))  # d_a Omega_b
    prod = jet_einsum("aij,bjk->abik", omega, omega, space)  # Omega_a Omega_b
    return _skew(domega) + _skew(prod)


def standard_curvature_blocks(
    calc: TractorCalculus, s: Splitting, points: np.ndarray, order: int
) -> np.ndarray:
    """Expected standard tractor curvature assembled from (Weyl, Cotton).

    The endomorphism block is the projective Weyl tensor, the bottom-left
    slot the Cotton tensor (in the sign convention of module ``affine``),
    the diagonal scalar the Ricci antisymmetry ``beta`` (zero for special
    connections), and the top-right slot vanishes.  Returns the dense
    ``(d, d, n+2, n+2, B, ncoeff)`` array.
    """
    d = calc.dim
    pack = s.pack
    beta = pack.dense("beta", points, order)
    kappa = np.zeros((d, d, d + 1, d + 1) + beta.shape[2:])
    kappa[:, :, 0, 0] = beta
    kappa[:, :, 0, 1:] = pack.dense("cotton", points, order)
    kappa[:, :, 1:, 1:] = pack.dense("weyl", points, order)
    return kappa


# -- the metric tractor connection (contorsion) ------------------------------


def contorsion_slots_lc(
    calc: TractorCalculus, points: np.ndarray, order: int
) -> np.ndarray:
    """The endomorphism slot ``A_a^b_c`` of the metricity contorsion.

    ``A_a^b_c = P^bd (D_a P_dc + D_c P_da - D_d P_ac) / 2`` in the
    Levi-Civita scale: the Koszul-type correction built from the Schouten
    tensor, symmetric in the lower pair (symmetrized exactly, since the
    Schouten jets are symmetric only up to rounding).  The sign is pinned by
    metric compatibility of the resulting connection for L(tau) (flipping it
    gives a compatibility defect of exactly twice the derivative of L(tau)).
    Returns the dense ``(d, d, d, B, ncoeff)`` array ``A[a, b, c]``.
    """
    space = jet_space(calc.dim, order)
    pack = calc.levi_civita_splitting.pack
    Pinv = jet_inverse(pack.dense("schouten", points, order), space)
    dP = pack.dense("schouten_derivative", points, order)  # dP[a, e, c] = D_a P_ec
    combo = dP + dP.swapaxes(0, 2) - dP.swapaxes(0, 1)
    A = jet_einsum("be,aec->abc", Pinv, combo, space)
    return 0.25 * (A + A.swapaxes(0, 2))


def metricity_contorsion(
    calc: TractorCalculus, points: np.ndarray, order: int
) -> np.ndarray:
    """The contorsion ``Psi`` whose torsion-free modification of the
    standard tractor connection is metric for L(tau), in the reference
    splitting: a dense ``(d, n+2, n+2, B, ncoeff)`` array.

    It has only the endomorphism slot in the Levi-Civita splitting; the
    endomorphism change law (conjugation by the fiber change map) carries it
    to the reference splitting and populates the bottom-left slot with
    ``-A_a^d_c Y_d``.
    """
    d = calc.dim
    A = contorsion_slots_lc(calc, points, order)
    psi = np.zeros((d, d + 1, d + 1) + A.shape[3:])
    psi[:, 1:, 1:] = A
    tv = TractorValue(psi, jet_space(d, order), "ud", 1, calc.levi_civita_splitting)
    return calc.in_splitting(tv, calc.reference, points).data


def metric_tractor_omega(
    calc: TractorCalculus, points: np.ndarray, order: int
) -> np.ndarray:
    """Connection matrices ``Omega + Psi`` of the metric tractor connection
    in the reference splitting at a batch of points."""
    return calc.omega(calc.reference, points, order) + metricity_contorsion(
        calc, points, order
    )


def metric_tractor_curvature_blocks(
    calc: TractorCalculus, points: np.ndarray, order: int
) -> np.ndarray:
    """Curvature of the metric tractor connection from its block formula.

    Assembled independently of the commutator route, in the reference
    splitting: with ``A`` the contorsion slot, ``psi_ac = -A_a^d_c Y_d``
    (``Y = d(rho)/(2 rho)``), Weyl/Cotton/Schouten of the rho-modified
    connection, the endomorphism block is
    ``C + 2 D_[a A_b] - 2 psi_d[a delta_b] + 2 A_e^c_[a A_b]^e_d`` and the
    bottom slot ``Y + 2 D_[a psi_b] - 2 P_e[a A_b]^e_d + 2 psi_e[a A_b]^e_d``;
    the right column vanishes (torsion freeness).  Returns the dense
    ``(d, d, n+2, n+2, B, ncoeff)`` array.
    """
    d = calc.dim
    space, upper = jet_space(d, order), jet_space(d, order + 1)
    pack = calc.reference.pack
    G = calc.hat.dense(points, order)

    psi_raw = metricity_contorsion(calc, points, order + 1)
    A = psi_raw[:, 1:, 1:]  # A[a, b, c]
    psi = psi_raw[:, 0, 1:]  # psi[a, c]

    # Coupled covariant derivatives (derivative index first) of A, psi.
    dA = (
        jet_gradient(A, upper)
        - jet_einsum("fea,fbc->eabc", G, A, space)
        + jet_einsum("bef,afc->eabc", G, A, space)
        - jet_einsum("fec,abf->eabc", G, A, space)
    )
    dpsi = (
        jet_gradient(psi, upper)
        - jet_einsum("fea,fc->eac", G, psi, space)
        - jet_einsum("fec,af->eac", G, psi, space)
    )
    A, psi = A[..., : space.ncoeff], psi[..., : space.ncoeff]
    # psi_b^e delta_a^c and A_a^c_f A_b^f_e, before antisymmetrizing in ab
    psi_delta = np.einsum("ca,be...->abce...", np.eye(d), psi)
    AA = jet_einsum("acf,bfe->abce", A, A, space)
    # (psi_a^f - P_f^a) A_b^f_e
    PA = jet_einsum(
        "af,bfe->abe", psi - pack.dense("schouten", points, order).swapaxes(0, 1),
        A, space,
    )

    kappa = np.zeros((d, d, d + 1, d + 1) + A.shape[3:])
    kappa[:, :, 1:, 1:] = pack.dense("weyl", points, order) + _skew(dA + psi_delta + AA)
    kappa[:, :, 0, 1:] = pack.dense("cotton", points, order) + _skew(dpsi + PA)
    return kappa


# -- helpers for checks -------------------------------------------------------


def polynomial_tractor_section(
    calc: TractorCalculus,
    points: np.ndarray,
    order: int,
    rng: np.random.Generator,
    s: Splitting | None = None,
) -> TractorValue:
    """A random polynomial section of T, as jets at each point of a batch
    ``(B, d)``.

    Each slot is ``c + c_i x^i + c_ij x^i x^j`` (``i <= j``) in coordinates
    ``x`` centred at the point, with ``c, c_i`` uniform in [-1, 1) and
    ``c_ij`` in [-0.5, 0.5), drawn slot by slot in that order; the points'
    sections are drawn one after the other, so a batch draws what batches
    of one, one per point, draw.
    """
    d = calc.dim
    space = jet_space(d, order)
    iu, ju = np.triu_indices(d)
    draws = rng.random((len(points), d + 1, 1 + d + len(iu)))
    coef = np.concatenate(
        [-1.0 + 2.0 * draws[..., : 1 + d], -0.5 + draws[..., 1 + d :]], axis=-1
    )
    x = np.zeros((d, space.ncoeff))  # the coordinates centred at the point
    x[:, 1 : 1 + d] = np.eye(d)[:, : space.ncoeff - 1]
    xx = jet_mul(x[:, None], x[None, :], space)[iu, ju]
    basis = np.vstack([np.eye(1, space.ncoeff), x, xx])
    data = np.ascontiguousarray((coef @ basis).swapaxes(0, 1))  # (n+2, B, ncoeff)
    return TractorValue(data, space, "u", 0, s or calc.reference)
