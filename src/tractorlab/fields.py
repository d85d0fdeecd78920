"""Coordinate charts with boundary, tensor-field evaluators and the catalog
of model geometries.

A :class:`Geometry` is one coordinate chart carrying a metric (or an explicit
connection), a boundary defining function ``rho`` (interior where
``rho > 0``, boundary at ``rho = 0``) and the compactness order ``alpha``.
Fields evaluate to dense jet arrays (module ``jets``), so every derivative
needed downstream comes out of one evaluation.

Boundary points are represented in-chart with ``rho`` numerically zero.
Fields with ``1/rho`` factors are never evaluated there -- jets raise
``PoleError`` instead -- and boundary values always come from extrapolation
(module ``boundary``) or from closed forms that are manifestly smooth up to
the boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import expr as ex
from .jets import JetError, jet_space

__all__ = [
    "Chart",
    "TensorField",
    "Geometry",
    "GeometryError",
    "builtin_geometry",
    "load_geometry",
    "BUILTIN_NAMES",
    "GEOMETRY_DOC_SCHEMA",
]


def point_key(points: np.ndarray) -> bytes:
    """Memo key of a batch of points ``(B, dim)``: the bytes of its rows, so
    that every evaluation on the same rows shares one entry."""
    return np.ascontiguousarray(points, dtype=float).tobytes()


# -- values at a batch of points -----------------------------------------------
#
# A value array is the ``[..., 0]`` slice of a dense jet array: the tensor
# axes, then the batch axis.  These helpers do the linear algebra of such
# arrays one matrix at a time, through the LAPACK and BLAS calls of a single
# matrix, so each row gets the same bits in a batch of one as in a larger
# batch.


def _stack(x: np.ndarray, rank: int) -> np.ndarray:
    """The leading ``rank`` tensor axes of a value array moved last, as one
    contiguous stack over the batch."""
    return np.ascontiguousarray(np.moveaxis(x, range(rank), range(-rank, 0)))


def _unstack(x: np.ndarray, rank: int) -> np.ndarray:
    return np.moveaxis(x, range(-rank, 0), range(rank))


def value_inv(m: np.ndarray) -> np.ndarray:
    """Inverse of each value matrix of ``(d, d, B)``."""
    return _unstack(np.linalg.inv(_stack(m, 2)), 2)


def value_matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m @ v`` for value matrices ``(d, d, B)`` and vectors ``(d, B)``."""
    return _unstack((_stack(m, 2) @ _stack(v, 1)[..., None])[..., 0], 1)


def value_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for value matrices ``(d, d, B)``."""
    return _unstack(_stack(a, 2) @ _stack(b, 2), 2)


def value_vecmat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``v @ m`` for value vectors ``(d, B)`` and matrices ``(d, d, B)``."""
    return _unstack((_stack(v, 1)[..., None, :] @ _stack(m, 2))[..., 0, :], 1)


def value_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u @ v`` for value vectors ``(d, B)``: ``(B,)``."""
    return (_stack(u, 1)[..., None, :] @ _stack(v, 1)[..., None])[..., 0, 0]


def value_trace_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_ij a_ij b_ij`` for value matrices ``(d, d, B)``: ``(B,)``."""
    return np.sum(_stack(a * b, 2), axis=(-2, -1))


def value_outer(u: np.ndarray) -> np.ndarray:
    """``u_i u_j`` for value vectors ``(d, B)``."""
    return u[:, None] * u[None, :]


class GeometryError(ValueError):
    """Schema violations, parse errors and geometry validation failures."""


@dataclass(frozen=True)
class Chart:
    """A single coordinate chart; ``dim`` is the manifold dimension n+1."""

    coord_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.coord_names) < 2:
            raise GeometryError("charts need dimension >= 2")
        if len(set(self.coord_names)) != len(self.coord_names):
            raise GeometryError("duplicate coordinate names")

    @property
    def dim(self) -> int:
        return len(self.coord_names)

    def coords(self, points: np.ndarray) -> np.ndarray:
        """Coordinates of a batch of points ``(B, dim)`` as floats, checked
        against the chart; one point is a batch of one."""
        points = np.asarray(points, dtype=float)
        if points.shape[1:] != (self.dim,):
            raise GeometryError(
                f"points must be a (B, {self.dim}) array, got shape {points.shape}"
            )
        return points


def _canonical_index(idx: tuple[int, ...], sym: tuple[tuple[int, int], ...]):
    """Sort index positions inside symmetric orbits (fixpoint iteration)."""
    idx = list(idx)
    changed = True
    while changed:
        changed = False
        for a, b in sym:
            if idx[a] > idx[b]:
                idx[a], idx[b] = idx[b], idx[a]
                changed = True
    return tuple(idx)


class TensorField:
    """A tensor field given by an evaluator producing dense jet arrays.

    ``variance`` is one letter per index: ``"u"`` upper, ``"d"`` lower; the
    component array axes follow the same order.  ``weight`` is the projective
    density weight.  ``evaluator(points, order)`` takes
    a batch of points ``(B, dim)`` and returns the dense jet array of shape
    ``(dim,) * rank + (B, ncoeff)`` (module ``jets``), which :meth:`dense`
    passes through.
    """

    def __init__(
        self,
        chart: Chart,
        variance: str,
        evaluator: Callable[[np.ndarray, int], np.ndarray],
        weight: float = 0.0,
        name: str = "",
    ):
        self.chart = chart
        self.variance = variance
        self.weight = float(weight)
        self.name = name
        self._evaluator = evaluator
        # set by from_exprs: the compiled tape, and the map from its rows
        # to the dense component array
        self.tape: ex.Tape | None = None
        self.read_rows: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def rank(self) -> int:
        return len(self.variance)

    def dense(self, points: np.ndarray, order: int) -> np.ndarray:
        """Every component at a batch of points ``(B, dim)`` as one dense jet
        array, shape ``(dim,) * rank + (B, ncoeff)``."""
        out = np.asarray(self._evaluator(points, order))
        expected = (self.chart.dim,) * self.rank + (
            len(points), jet_space(self.chart.dim, order).ncoeff,
        )
        if out.dtype == object or out.shape != expected:
            raise GeometryError(
                f"field {self.name!r} produced a {out.dtype} array of shape "
                f"{out.shape}, expected a dense jet array of shape {expected}"
            )
        return out

    @classmethod
    def from_exprs(
        cls,
        chart: Chart,
        exprs,
        variance: str,
        weight: float = 0.0,
        name: str = "",
        sym: tuple[tuple[int, int], ...] = (),
        extra: Sequence[ex.Expr] = (),
    ) -> "TensorField":
        """Field whose components are expressions in the chart coordinates.

        Every component is compiled into one :class:`~tractorlab.expr.Tape`
        (kept as ``field.tape``, one row per component in index order, then
        one row per expression of ``extra``, which the field never reads);
        the tape shares identical subexpressions, so a symmetric pair
        written alike costs one row of work.  ``sym`` lists axis pairs in
        which the components are declared symmetric.  Evaluation runs the
        component rows' view (``Tape.select``: an extra row is not run unless
        they share it) and copies the canonical row of each symmetric orbit
        to its members (``field.read_rows`` maps the component rows to the
        array), so the declared symmetries hold exactly.
        String components are parsed against the chart coordinates by one
        :func:`~tractorlab.expr.parse_exprs` call, so they share their equal
        subexpressions; AST components are then checked for unknown names.
        """
        shape = (chart.dim,) * len(variance)
        symt = tuple(tuple(p) for p in sym)
        nodes = [exprs[idx] if shape else exprs for idx in np.ndindex(shape)]
        texts = [k for k, node in enumerate(nodes) if isinstance(node, str)]
        parsed = ex.parse_exprs([nodes[k] for k in texts], chart.coord_names)
        asts = [(idx, node) for idx, node in zip(np.ndindex(shape), nodes)
                if not isinstance(node, str)]
        known = set(chart.coord_names)
        if not ex.expr_variables(*(node for _, node in asts)) <= known:
            for idx, node in asts:  # name the first component with one
                unknown = ex.expr_variables(node) - known
                if unknown:
                    raise GeometryError(
                        f"component {idx} of {name!r} uses unknown names "
                        f"{sorted(unknown)}"
                    )
        for k, node in zip(texts, parsed):
            nodes[k] = node
        tape = ex.compile_tape(nodes + list(extra), chart.coord_names)
        own_rows = tape.select(slice(0, len(nodes)))
        flat = np.arange(len(nodes)).reshape(shape)
        scatter = [flat[_canonical_index(idx, symt)] for idx in np.ndindex(shape)]

        def read_rows(rows: np.ndarray) -> np.ndarray:
            out = rows[scatter]
            return out.reshape(shape + out.shape[1:])

        def evaluator(points: np.ndarray, order: int) -> np.ndarray:
            return read_rows(own_rows.run(chart.coords(points), jet_space(chart.dim, order)))

        field = cls(chart, variance, evaluator, weight=weight, name=name)
        field.tape = tape
        field.read_rows = read_rows
        return field


# -- geometries ----------------------------------------------------------


@dataclass
class Geometry:
    """A chart-with-boundary plus metric data.

    ``alpha`` is the projective compactness order the geometry is meant to
    have; the verification suite treats it as a claim to test, not a fact.
    """

    name: str
    chart: Chart
    rho: ex.Expr
    alpha: float
    metric: np.ndarray  # (dim, dim) object array of Expr
    constructor_C: float | None = None  # an asymptotic form's C at the origin
    interior_box: tuple[np.ndarray, np.ndarray] | None = None
    boundary_sampler: Callable | None = None
    exact_hat_christoffels: Callable | None = None
    signature: tuple[int, int] | None = None

    def __post_init__(self):
        if not 0 < self.alpha <= 2:
            raise GeometryError(f"alpha must lie in (0, 2], got {self.alpha}")

    @property
    def dim(self) -> int:
        return self.chart.dim

    # -- scalar rho ----------------------------------------------------

    def rho_dense(self, points: np.ndarray, order: int) -> np.ndarray:
        """Dense rho jets ``(B, ncoeff)`` at a batch of points ``(B, dim)``."""
        return self._rho_row.run(self.chart.coords(points), jet_space(self.dim, order))[0]

    def rho_value(self, points: np.ndarray) -> np.ndarray:
        """rho at a batch of points ``(B, dim)``: the values ``(B,)``."""
        return self.rho_dense(points, 0)[:, 0]

    def rho_and_drho(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """rho and the components of d(rho) at a batch of points ``(B,
        dim)``: the values ``(B,)`` and ``(dim, B)``."""
        rho = self.rho_dense(points, 1)
        return rho[:, 0], rho[:, 1 : 1 + self.dim].T

    def inward_direction(self, points: np.ndarray) -> np.ndarray:
        """Chart vectors v with d(rho)(v) = 1 along the Euclidean gradient,
        one row per point of a batch ``(B, dim)``."""
        grads = self.rho_and_drho(points)[1].T
        out = np.empty_like(grads)
        for k, grad in enumerate(grads):
            norm2 = float(grad @ grad)  # the 1-D dot, row by row
            if norm2 <= 1e-16:
                raise GeometryError(f"d(rho) vanishes at {tuple(points[k].tolist())}")
            out[k] = grad / norm2
        return out

    # -- metric --------------------------------------------------------

    def metric_field(self) -> TensorField:
        """The metric, compiled once into a tape whose last row is rho, the
        one compile of rho: one run gives both (:meth:`rho_and_metric`), the
        field runs the metric rows and :meth:`rho_dense` the rho row."""
        if not hasattr(self, "_metric_field"):
            self._metric_field = TensorField.from_exprs(
                self.chart, self.metric, "dd", name="g", sym=((0, 1),), extra=(self.rho,)
            )
        return self._metric_field

    @functools.cached_property
    def _rho_row(self) -> ex.Tape:
        return self.metric_field().tape.select([-1])

    def rho_and_metric(self, points: np.ndarray, order: int) -> tuple:
        """One run of the metric tape at a batch of points ``(B, dim)``: the
        rho jets ``(B, ncoeff)`` and the metric jets ``(dim, dim, B,
        ncoeff)``, bit for bit :meth:`rho_dense`'s and ``metric_field()``'s."""
        gfield = self.metric_field()
        rows = gfield.tape.run(self.chart.coords(points), jet_space(self.dim, order))
        return rows[-1], gfield.read_rows(rows)

    # -- sampling -------------------------------------------------------

    def interior_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` points ``(count, dim)`` of the interior box with ``rho >
        0.05``.

        Candidates are drawn in rounds of as many as are still missing, and
        each round's rho values come from one run.  A round draws exactly
        the candidates that drawing one at a time would draw next, so the
        points and the RNG stream are those of the one-at-a-time draw, as is
        the error after ``200 * count`` candidates.  When a round's run
        raises, its rows are evaluated one at a time in order
        (:func:`_row_reader`), so the error is the one-at-a-time error.
        """
        if self.interior_box is None:
            raise GeometryError(f"geometry {self.name!r} has no interior box")
        lo, hi = self.interior_box
        pts: list[np.ndarray] = []
        attempts, cap = 0, 200 * max(count, 1)
        while len(pts) < count:
            if attempts == cap:
                raise GeometryError(
                    f"could not sample {count} interior points of {self.name!r}"
                )
            xs = rng.uniform(lo, hi, size=(min(count - len(pts), cap - attempts), self.dim))
            attempts += len(xs)
            rho = _row_reader(self.rho_value, xs)
            pts.extend(x for k, x in enumerate(xs) if rho(k) > 0.05)
        return np.array(pts, dtype=float).reshape(count, self.dim)

    def boundary_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` points ``(count, dim)`` from the boundary sampler."""
        if self.boundary_sampler is None:
            raise GeometryError(
                f"geometry {self.name!r} has no boundary sampler"
            )
        pts = [self.boundary_sampler(rng) for _ in range(count)]
        return np.array(pts, dtype=float).reshape(count, self.dim)


# -- built-in catalog ------------------------------------------------------

BUILTIN_NAMES = ("flat", "klein", "af2_generic", "af1_generic", "poincare_control")


def _coords(dim: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(dim))


def _ball_sampler(dim: int):
    def sample(rng: np.random.Generator) -> np.ndarray:
        v = rng.normal(size=dim)
        return v / math.sqrt(float(v @ v))

    return sample


def _half_space_sampler(dim: int, first_value: float):
    def sample(rng: np.random.Generator) -> np.ndarray:
        y = rng.uniform(-0.6, 0.6, size=dim)
        y[0] = first_value
        return y

    return sample


def _row_reader(f: Callable, points: np.ndarray) -> Callable[[int], object]:
    """``f`` at the rows of a batch of points ``(B, dim)``, read by row index;
    ``f`` maps a batch to its values with the batch axis first.

    One batched call gives every row.  When it raises (a row the caller
    never reads may lie outside the domain of rho), each row is evaluated
    only when read, alone, as a batch of one; so a caller that reads rows
    in order and stops early raises, or returns, exactly what evaluating
    its points one at a time would.  A row gets the same bits in a batch of
    one as in the whole batch, so either way the values are the same.
    """
    try:
        values = f(points)
    except (ArithmeticError, ValueError):  # jet errors, float overflow, math domain
        return lambda i: f(points[i : i + 1])[0]
    return values.__getitem__


def _validate_metric_geometry(geom: Geometry, rng: np.random.Generator) -> None:
    """Shared construction checks: symmetry, invertibility, d(rho) != 0.

    The metric is compiled once: ``metric_field().tape`` has one row per
    declared component, ``g[i, j]`` and ``g[j, i]`` alike, then rho, and
    the field copies the upper row of each pair to both.  The checks read
    the component rows, in one order-0 run at the sample points, so an
    asymmetric document is caught; a pair written alike shares one row and
    is symmetric by construction.
    """
    d = geom.dim
    gfield = geom.metric_field()
    pts = geom.interior_points(3, rng)
    rows = gfield.tape.run(pts, jet_space(d, 0))[: d * d]  # (d * d, 3, 1)
    gvals = rows[..., 0].T.reshape(len(pts), d, d)
    for p, gval in zip(map(tuple, pts.tolist()), gvals):
        if np.max(np.abs(gval - gval.T)) > 1e-12 * (1 + np.max(np.abs(gval))):
            raise GeometryError(f"metric of {geom.name!r} is asymmetric at {p}")
        if abs(np.linalg.det(gval)) < 1e-12:
            raise GeometryError(f"metric of {geom.name!r} is singular at {p}")
    evals = np.linalg.eigvalsh(gvals[0], UPLO="U")  # the rows the field reads
    geom.signature = (int(np.sum(evals > 0)), int(np.sum(evals < 0)))
    if geom.boundary_sampler is not None:
        ys = geom.boundary_points(3, rng)
        drho = _row_reader(
            lambda p: np.ascontiguousarray(geom.rho_and_drho(p)[1].T), ys
        )
        for k, y in enumerate(map(tuple, ys.tolist())):
            grad = drho(k)
            if math.sqrt(float(grad @ grad)) < 1e-8:
                raise GeometryError(
                    f"d(rho) of {geom.name!r} degenerate at boundary point {y}"
                )


def _tangential_h_check(geom: Geometry, h: np.ndarray,
                        rng: np.random.Generator) -> None:
    """The asymptotic-form data h must be nondegenerate tangentially at rho=0."""
    hfield = TensorField.from_exprs(geom.chart, h, "dd", name="h", sym=((0, 1),))
    ys = geom.boundary_points(3, rng)
    tangential = _row_reader(
        lambda p: np.moveaxis(hfield.dense(p, 0)[1:, 1:, :, 0], -1, 0), ys
    )
    for k, y in enumerate(map(tuple, ys.tolist())):
        tang = tangential(k)
        if np.min(np.abs(np.linalg.eigvalsh(tang))) < 1e-8:
            raise GeometryError(
                f"boundary data h of {geom.name!r} degenerate tangentially at {y}"
            )


def _make_klein(dim: int) -> Geometry:
    coords = _coords(dim)
    r2 = " + ".join(f"{c}^2" for c in coords)
    # rho, and the literal and coordinates it shares with the metric
    rho, one, *xs = ex.parse_exprs([f"1 - ({r2})", "1", *coords], coords)
    rho2, one_over_rho = ex.Pow(rho, 2.0), ex.Div(one, rho)
    g = np.empty((dim, dim), dtype=object)
    for i in range(dim):
        for j in range(dim):
            cross = ex.Div(ex.Mul(xs[i], xs[j]), rho2)  # x_i x_j / rho^2
            g[i, j] = ex.Add(one_over_rho, cross) if i == j else cross
    chart = Chart(coords)

    def flat_hats(points, order):
        # The rho-modified connection of the Klein metric is the flat one.
        return np.zeros((dim,) * 3 + (len(points), jet_space(dim, order).ncoeff))

    return Geometry(
        name="klein",
        chart=chart,
        rho=rho,
        alpha=2.0,
        metric=g,
        constructor_C=0.25,  # g = h/rho + d(rho)^2/(4 rho^2), h the chart metric dx^2
        interior_box=(np.full(dim, -0.55), np.full(dim, 0.55)),
        boundary_sampler=_ball_sampler(dim),
        exact_hat_christoffels=flat_hats,
    )


def _make_flat(dim: int) -> Geometry:
    coords = _coords(dim)
    rho, one, zero = ex.parse_exprs([f"1 - {coords[0]}", "1", "0"], coords)
    g = np.empty((dim, dim), dtype=object)
    for i in range(dim):
        for j in range(dim):
            g[i, j] = one if i == j else zero
    lo = np.full(dim, -0.6)
    hi = np.full(dim, 0.6)
    hi[0] = 0.85
    return Geometry(
        name="flat",
        chart=Chart(coords),
        rho=rho,
        alpha=2.0,
        metric=g,
        interior_box=(lo, hi),
        boundary_sampler=_half_space_sampler(dim, 1.0),
    )


def _make_poincare(dim: int) -> Geometry:
    coords = _coords(dim)
    r2 = " + ".join(f"{c}^2" for c in coords)
    rho, four, zero = ex.parse_exprs([f"1 - ({r2})", "4", "0"], coords)
    diagonal = ex.Div(four, ex.Pow(rho, 2.0))  # 4 / rho^2
    g = np.empty((dim, dim), dtype=object)
    for i in range(dim):
        for j in range(dim):
            g[i, j] = diagonal if i == j else zero
    return Geometry(
        name="poincare_control",
        chart=Chart(coords),
        rho=rho,
        alpha=2.0,
        metric=g,
        interior_box=(np.full(dim, -0.55), np.full(dim, 0.55)),
        boundary_sampler=_ball_sampler(dim),
    )


def _af_coords(dim: int) -> tuple[str, ...]:
    return ("rho",) + tuple(f"y{i}" for i in range(1, dim))


def _default_h_exprs(dim: int, coords: tuple[str, ...]) -> np.ndarray:
    h = np.full((dim, dim), "0", dtype=object)
    h[0, 0] = "1"
    for i in range(1, dim):
        h[i, i] = f"1 + rho*{coords[i]}^2"
    return h


def _source_exprs(sources: Mapping[str, object], coords: tuple[str, ...]) -> list[ex.Expr]:
    """Asymptotic-form sources, keyed by the name errors give them, as ASTs
    in the chart coordinates, then the coordinate ``rho`` as a node they
    share: the texts are parsed by one :func:`~tractorlab.expr.parse_exprs`
    call and a number is a literal."""
    nodes = list(sources.values())
    texts = []
    for k, (what, source) in enumerate(sources.items()):
        if isinstance(source, str):
            texts.append(k)
        elif isinstance(source, (int, float)):
            nodes[k] = ex.Num(float(source))
        else:
            raise GeometryError(f"{what} must be an expression, got {source!r}")
    *parsed, rho = ex.parse_exprs([nodes[k] for k in texts] + [coords[0]], coords)
    for k, node in zip(texts, parsed):
        nodes[k] = node
    return nodes + [rho]


def _make_asymptotic_form(
    dim: int,
    alpha: float,
    C,
    h,
    name: str,
    rng: np.random.Generator,
    coords: tuple[str, ...] | None = None,
) -> Geometry:
    """``g = h/rho^p + C d(rho)^2/rho^(2p)`` with ``p = 2/alpha``.

    ``C`` and the entries of the ``dim x dim`` matrix ``h`` (default
    ``h_00 = 1``, ``h_ii = 1 + rho y_i^2``) are source text or numbers; the
    texts are parsed together, once, and the metric is built from the
    parsed ASTs, with ``rho^p``, ``rho^(2p)`` and each distinct
    ``h_ij/rho^p`` made once.  ``C`` must have a finite nonzero value at the
    chart origin, kept as ``constructor_C``, and ``h`` must be nondegenerate
    tangentially at ``rho = 0``.
    """
    if coords is None:
        coords = _af_coords(dim)
    h = _default_h_exprs(dim, coords) if h is None else np.array(h, dtype=object)
    if h.shape != (dim, dim):
        raise GeometryError(f"h must be {dim}x{dim}, got {h.shape}")
    if abs(round(2.0 / alpha) - 2.0 / alpha) > 1e-12:
        raise GeometryError(
            f"asymptotic form needs 2/alpha integral, got alpha={alpha}"
        )
    indices = list(np.ndindex(h.shape))
    c_node, *h_nodes, rho = _source_exprs(
        {"C": C, **{f"h{list(idx)}": h[idx] for idx in indices}}, coords
    )
    try:
        tape = ex.compile_tape([c_node], coords)
        c_val = float(tape.run(np.zeros((1, dim)), jet_space(dim, 0))[0, 0, 0])
    except (ex.ExprError, JetError) as err:
        raise GeometryError(
            f"asymptotic-form constant C has no value at the chart origin: {err}"
        ) from err
    if not 1e-12 <= abs(c_val) < math.inf:
        raise GeometryError(
            f"asymptotic-form constant C must be finite and nonzero, got {c_val}"
        )
    p = 2.0 / alpha  # rho power of the tangential part; transversal uses 2p
    rho_p = ex.Pow(rho, p)
    over_rho_p = {id(node): ex.Div(node, rho_p) for node in h_nodes}  # by distinct h_ij
    g = np.empty((dim, dim), dtype=object)
    for idx, node in zip(indices, h_nodes):
        h[idx], g[idx] = node, over_rho_p[id(node)]
    g[0, 0] = ex.Add(g[0, 0], ex.Div(c_node, ex.Pow(rho, 2 * p)))
    lo = np.full(dim, -0.6)
    hi = np.full(dim, 0.6)
    lo[0], hi[0] = 0.15, 0.85
    geom = Geometry(
        name=name,
        chart=Chart(coords),
        rho=rho,
        alpha=alpha,
        metric=g,
        constructor_C=c_val,
        interior_box=(lo, hi),
        boundary_sampler=_half_space_sampler(dim, 0.0),
    )
    _tangential_h_check(geom, h, rng)
    return geom


def builtin_geometry(name: str, dim: int, **params) -> Geometry:
    """Construct one of the model geometries.

    flat
        Euclidean metric with a hyperplane boundary; degenerate control.
    klein
        The Beltrami-Klein ball model of hyperbolic space; geodesics are
        straight lines, so the projective structure extends to the closed
        ball.
    af2_generic / af1_generic
        Order-2 / order-1 asymptotic-form families ``g = h/rho^(2/alpha) +
        C d(rho)^2 / rho^(4/alpha)`` with configurable smooth boundary data
        ``h`` (exprs) and constant ``C``.
    poincare_control
        Conformally compact ball model; *not* projectively compact, used as
        the negative control.

    Only the asymptotic-form families take keyword parameters (``C`` and
    ``h``); any other keyword raises :class:`GeometryError`.
    """
    if dim < 3:
        raise GeometryError(f"builtin geometries need dim >= 3, got {dim}")
    if name not in BUILTIN_NAMES:
        raise GeometryError(
            f"unknown geometry {name!r}; builtins are {BUILTIN_NAMES}"
        )
    accepted = ("C", "h") if name in ("af2_generic", "af1_generic") else ()
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise GeometryError(
            f"geometry {name!r} takes no parameter {', '.join(unknown)}; "
            f"it accepts {', '.join(accepted) if accepted else 'none'}"
        )
    rng = np.random.default_rng(20260809)
    if name == "klein":
        geom = _make_klein(dim)
    elif name == "flat":
        geom = _make_flat(dim)
    elif name == "poincare_control":
        geom = _make_poincare(dim)
    else:
        alpha = 2.0 if name == "af2_generic" else 1.0
        geom = _make_asymptotic_form(
            dim, alpha, params.get("C", 0.25), params.get("h"), name, rng
        )
    _validate_metric_geometry(geom, rng)
    return geom


# -- document loading ------------------------------------------------------

_EXPR_SCHEMA = {"type": "string"}
_EXPR_MATRIX_SCHEMA = {
    "type": "array",
    "items": {"type": "array", "items": _EXPR_SCHEMA},
}

GEOMETRY_DOC_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "name": {"type": "string"},
                "dim": {"type": "integer", "minimum": 2},
                "coords": {"type": "array", "items": {"type": "string"}},
                "rho": _EXPR_SCHEMA,
                "alpha": {"type": "number"},
                "metric": _EXPR_MATRIX_SCHEMA,
                "interior_box": {"type": "array"},
            },
            "required": ["dim", "coords", "rho", "alpha", "metric"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "asymptotic_form"},
                "name": {"type": "string"},
                "dim": {"type": "integer", "minimum": 3},
                "coords": {"type": "array", "items": {"type": "string"}},
                "alpha": {"type": "number"},
                "C": {"oneOf": [{"type": "number"}, _EXPR_SCHEMA]},
                "h": _EXPR_MATRIX_SCHEMA,
                "interior_box": {"type": "array"},
            },
            "required": ["kind", "dim", "alpha", "C", "h"],
            "additionalProperties": False,
        },
    ]
}


@functools.cache
def _doc_validator():
    """The validator of :data:`GEOMETRY_DOC_SCHEMA`, built on first use (the
    schema is constant, so it is not checked against the metaschema per
    document; a test does that once)."""
    from jsonschema.validators import validator_for

    return validator_for(GEOMETRY_DOC_SCHEMA)(GEOMETRY_DOC_SCHEMA)


def load_geometry(doc: Mapping) -> Geometry:
    """Build a validated geometry from a configuration document (JSON shape).

    Runs the same validation as :func:`builtin_geometry`: schema first, then
    expression parsing (errors carry source offsets), then numeric checks at
    sampled points.
    """
    from jsonschema.exceptions import best_match

    err = best_match(_doc_validator().iter_errors(doc))
    if err is not None:
        raise GeometryError(f"geometry document rejected: {err.message}") from err

    dim = int(doc["dim"])
    rng = np.random.default_rng(20260809)
    if doc.get("kind") == "asymptotic_form":
        coords = _doc_coords(doc.get("coords", _af_coords(dim)), dim)
        if coords[0] != "rho":
            raise GeometryError(
                f"asymptotic-form coords must start with 'rho', got {coords[0]!r}"
            )
        geom = _make_asymptotic_form(
            dim, float(doc["alpha"]), doc["C"], doc["h"],
            doc.get("name", "asymptotic_form"), rng, coords,
        )
        if "interior_box" in doc:
            geom.interior_box = _interior_box(doc["interior_box"], dim)
    else:
        coords = _doc_coords(doc["coords"], dim)
        metric_doc = np.array(doc["metric"], dtype=object)
        if metric_doc.shape != (dim, dim):
            raise GeometryError(
                f"metric must be {dim}x{dim}, got {metric_doc.shape}"
            )
        chart = Chart(coords)
        indices = list(np.ndindex(dim, dim))
        *entries, rho = ex.parse_exprs(
            [str(metric_doc[idx]) for idx in indices] + [str(doc["rho"])], coords
        )
        metric = np.empty((dim, dim), dtype=object)
        for idx, node in zip(indices, entries):
            metric[idx] = node
        if "interior_box" in doc:
            interior_box = _interior_box(doc["interior_box"], dim)
        else:
            interior_box = (np.full(dim, -0.55), np.full(dim, 0.55))
        name = doc.get("name", "custom")
        geom = Geometry(
            name=name,
            chart=chart,
            rho=rho,
            alpha=float(doc["alpha"]),
            metric=metric,
            # a document cannot state its constant; one named klein is
            # taken to be the Klein model's
            constructor_C=0.25 if name == "klein" else None,
            interior_box=interior_box,
        )
        geom.boundary_sampler = _make_ray_boundary_sampler(geom)
    _validate_metric_geometry(geom, rng)
    return geom


def _doc_coords(names, dim: int) -> tuple[str, ...]:
    """A document's coordinate names, one per dimension."""
    if len(names) != dim:
        raise GeometryError(f"got {len(names)} coordinate names for dim {dim}")
    return tuple(names)


def _interior_box(doc_box, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``[lower corner, upper corner]`` of a document's interior box."""
    try:
        box = np.array(doc_box, dtype=float)
    except (TypeError, ValueError):
        box = None
    if box is None or box.shape != (2, dim) or not np.all(np.isfinite(box)):
        raise GeometryError(
            f"interior_box must be two finite corners of {dim} numbers each"
        )
    if np.any(box[0] >= box[1]):
        raise GeometryError("interior_box lower corner must lie below the upper one")
    return box[0], box[1]


#: March steps in the first batched run of the boundary ray search; each
#: later run of the same ray takes twice as many, so a march evaluates at
#: most about twice as far as the boundary lies.
_MARCH_ROWS = 8


def _make_ray_boundary_sampler(geom: Geometry):
    """Boundary points by marching rays from the interior-box center.

    A ray in a random direction ``v`` is marched in steps of 0.05 until rho
    is no longer positive, then its last bracket is bisected until its ends
    are adjacent floats (at most 80 steps); after 400 steps without leaving
    the interior the ray is dropped for a new one, and after 64 dropped rays
    the search raises :class:`GeometryError`.

    The search makes a few batched rho evaluations per ray instead of one
    per probe.  The march evaluates its steps in runs of ``_MARCH_ROWS``,
    doubling.  The bisection predicts its own decisions: the secant through
    rho at the bracket's ends crosses zero at a predicted root, and a
    midpoint below it is predicted inside.  One run evaluates every midpoint
    the bisection visits if each decision matches the prediction, up to the
    80-step cap or the adjacent-floats stop; the walk then takes the true
    sign at each midpoint and stops after the first that differs from its
    prediction (that step counts, its midpoint was the true one), and the
    next run predicts again from the new bracket and its values.  Without a
    value at the inside end (the first march step is already outside) every
    midpoint is predicted outside; a secant that is not finite predicts the
    bracket's midpoint.  A failed prediction costs one more run and the
    rows after it, never a different point: a prediction only chooses which
    midpoints a run evaluates.

    The march values and each midpoint are computed by the same float
    operations as in a search that probes one point at a time, each as a
    batch of one, and a row gets the same bits in a larger batch, so the
    points returned and the RNG draws are that search's.  A batch holds
    points the one-at-a-time search never evaluates; when its run raises,
    its rows are evaluated one at a time in the search's order
    (:func:`_row_reader`), so the search returns, or raises, what the
    one-at-a-time search does.
    """
    lo, hi = geom.interior_box
    center = (np.asarray(lo) + np.asarray(hi)) / 2.0

    def rho_along(v: np.ndarray, s: list[float]) -> Callable[[int], float]:
        rho = _row_reader(geom.rho_value, center + np.array(s)[:, None] * v)
        return lambda k: float(rho(k))

    def march(v: np.ndarray) -> tuple[float, float, float | None, float] | None:
        """The last bracket ``(s_in, s_out, rho_in, rho_out)`` of the march,
        ``rho_in`` None when ``s_in`` is the center; None past 400 steps."""
        s_in, r_in, s = 0.0, None, 0.05
        left, rows = 400, _MARCH_ROWS
        while left:
            steps = []
            for _ in range(min(rows, left)):
                steps.append(s)
                s += 0.05
            rho = rho_along(v, steps)
            for k, s_k in enumerate(steps):
                r = rho(k)
                if r <= 0:
                    return s_in, s_k, r_in, r
                s_in, r_in = s_k, r
            left -= len(steps)
            rows *= 2
        return None

    def predicted_root(s_in: float, s_out: float, r_in: float | None,
                       r_out: float) -> float:
        """Where the bisection is predicted to change sides: midpoints
        below it inside, the others outside."""
        if r_in is None:
            return s_in  # every midpoint predicted outside
        # r_in > 0 >= r_out, so the secant falls unless a value is NaN or inf
        root = s_in + (s_out - s_in) * (r_in / (r_in - r_out))
        return root if math.isfinite(root) else 0.5 * (s_in + s_out)

    def bisect(v: np.ndarray, s_in: float, s_out: float, r_in: float | None,
               r_out: float) -> tuple[float, float]:
        left = 80
        while left:
            root = predicted_root(s_in, s_out, r_in, r_out)
            path, a, b = [], s_in, s_out
            while len(path) < left:
                mid = 0.5 * (a + b)
                if mid == a or mid == b:
                    break  # adjacent floats: no later step changes either end
                path.append(mid)
                a, b = (mid, b) if mid < root else (a, mid)
            if not path:
                break
            rho = rho_along(v, path)
            for k, mid in enumerate(path):
                left -= 1
                r = rho(k)
                if r > 0:
                    s_in, r_in = mid, r
                else:
                    s_out, r_out = mid, r
                if (r > 0) != (mid < root):
                    break  # a failed prediction: the next run predicts again
        return s_in, s_out

    def sample(rng: np.random.Generator) -> np.ndarray:
        for _ in range(64):
            v = rng.normal(size=geom.dim)
            v /= math.sqrt(float(v @ v))
            bracket = march(v)
            if bracket is None:
                continue
            s_in, s_out = bisect(v, *bracket)
            return center + 0.5 * (s_in + s_out) * v
        raise GeometryError(
            f"could not find boundary points for {geom.name!r} by ray search"
        )

    return sample
