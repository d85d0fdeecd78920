"""Truncated multivariate Taylor arithmetic ("jets").

A jet holds the Taylor coefficients of a smooth real function at a point,
one coefficient per multi-index ``m`` with total degree ``|m| <= K``.  The
coefficient stored for ``m`` is the Taylor coefficient ``(1/m!) * d^m f``,
so the coefficient of the zero multi-index is the function value and the
first-order coefficients are the first partials.

Coefficients are laid out in graded lexicographic order: multi-indices are
sorted by total degree first, and within a degree the variable ``x0`` is
senior to ``x1`` and so on (``(2,0) before (1,1) before (0,2)``).  The order
does not depend on the truncation degree, so a jet of order ``K`` truncates
to order ``K' < K`` by keeping its leading coefficients.  Serialized
coefficient vectors are therefore comparable across runs and orders.

Arithmetic is exact through the truncation degree: products are the graded
convolution, division goes through the Taylor reciprocal, and elementary
functions are applied by univariate composition.  A reciprocal of a jet
whose value is (numerically) zero raises :class:`PoleError`; the boundary
checks in the rest of the package rely on that signal to detect genuine
``1/rho`` singularities, so the error is first class and never replaced by
``inf`` or ``nan``.

Every tensor of jets in the package is one dense float array of shape
``(*tensor_shape, ncoeff)`` over a :class:`JetSpace`: the last axis holds
the coefficients of each component, so ``[..., 0]`` are the values.  The
same tensor at a batch of ``B`` points is ``(*tensor_shape, B, ncoeff)``:
the batch axis sits just before the coefficient axis, and every kernel
below takes it (``jet_mul``, ``jet_gradient`` and the series kernels by
broadcasting, ``jet_einsum``, ``jet_inverse`` and ``jet_determinant``
explicitly).  Partials are one gather through ``partial_tables``; products
and tensor contractions pair coefficients through ``mul_table`` and sum
each output coefficient's segment (``jet_mul``, ``jet_einsum``).
Reciprocals (with the pole test) and elementary functions compose a
univariate series with each jet (``jet_reciprocal``, ``jet_function``,
``jet_compose``).  The value matrices of a batch are inverted, with the
one singularity test for matrices, by ``value_inverse``, on which
``jet_inverse`` builds.

:class:`Jet` is one scalar jet with operator arithmetic on the same
kernels.  The package itself never builds one: it is the scalar reference
the tests compare the dense kernels against.

All jets are immutable values and all operations are pure, so evaluation at
distinct points may proceed concurrently without shared state.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations_with_replacement
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Jet",
    "JetError",
    "PoleError",
    "DomainError",
    "JetSpace",
    "jet_space",
    "jet_gradient",
    "jet_mul",
    "jet_einsum",
    "jet_compose",
    "jet_reciprocal",
    "jet_function",
    "value_inverse",
    "jet_inverse",
    "jet_determinant",
]

#: Magnitudes below this count as an exact zero for pole/domain detection.
#: Boundary defining functions evaluate to ~1e-16 at floating-point boundary
#: points; legitimate interior divisors in this package stay above ~1e-3.
POLE_TOL = 1e-13

#: Safety factor of the condition bound that lets :func:`value_inverse` skip
#: its exact pivot loop (see there).
PIVOT_MARGIN = 1e3

#: Rank level of a singular matrix: an ``(m, m)`` matrix within a rounding
#: or two of each entry of a singular one has a computed smallest singular
#: value ``<= m * RANK_TOL * max|A|``, whatever its pivots (see
#: :func:`_pivoted_elimination`).
RANK_TOL = 4.0 * np.finfo(float).eps


class JetError(ArithmeticError):
    """Base class for jet arithmetic failures."""


class PoleError(JetError):
    """Division (or negative power) by a jet with vanishing value."""


class DomainError(JetError):
    """Elementary function applied outside its domain (e.g. log of <= 0)."""


def _multi_indices(dim: int, order: int) -> list[tuple[int, ...]]:
    """All multi-indices with |m| <= order, in graded lexicographic order."""
    out: list[tuple[int, ...]] = []
    for deg in range(order + 1):
        batch = []
        for combo in combinations_with_replacement(range(dim), deg):
            m = [0] * dim
            for i in combo:
                m[i] += 1
            batch.append(tuple(m))
        batch.sort(key=lambda m: tuple(-c for c in m))
        out.extend(batch)
    return out


class JetSpace:
    """Index tables for jets of a fixed dimension and truncation order.

    Instances are cached by :func:`jet_space`; building the multiplication
    table is the only non-trivial cost and happens once per ``(dim, order)``.
    """

    def __init__(self, dim: int, order: int):
        if dim < 1:
            raise ValueError(f"jet dimension must be >= 1, got {dim}")
        if order < 0:
            raise ValueError(f"jet order must be >= 0, got {order}")
        self.dim = dim
        self.order = order
        self.multis = _multi_indices(dim, order)
        self.ncoeff = len(self.multis)
        self.index: dict[tuple[int, ...], int] = {
            m: k for k, m in enumerate(self.multis)
        }
        self.degrees = np.array([sum(m) for m in self.multis], dtype=np.int64)
        m = np.arange(order + 1)
        #: signs and powers of the reciprocal series sum_m (-1)^m t^m / a0^(m+1)
        self.reciprocal_terms = ((-1.0) ** m, m + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JetSpace(dim={self.dim}, order={self.order})"

    @functools.cached_property
    def mul_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index triples (i, j, k) with multis[i] + multis[j] = multis[k],
        sorted by k (stably, so each k keeps its pairs in (i, j) order)."""
        ii: list[int] = []
        jj: list[int] = []
        kk: list[int] = []
        for i, mi in enumerate(self.multis):
            di = self.degrees[i]
            for j, mj in enumerate(self.multis):
                if di + self.degrees[j] > self.order:
                    continue
                k = self.index[tuple(a + b for a, b in zip(mi, mj))]
                ii.append(i)
                jj.append(j)
                kk.append(k)
        perm = np.argsort(kk, kind="stable")
        return (
            np.array(ii, dtype=np.intp)[perm],
            np.array(jj, dtype=np.intp)[perm],
            np.array(kk, dtype=np.intp)[perm],
        )

    @functools.cached_property
    def mul_starts(self) -> np.ndarray:
        """Start of each output coefficient's segment in ``mul_table``."""
        return np.searchsorted(self.mul_table[2], np.arange(self.ncoeff))

    @functools.cached_property
    def partial_tables(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-variable (source index, factor) tables for differentiation.

        Entry ``i`` maps this space onto the order ``K-1`` space:
        ``out[m] = (m_i + 1) * in[m + e_i]``.
        """
        lower = jet_space(self.dim, self.order - 1) if self.order > 0 else None
        tables = []
        for i in range(self.dim):
            src: list[int] = []
            fac: list[float] = []
            if lower is not None:
                for m in lower.multis:
                    shifted = list(m)
                    shifted[i] += 1
                    src.append(self.index[tuple(shifted)])
                    fac.append(float(m[i] + 1))
            tables.append((np.array(src, dtype=np.intp), np.array(fac, dtype=np.float64)))
        return tables

    @functools.cached_property
    def gradient_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``partial_tables`` stacked over the variables: (source, factor)
        arrays of shape ``(dim, ncoeff of order K-1)``."""
        tables = self.partial_tables
        return np.stack([t[0] for t in tables]), np.stack([t[1] for t in tables])

    def constant(self, value: float) -> "Jet":
        coeffs = np.zeros(self.ncoeff)
        coeffs[0] = float(value)
        return Jet(self, coeffs)

    def variable(self, i: int, base_value: float) -> "Jet":
        if not 0 <= i < self.dim:
            raise IndexError(
                f"variable index {i} out of range for dimension {self.dim}"
            )
        coeffs = np.zeros(self.ncoeff)
        coeffs[0] = float(base_value)
        if self.order >= 1:
            unit = tuple(1 if j == i else 0 for j in range(self.dim))
            coeffs[self.index[unit]] = 1.0
        return Jet(self, coeffs)


_SPACES: dict[tuple[int, int], JetSpace] = {}


def jet_space(dim: int, order: int) -> JetSpace:
    """Cached :class:`JetSpace` for the given dimension and order."""
    key = (dim, order)
    space = _SPACES.get(key)
    if space is None:
        space = _SPACES[key] = JetSpace(dim, order)
    return space


class Jet:
    """One scalar jet with operator arithmetic (see the module docstring):
    the reference the tests compare the dense kernels against."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = np.asarray(coeffs, dtype=np.float64)
        if self.coeffs.shape != (space.ncoeff,):
            raise ValueError(
                f"expected {space.ncoeff} coefficients, got {self.coeffs.shape}"
            )

    # -- basic access -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def value(self) -> float:
        """Constant term (the function value at the base point)."""
        return float(self.coeffs[0])

    def coefficient(self, multi: Sequence[int]) -> float:
        """Taylor coefficient of the given multi-index."""
        return float(self.coeffs[self.space.index[tuple(multi)]])

    def derivative(self, multi: Sequence[int]) -> float:
        """Partial derivative d^m f at the base point (coefficient times m!)."""
        m = tuple(multi)
        fac = 1.0
        for c in m:
            fac *= math.factorial(c)
        return self.coefficient(m) * fac

    def truncate(self, order: int) -> "Jet":
        """Copy of this jet truncated to a lower order."""
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} jet to {order}")
        if order == self.order:
            return self
        target = jet_space(self.dim, order)
        return Jet(target, self.coeffs[: target.ncoeff].copy())

    def gradient(self) -> np.ndarray:
        """First partials at the base point (the degree-one coefficients)."""
        if self.order == 0:
            raise JetError("an order-0 jet has no gradient")
        return self.coeffs[1 : 1 + self.dim].copy()

    def __repr__(self) -> str:
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value:.6g})"

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Jet | None":
        if isinstance(other, Jet):
            if other.dim != self.dim:
                raise ValueError(
                    f"jet dimension mismatch: {self.dim} vs {other.dim}"
                )
            return other
        if isinstance(other, (int, float, np.integer, np.floating)):
            return self.space.constant(float(other))
        return None

    @staticmethod
    def _align(a: "Jet", b: "Jet") -> tuple["Jet", "Jet"]:
        if a.order == b.order:
            return a, b
        k = min(a.order, b.order)
        return a.truncate(k), b.truncate(k)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._align(self, other)
        return Jet(a.space, a.coeffs + b.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._align(self, other)
        return Jet(a.space, a.coeffs - b.coeffs)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._align(other, self)
        return Jet(a.space, a.coeffs - b.coeffs)

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            return Jet(self.space, self.coeffs * float(other))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._align(self, other)
        ii, jj, kk = a.space.mul_table
        prod = a.coeffs[ii] * b.coeffs[jj]
        return Jet(a.space, np.bincount(kk, weights=prod, minlength=a.space.ncoeff))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            if abs(float(other)) < 1e-290:
                raise PoleError("division by (numerically) zero scalar")
            return Jet(self.space, self.coeffs / float(other))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self._reciprocal()

    def _reciprocal(self) -> "Jet":
        return Jet(self.space, jet_reciprocal(self.coeffs, self.space))

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)) or (
            isinstance(p, float) and p.is_integer()
        ):
            p = int(p)
            if p == 0:
                return self.space.constant(1.0)
            if p < 0:
                return self.__pow__(-p)._reciprocal()
            result = None
            base = self
            while p:
                if p & 1:
                    result = base if result is None else result * base
                p >>= 1
                if p:
                    base = base * base
            return result
        return Jet(self.space, jet_function("pow", self.coeffs, self.space, float(p)))

    def partial(self, i: int) -> "Jet":
        """Jet of the i-th partial derivative, one order lower."""
        if self.order == 0:
            raise JetError("cannot differentiate an order-0 jet")
        if not 0 <= i < self.dim:
            raise IndexError(f"variable index {i} out of range")
        src, fac = self.space.partial_tables[i]
        lower = jet_space(self.dim, self.order - 1)
        return Jet(lower, self.coeffs[src] * fac)


# -- elementary functions ---------------------------------------------


def _series_exp(a0: float, k: int, _p) -> np.ndarray:
    e = math.exp(a0)
    return np.array([e / math.factorial(m) for m in range(k + 1)])


def _series_log(a0: float, k: int, _p) -> np.ndarray:
    if a0 <= POLE_TOL:
        raise DomainError(f"log of non-positive value {a0:.3e}")
    out = [math.log(a0)]
    out += [(-1.0) ** (m + 1) / (m * a0**m) for m in range(1, k + 1)]
    return np.array(out)


def _series_sqrt(a0: float, k: int, _p) -> np.ndarray:
    if a0 <= POLE_TOL:
        raise DomainError(f"sqrt of non-positive value {a0:.3e}")
    return _series_pow(a0, k, 0.5)


def _series_pow(a0: float, k: int, p: float) -> np.ndarray:
    if a0 <= POLE_TOL:
        # Integer exponents never reach this path (handled in __pow__).
        raise DomainError(f"non-integer power of non-positive value {a0:.3e}")
    out = []
    coeff = 1.0
    for m in range(k + 1):
        out.append(coeff * a0 ** (p - m))
        coeff *= (p - m) / (m + 1)
    return np.array(out)


def _series_sin(a0: float, k: int, _p) -> np.ndarray:
    cycle = [math.sin(a0), math.cos(a0), -math.sin(a0), -math.cos(a0)]
    return np.array([cycle[m % 4] / math.factorial(m) for m in range(k + 1)])


def _series_cos(a0: float, k: int, _p) -> np.ndarray:
    cycle = [math.cos(a0), -math.sin(a0), -math.cos(a0), math.sin(a0)]
    return np.array([cycle[m % 4] / math.factorial(m) for m in range(k + 1)])


def _series_tan(a0: float, k: int, _p) -> np.ndarray:
    if abs(math.cos(a0)) <= POLE_TOL:
        raise DomainError(f"tan at a pole of cosine, argument {a0:.6g}")
    # Univariate jet division sin(t)/cos(t) around a0 yields the series.
    space = jet_space(1, k)
    t = _univariate(a0, space)
    cos = jet_function("cos", t, space)
    return jet_mul(jet_function("sin", t, space), jet_reciprocal(cos, space), space)


def _series_atan(a0: float, k: int, _p) -> np.ndarray:
    # atan' = 1/(1+t^2): integrate the univariate jet of the derivative.
    out = np.empty(k + 1)
    out[0] = math.atan(a0)
    if k >= 1:
        space = jet_space(1, k - 1)
        t = _univariate(a0, space)
        one_plus = jet_mul(t, t, space)
        one_plus[0] += 1.0
        out[1:] = jet_reciprocal(one_plus, space) / np.arange(1, k + 1)
    return out


def _univariate(a0: float, space: JetSpace) -> np.ndarray:
    """Dense jet of the variable ``t`` at ``t = a0`` in a 1-dim space."""
    t = np.zeros(space.ncoeff)
    t[0] = a0
    t[1:2] = 1.0
    return t


_SERIES: dict[str, Callable[[float, int, float | None], np.ndarray]] = {
    "exp": _series_exp,
    "log": _series_log,
    "sqrt": _series_sqrt,
    "pow": _series_pow,
    "sin": _series_sin,
    "cos": _series_cos,
    "tan": _series_tan,
    "atan": _series_atan,
}

# -- dense tensors of jets ----------------------------------------------


def jet_gradient(dense: np.ndarray, space: JetSpace) -> np.ndarray:
    """All first partials of a dense array, one order lower; the derivative
    index comes first: ``out[i, ...] = d_i dense[...]``."""
    if space.order == 0:
        raise JetError("cannot differentiate an order-0 jet")
    src, fac = space.gradient_table
    out = dense[..., src] * fac
    nd = out.ndim
    return out.transpose((nd - 2, *range(nd - 2), nd - 1))


def jet_mul(a: np.ndarray, b: np.ndarray, space: JetSpace) -> np.ndarray:
    """Componentwise jet product of two dense arrays (numpy broadcasting).

    An operand may carry more coefficient columns than ``space`` has (a jet
    of higher order); the product reads only the first ``space.ncoeff``, so
    it truncates such an operand to ``space``."""
    if space.order == 0:  # the product table pairs the value columns alone
        return a[..., :1] * b[..., :1]
    ii, jj, _ = space.mul_table
    return np.add.reduceat(a[..., ii] * b[..., jj], space.mul_starts, axis=-1)


def jet_einsum(spec: str, a: np.ndarray, b: np.ndarray, space: JetSpace) -> np.ndarray:
    """Tensor contraction ``np.einsum(spec)`` of two dense arrays with jet
    products; ``spec`` names the tensor axes only (lower-case letters), and
    a batch axis before the coefficients broadcasts.

    A full contraction of two batches, or one that sums the last axis of
    both operands, runs row by row: numpy sums such a contraction of one
    row with a dot-product kernel, in another order than the rows of a
    larger batch, and a row must get the same bits whether it sits in an
    eval's batch of one or in a check's stacked rows.  An empty batch
    skips the row loop.

    Operands are truncated to ``space`` as in :func:`jet_mul`."""
    operands, out = spec.split("->")
    sa, sb = operands.split(",")
    dot = not out or (sa[-1:] == sb[-1:] and sa[-1:] not in out)
    if dot and a.ndim == len(sa) + 2 and b.ndim == len(sb) + 2 and a.shape[-2]:
        return np.stack([
            jet_einsum(spec, a[..., k, :], b[..., k, :], space)
            for k in range(a.shape[-2])
        ], axis=-2)
    spec = f"{sa}...Z,{sb}...Z->{out}...Z"
    if space.order == 0:  # the value columns, in the memory order a gather gives them
        return np.einsum(spec, a[..., :1].copy(order="K"), b[..., :1].copy(order="K"))
    ii, jj, _ = space.mul_table
    return np.add.reduceat(np.einsum(spec, a[..., ii], b[..., jj]), space.mul_starts, axis=-1)


def jet_compose(dense: np.ndarray, series: np.ndarray, space: JetSpace) -> np.ndarray:
    """Horner evaluation of ``sum_m series[..., m] * (a - a.value)^m`` for
    every jet ``a`` of a dense array (``series`` has ``order + 1`` terms)."""
    k = space.order
    if k == 0:
        return series.copy()
    da = dense.copy()
    da[..., 0] = 0.0
    out = series[..., k, None] * da
    out[..., 0] += series[..., k - 1]
    for m in range(k - 2, -1, -1):
        out = jet_mul(out, da, space)
        out[..., 0] += series[..., m]
    return out


def _check_poles(dense: np.ndarray, space: JetSpace) -> None:
    """Raise :class:`PoleError` when a jet of a dense array has a pole.

    A pole means the value vanishes relative to the jet's *gradient* (rho
    at a boundary point: value ~ 1e-16, gradient ~ 1).  Comparing against
    the full coefficient vector would misfire on legitimately invertible
    jets whose Taylor radius is small (1/rho^2 deep in a ladder has top
    coefficients ~ rho^-(2+K)); comparing against nothing would misfire on
    uniformly tiny jets like rho^4 near the boundary.  Jets with a vanishing
    gradient fall back to the full coefficient scale (catching the jet of
    x^2 at x = 0).
    """
    a0 = dense[..., 0]
    mag = np.abs(dense)
    scale = mag.max(axis=-1)
    if space.order >= 1:
        grad = mag[..., 1 : 1 + space.dim].max(axis=-1)
        scale = np.where(grad > 0.0, grad, scale)
    pole = (mag[..., 0] <= POLE_TOL * scale) | (scale == 0.0)
    if pole.any():
        raise PoleError(
            f"reciprocal of a jet with vanishing value ({a0[pole].flat[0]:.3e}); "
            "this usually means evaluation at a boundary pole"
        )


def jet_reciprocal(dense: np.ndarray, space: JetSpace) -> np.ndarray:
    """``1/a`` for every jet ``a`` of a dense array; raises
    :class:`PoleError` at a pole (:func:`_check_poles`).

    The pole test runs only where it can fire: its scale is at most the
    largest coefficient, so ``|a0| > POLE_TOL * max|coeff|`` for every jet
    rules a pole out.  A NaN or inf coefficient fails this gate and takes
    the test.
    """
    a0 = dense[..., 0]
    mag = np.abs(dense)
    if not (mag[..., 0] > POLE_TOL * mag.max(axis=-1)).all():
        _check_poles(dense, space)
    if space.order == 0:  # the series is the value's reciprocal alone
        return 1.0 / dense[..., :1]
    signs, powers = space.reciprocal_terms
    return jet_compose(dense, signs / a0[..., None] ** powers, space)


def jet_function(
    f: str, dense: np.ndarray, space: JetSpace, param: float | None = None
) -> np.ndarray:
    """Elementary function ``f`` of every jet of a dense array, exact through
    the order by series composition.

    ``f`` is one of ``exp, log, sqrt, pow, sin, cos, tan, atan``; ``pow``
    takes the exponent through ``param``.  Arguments outside a function's
    domain raise :class:`DomainError`.
    """
    try:
        builder = _SERIES[f]
    except KeyError:
        raise ValueError(f"unknown jet function {f!r}") from None
    a0 = dense[..., 0]
    series = [builder(float(v), space.order, param) for v in a0.flat]
    # the series length is explicit: an empty batch gives an empty list
    return jet_compose(dense, np.reshape(series, a0.shape + (space.order + 1,)), space)


def value_inverse(a0: np.ndarray) -> np.ndarray:
    """Inverses ``(B, m, m)`` of the value matrices ``a0`` of a jet matrix
    ``(m, m)`` or of a batch ``(m, m, B)``, over the flattened batch.

    Raises :class:`PoleError` when a matrix is singular (the mask of
    :func:`_pivoted_elimination`): when partial pivot elimination meets a
    pivot ``|u_kk| <= POLE_TOL * max|A0|``, or when its smallest singular
    value is at the rounding level.  The matrices are inverted first, and
    that elimination runs only when ``np.linalg.inv`` raises, or when the
    batch fails the gate ``max|A0| * max||A0^-1||_inf < 1 / (m * POLE_TOL *
    PIVOT_MARGIN)``, both maxima over the batch (a NaN or inf bound fails it
    too).  The batch's product bounds each matrix's ``max|A0| *
    ||A0^-1||_inf``, which is sound: partial pivoting gives ``P A0 = L U``
    with ``|l_ij| <= 1``, so ``||L||_inf <= m``, and ``U^-1 = A0^-1 P^T L``
    bounds ``1/|u_kk| <= ||U^-1||_inf <= m ||A0^-1||_inf``; a pivot at the
    tolerance therefore forces the product to at least ``1/(m *
    POLE_TOL)``.  Likewise ``sigma_min >= 1/(sqrt(m) ||A0^-1||_inf)`` stays
    far above the rounding level of the rank test.  ``PIVOT_MARGIN`` covers
    the rounding of both the computed inverse and the elimination.  A batch
    that mixes scales may run the elimination where each matrix alone would
    pass, at a cost in time only.  A batch on which ``np.linalg.inv`` raises
    and the elimination flags nothing raises that ``LinAlgError`` again.
    """
    m = a0.shape[0]
    stacked = a0.reshape(m, m, -1).transpose(2, 0, 1)
    try:
        inv = np.linalg.inv(stacked)
    except np.linalg.LinAlgError:
        inv = None
    if inv is None or not (
        abs(stacked).max(initial=0.0) * abs(inv).sum(axis=2).max(initial=0.0)
        < 1.0 / (m * POLE_TOL * PIVOT_MARGIN)
    ):
        if _pivoted_elimination(a0[..., None], jet_space(m, 0))[1].any():
            raise PoleError("singular jet matrix (no usable pivot)")
        if inv is None:
            inv = np.linalg.inv(stacked)  # raises its LinAlgError again
    return inv


def jet_inverse(dense: np.ndarray, space: JetSpace) -> np.ndarray:
    """Inverse of a dense ``(m, m, ncoeff)`` jet matrix, or of each matrix
    of a batch ``(m, m, B, ncoeff)``.

    With ``A = A0 + N`` (``N`` without constant term) the Neumann series
    ``sum_k (-A0^-1 N)^k A0^-1`` ends after ``order`` terms and is exact.
    The values ``A0`` are inverted by :func:`value_inverse`, which raises
    :class:`PoleError` when one of them is singular.
    """
    a0 = dense[..., 0]
    inv0 = np.zeros(a0.shape + (space.ncoeff,))
    inv0[..., 0] = value_inverse(a0).transpose(1, 2, 0).reshape(a0.shape)
    if space.order == 0:
        return inv0
    step = np.einsum("ij...,jk...z->ik...z", -inv0[..., 0], dense[..., : space.ncoeff])
    step[..., 0] = 0.0
    out = inv0
    for _ in range(space.order):
        out = inv0 + jet_einsum("ij,jk->ik", step, out, space)
    return out


def jet_determinant(dense: np.ndarray, space: JetSpace) -> np.ndarray:
    """Determinant of a dense ``(m, m, ncoeff)`` jet matrix, or of each
    matrix of a batch ``(m, m, B, ncoeff)``, as ``(ncoeff,)`` or
    ``(B, ncoeff)``.

    A numerically singular matrix (the mask of :func:`_pivoted_elimination`)
    gets the zero jet.
    """
    det = _pivoted_elimination(dense, space)[0]
    return det.reshape(dense.shape[2:-1] + (space.ncoeff,))


def _pivoted_elimination(dense: np.ndarray, space: JetSpace) -> tuple:
    """LU elimination with partial pivoting on the values of each jet
    matrix of a batch ``(m, m, ..., ncoeff)``; each column eliminates all
    rows below its pivot at once.

    Returns the determinant jets ``(B, ncoeff)`` over the flattened batch
    and the mask ``(B,)`` of the numerically singular matrices, whose
    determinant is the zero jet: those whose elimination meets a pivot
    value at most ``POLE_TOL`` times their largest value entry, and the
    finite ones whose smallest singular value is at most ``m * RANK_TOL``
    times it.  The last pivot of an exactly singular matrix is rounding
    noise, which a small earlier pivot can amplify past the tolerance
    (a copy of row 0 below rows with relative pivots 0.41, 0.89 and 4.6e-5
    does); its smallest singular value stays at the rounding level.  The
    SVD runs only on the matrices the pivots leave unflagged whose pivot
    product leaves room for that: ``|det| <= sigma_min sigma_max^(m-1)``
    and ``sigma_max <= m max|A|``, so a product larger than that bound
    (with a factor 2 for its rounding) rules it out.
    """
    m = dense.shape[0]
    n = space.ncoeff
    values = dense[..., 0].reshape(m, m, -1).transpose(2, 0, 1)
    a = dense[..., :n].reshape(m, m, -1, n).copy()
    batch = np.arange(a.shape[2])
    big = abs(a[..., 0]).max(axis=(0, 1))
    tol = POLE_TOL * big
    singular = np.zeros(len(batch), dtype=bool)
    sign = np.ones(len(batch))
    unit = np.eye(1, n)[0]
    det = None
    for col in range(m):
        piv = col + abs(a[col:, col, :, 0]).argmax(axis=0)
        singular |= abs(a[piv, col, batch, 0]) <= tol
        sign[piv != col] *= -1.0
        rows = a[piv, :, batch]
        a[piv, :, batch] = a[col, :, batch]
        a[col, :, batch] = rows
        # a singular matrix keeps eliminating with a unit pivot; its
        # determinant is zeroed below
        pivot = np.where(singular[:, None], unit, a[col, col])
        det = pivot if det is None else jet_mul(det, pivot, space)
        if col + 1 < m:
            factor = jet_mul(a[col + 1 :, col], jet_reciprocal(pivot, space), space)
            a[col + 1 :, col + 1 :] -= jet_mul(
                factor[:, None], a[col, None, col + 1 :], space
            )
    level = m * RANK_TOL * big
    # a NaN or inf matrix takes no SVD (it raises there)
    room = ~singular & np.isfinite(big) & ~(abs(det[:, 0]) > 2.0 * level * (m * big) ** (m - 1))
    if room.any():
        singular[room] = np.linalg.svd(values[room], compute_uv=False)[:, -1] <= level[room]
    return np.where(singular[:, None], 0.0, det * sign[:, None]), singular
