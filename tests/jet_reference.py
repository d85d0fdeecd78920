"""Scalar-jet reference for the tests.

The package computes with dense jet arrays only (module ``tractorlab.jets``).
The tests compare those kernels against :class:`~tractorlab.jets.Jet`
arithmetic on one scalar jet at a time.  This module holds what that
comparison needs beyond ``Jet`` itself: conversion between dense arrays and
object arrays of jets, jet constructors, elementary functions of one jet,
the object-array LU determinant the dense ``jet_determinant`` replaced, and
the pivot loop that the gated ``jet_inverse`` is tested against.
"""

import math

import numpy as np

from tractorlab.jets import POLE_TOL, DomainError, Jet, PoleError, jet_function, jet_space


def jet_constant(value, dim, order):
    return jet_space(dim, order).constant(value)


def jet_variable(i, base_value, dim, order):
    """Jet of the coordinate function x^i at the base point."""
    return jet_space(dim, order).variable(i, base_value)


def point_jets(space, coords):
    """Coordinate jets of a point, one variable jet per coordinate."""
    if len(coords) != space.dim:
        raise ValueError(f"expected {space.dim} coordinates, got {len(coords)}")
    return [space.variable(i, x) for i, x in enumerate(coords)]


def jet_apply(f, a, param=None):
    """Elementary function ``f`` of one jet (see ``jets.jet_function``);
    ``abs_smooth`` is ``sign(a) * a`` away from zero."""
    if f == "abs_smooth":
        if abs(a.value) <= POLE_TOL:
            raise DomainError("abs_smooth at a (numerical) zero crossing")
        return a if a.value > 0 else -a
    return Jet(a.space, jet_function(f, a.coeffs, a.space, param))


def jet_call(func, value):
    """``call`` of ``expr_reference.evaluate`` over scalar jets: jets are
    composed with the function, constant subtrees stay floats."""
    if isinstance(value, Jet):
        return jet_apply(func, value)
    return getattr(math, func)(value)


def jet_partial(a, i):
    """Jet of df/dx^i; the result has order one lower."""
    return a.partial(i)


def jet_det(mat):
    """Determinant of a square object array of jets (LU, partial pivoting);
    a numerically singular matrix has the zero jet."""
    a = np.array(mat, dtype=object, copy=True)
    m = a.shape[0]
    if a.shape != (m, m):
        raise ValueError("jet_det expects a square matrix")
    sign = 1.0
    vscale = max(abs(a[r, c].value) for r in range(m) for c in range(m))
    pivots = []
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(a[r, col].value))
        if abs(a[piv, col].value) <= POLE_TOL * vscale:
            return a[0, 0].space.constant(0.0)
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            sign = -sign
        pivots.append(a[col, col])
        for r in range(col + 1, m):
            factor = a[r, col] / a[col, col]
            for c in range(col + 1, m):
                a[r, c] = a[r, c] - factor * a[col, c]
    det = pivots[0]
    for p in pivots[1:]:
        det = det * p
    return det * sign if sign < 0 else det


def check_pivots(a0):
    """Raise :class:`PoleError` when partial-pivot elimination of a value
    matrix ``(m, m)``, or of any matrix of a batch ``(m, m, B)``, meets a
    pivot below the pole tolerance (relative to that matrix's size): the
    exact test of a singular value matrix, by division."""
    m = a0.shape[0]
    u = a0.reshape(m, m, -1).astype(float)
    tol = POLE_TOL * abs(u).max(axis=(0, 1))
    batch = np.arange(u.shape[2])
    for col in range(m):
        piv = abs(u[col:, col]).argmax(axis=0)
        piv += col
        prow = u[piv, :, batch].T  # pivot row of each matrix
        if (abs(prow[col]) <= tol).any():
            raise PoleError("singular jet matrix (no usable pivot)")
        if col == m - 1:  # the last pivot has no rows below it
            break
        # swap: row col is finished, so only the pivot row's slot is written
        u[piv, :, batch] = u[col].T
        below = u[col + 1 :, col:]
        below -= (below[:, 0] / prow[col])[:, None] * prow[col:]


def jet_values(arr):
    """Constant terms of an object array of jets, as a float array."""
    arr = np.asarray(arr, dtype=object)
    return np.array([j.coeffs[0] for j in arr.flat]).reshape(arr.shape)


def jet_stack(arr, space):
    """Dense ``(*shape, ncoeff)`` array of an object array of jets, each
    truncated to the order of ``space``."""
    arr = np.asarray(arr, dtype=object)
    n = space.ncoeff
    return np.array([j.coeffs[:n] for j in arr.flat]).reshape(arr.shape + (n,))


def jet_views(dense, space):
    """Object array of :class:`Jet` views onto the rows of a dense array."""
    out = np.empty(dense.shape[:-1], dtype=object)
    flat = out.reshape(-1)
    for k, row in enumerate(dense.reshape(-1, space.ncoeff)):
        flat[k] = Jet(space, row)
    return out
