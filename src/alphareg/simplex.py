"""Transformations between the simplex and Euclidean space.

A composition is a vector of nonnegative proportions summing to 1.  The
power-parameterized transform implemented here maps an n x D matrix of
compositions to an n x (D-1) matrix of unconstrained scores:

    u = y^a / sum(y^a)          (componentwise power, renormalized)
    z = (1/a) * (D*u - 1) @ H.T

where ``H`` is the (D-1) x D Helmert sub-matrix.  At ``a = 1`` this is an
affine map of the raw proportions; as ``a -> 0`` it converges to the
isometric log-ratio (ilr) transform, which is used directly when ``a == 0``.
Positive ``a`` handles zero proportions without imputation: ``0**a == 0``.

All functions are pure and accept either a single composition (1-D) or a
matrix of row compositions (2-D), returning the matching shape; a NaN or an
infinity in either is a :class:`NonNumericCell` (:func:`_as_rows`).
"""

import numpy as np

from .exceptions import (
    InvalidDimension,
    InvalidParameters,
    NegativeEntry,
    NonNumericCell,
    OutOfImage,
    ZeroRow,
    ZeroWithLogRatio,
    ZeroWithNonpositiveAlpha,
    check_real,
)

ROW_SUM_TOL = 1e-10


def _check_finite(name, a):
    """The one rule of an array's values: :class:`NonNumericCell` unless
    every entry of ``a``, a 2-D array or a stack of them, is finite.  The
    message names ``name`` and the first non-finite entry's row and column,
    and its position in the stack."""
    if not np.isfinite(a).all():
        *block, i, j = (int(t) for t in np.argwhere(~np.isfinite(a))[0])
        where = (f"block {tuple(block)}, " if block else "") + f"row {i}, column {j}"
        raise NonNumericCell(f"{a[(*block, i, j)]} at {where} of the {name} is not a "
                             "finite number")


def _as_rows(y, name="compositions"):
    """The one rule of the transforms' inputs: ``y`` as a (2-D float array,
    was_1d flag), else :class:`InvalidDimension` for another ndim, and
    :class:`NonNumericCell` naming ``name`` for a non-finite entry."""
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise InvalidDimension(f"expected a vector or matrix, got ndim={arr.ndim}")
    rows = np.atleast_2d(arr)
    _check_finite(name, rows)
    return rows, arr.ndim == 1


def _check_alpha(alpha):
    return check_real("alpha", alpha, "[-1, 1]")


def closure(raw):
    """Normalize rows of nonnegative amounts to proportions summing to 1.

    Parameters
    ----------
    raw : array_like, shape (n, D) or (D,)
        Nonnegative amounts. Zeros are kept as zeros, never imputed.

    Returns
    -------
    ndarray
        Rows divided by their sums.

    Raises
    ------
    NonNumericCell
        If any entry is NaN or infinite.
    NegativeEntry
        If any entry is negative.
    ZeroRow
        If a row sums to zero.
    """
    mat, squeeze = _as_rows(raw, "amounts")
    if np.any(mat < 0):
        i, j = np.argwhere(mat < 0)[0]
        raise NegativeEntry(f"negative amount at row {i}, column {j}")
    sums = mat.sum(axis=1, keepdims=True)
    if np.any(sums == 0):
        raise ZeroRow(f"row {int(np.argwhere(sums == 0)[0][0])} sums to zero")
    out = mat / sums
    return out[0] if squeeze else out


def helmert_submatrix(D):
    """Orthonormal (D-1) x D Helmert sub-matrix.

    Row m (1-based) has m entries equal to 1/sqrt(m*(m+1)) followed by a
    single -m/sqrt(m*(m+1)) and zeros.  Rows are orthonormal and each is
    orthogonal to the all-ones vector, so H @ H.T = I and
    H.T @ H = I - (1/D) * ones.
    """
    if int(D) != D or D < 2:
        raise InvalidDimension(f"need an integer D >= 2, got {D}")
    D = int(D)
    H = np.zeros((D - 1, D))
    for m in range(1, D):
        c = 1.0 / np.sqrt(m * (m + 1))
        H[m - 1, :m] = c
        H[m - 1, m] = -m * c
    return H


def power_transform(y, alpha):
    """Componentwise power followed by renormalization (stays in the simplex).

    ``u_i = y_i**alpha / sum_j y_j**alpha`` rowwise.  Zeros map to zeros for
    ``alpha > 0``; zeros with ``alpha <= 0`` are rejected.
    """
    alpha = _check_alpha(alpha)
    if alpha == 0.0:
        raise InvalidParameters("power transform requires alpha != 0")
    mat, squeeze = _as_rows(y)
    if np.any(mat < 0):
        raise NegativeEntry("compositions must be nonnegative")
    if alpha < 0 and np.any(mat == 0):
        raise ZeroWithNonpositiveAlpha(
            "data contain zeros; the power transform needs alpha > 0"
        )
    powered = mat**alpha
    out = powered / powered.sum(axis=1, keepdims=True)
    return out[0] if squeeze else out


def alpha_transform(y, alpha):
    """Map compositions to (D-1)-dimensional Euclidean scores.

    ``z = (1/alpha) * (D*u - 1) @ H.T`` with ``u`` the power transform of
    ``y``.  ``alpha == 0`` dispatches to :func:`ilr_transform` (the limit of
    the map), avoiding the cancellation a tiny alpha would cause.
    """
    alpha = _check_alpha(alpha)
    mat, squeeze = _as_rows(y)
    if alpha == 0.0:
        out = ilr_transform(mat)
        return out[0] if squeeze else out
    D = mat.shape[1]
    u = power_transform(mat, alpha)
    z = (D * u - 1.0) @ helmert_submatrix(D).T / alpha
    return z[0] if squeeze else z


def ilr_transform(y):
    """Isometric log-ratio scores: ``log(y / geometric_mean(y)) @ H.T``."""
    mat, squeeze = _as_rows(y)
    if np.any(mat < 0):
        raise NegativeEntry("compositions must be nonnegative")
    if np.any(mat == 0):
        raise ZeroWithLogRatio("log-ratio transforms require strictly positive data")
    logs = np.log(mat)
    clr = logs - logs.mean(axis=1, keepdims=True)
    z = clr @ helmert_submatrix(mat.shape[1]).T
    return z[0] if squeeze else z


def alpha_transform_inverse(z, alpha):
    """Recover compositions from Euclidean scores.

    Two steps undo the forward map: ``u = (alpha * z @ H + 1) / D`` followed
    by ``y_i = u_i**(1/alpha) / sum_j u_j**(1/alpha)``.  For ``alpha == 0``
    the inverse of the ilr is used (softmax of the clr scores).

    Raises
    ------
    OutOfImage
        If a recovered ``u`` entry is negative beyond 1e-12 (the point does
        not come from any composition), or is nonpositive with ``alpha < 0``.
    """
    alpha = _check_alpha(alpha)
    zmat, squeeze = _as_rows(z, "scores")
    D = zmat.shape[1] + 1
    H = helmert_submatrix(D)
    if alpha == 0.0:
        clr = zmat @ H
        e = np.exp(clr - clr.max(axis=1, keepdims=True))
        y = e / e.sum(axis=1, keepdims=True)
        return y[0] if squeeze else y
    u = (alpha * (zmat @ H) + 1.0) / D
    if np.any(u < -1e-12):
        i, j = np.argwhere(u < -1e-12)[0]
        raise OutOfImage(
            f"recovered power-composition entry {u[i, j]:.3e} at row {i}, "
            f"column {j} is negative; scores are outside the transform image"
        )
    u = np.maximum(u, 0.0)
    if alpha < 0 and np.any(u == 0):
        raise OutOfImage("zero entries cannot be inverted with alpha < 0")
    powered = u ** (1.0 / alpha)
    y = powered / powered.sum(axis=1, keepdims=True)
    return y[0] if squeeze else y
