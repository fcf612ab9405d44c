"""Geographic machinery and the two spatial regression models.

Locations are mapped from (latitude, longitude) degrees to unit 3-vectors

    c = (cos(lat), sin(lat) cos(lon), sin(lat) sin(lon))

(angles in radians), so squared distances are chordal: ``d2 = 2 (1 - c_i'c_j)``.
Subtracting raw degrees would misjudge pairs that straddle the +-180
longitude seam; the chordal route does not.

Neighbors come from one table per dataset (:func:`neighbor_table`, ties to
the lower index); the dense :func:`contiguity_matrix`, leave-one-out folds
and out-of-sample lags are all read off it with :func:`row_weights`.

Two models build on the plain compositional regression:

* the lagged-covariate model adds neighborhood averages ``W x`` of the
  covariates as extra regressors (coefficients split into local ``beta``
  and spillover ``gamma``), and
* the locally weighted model refits at every location with Gaussian kernel
  weights ``w_ij = exp((c_i'c_j - 1) / h^2)``, giving location-specific
  coefficient matrices.  :func:`fit_gwar` and :func:`predict_gwar` solve
  their locations as one set of weighted fits
  (``regression.fit_alpha_batch``), with kernel weights built a chunk of
  locations at a time.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import (
    DegenerateWeights,
    DimensionMismatch,
    InvalidK,
    NonpositiveBandwidth,
    OutOfRangeCoordinate,
)
from .optim import LmOptions, LmResult
from .regression import (
    RowBlocks,
    _inverse_logit,
    coef_to_theta,
    fit_alpha_batch,
    fit_alpha_regression,
    kld,
    theta_to_coef,
)

COINCIDENT_DIST_SQ = 1e-12  # floor for inverse-distance weights
ROUNDING_DIST_SQ = 1e-15  # below the resolution of 2*(1 - c'c) in doubles


def to_cartesian(lat, lon):
    """Unit 3-vector(s) for coordinates given in degrees.

    Latitude must lie in [-90, 90] and longitude in (-180, 180].
    """
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    if np.any(lat < -90) or np.any(lat > 90):
        raise OutOfRangeCoordinate("latitude outside [-90, 90]")
    if np.any(lon <= -180) or np.any(lon > 180):
        raise OutOfRangeCoordinate("longitude outside (-180, 180]")
    nu = np.radians(lat)
    v = np.radians(lon)
    cart = np.stack(
        [np.cos(nu), np.sin(nu) * np.cos(v), np.sin(nu) * np.sin(v)], axis=-1
    )
    return cart


@dataclass
class GeoCoordinates:
    """Per-observation coordinates with cached unit vectors."""

    lat: np.ndarray
    lon: np.ndarray
    cart: np.ndarray

    @classmethod
    def from_degrees(cls, lat, lon):
        lat = np.atleast_1d(np.asarray(lat, dtype=np.float64))
        lon = np.atleast_1d(np.asarray(lon, dtype=np.float64))
        if lat.shape != lon.shape:
            raise DimensionMismatch("latitude and longitude lengths differ")
        return cls(lat=lat, lon=lon, cart=to_cartesian(lat, lon))

    @property
    def n(self):
        return self.lat.shape[0]


def chordal_distance_sq(ci, cj):
    """Squared straight-line distance between unit vectors: 2 (1 - ci'cj).

    Symmetric, in [0, 4]; tiny negatives from rounding are clamped to 0.
    """
    ci = np.asarray(ci, dtype=np.float64)
    cj = np.asarray(cj, dtype=np.float64)
    d2 = np.maximum(2.0 * (1.0 - np.sum(ci * cj, axis=-1)), 0.0)
    return np.where(d2 < ROUNDING_DIST_SQ, 0.0, d2)


def pairwise_chordal_sq(cart, other=None):
    """Squared chordal distances between the rows of ``cart`` and of ``other``.

    ``other`` defaults to ``cart``, and then the diagonal is exactly zero.
    """
    d2 = np.maximum(2.0 * (1.0 - cart @ (cart if other is None else other).T), 0.0)
    d2[d2 < ROUNDING_DIST_SQ] = 0.0
    if other is None:
        np.fill_diagonal(d2, 0.0)
    return d2


def neighbor_table(coords, m, query=None):
    """Each location's m nearest other locations, nearest first.

    Returns ``(idx, d2)`` of shape (n, m): neighbor indices and squared
    chordal distances.  Ties keep the lower index, so ``idx[:, :k]`` is the
    k-nearest set, and dropping a location from a row leaves the nearest
    sets of the remaining data.  With ``query``, rows are the query
    locations' nearest among ``coords``, a coincident one included.
    """
    if query is None:
        d2 = pairwise_chordal_sq(coords.cart)
        np.fill_diagonal(d2, np.inf)
    else:
        d2 = pairwise_chordal_sq(query.cart, coords.cart)
    idx = np.argsort(d2, axis=1, kind="stable")[:, :m]
    return idx, np.take_along_axis(d2, idx, axis=1)


def row_weights(d2):
    """Inverse squared-distance weights (capped at 1e12), each row summing to 1."""
    w = 1.0 / np.maximum(d2, COINCIDENT_DIST_SQ)
    return w / w.sum(axis=-1, keepdims=True)


def neighbor_lag(idx, w, X):
    """Spatial lags from a neighbor table: ``sum_t w[i, t] X[idx[i, t], 1:]``
    (tables may carry leading axes, e.g. one per leave-one-out fold)."""
    return np.einsum("...t,...tp->...p", w, X[idx, 1:])


def contiguity_matrix(coords, k):
    """Row-standardized k-nearest-neighbor inverse squared-distance weights.

    Each row keeps its k nearest non-self neighbors at weight ``1/d2``
    (capped at 1e12 for coincident locations) and zeros elsewhere, then is
    divided by its sum.  Distance ties at the k-th position keep the
    lower-index observation (the first k columns of :func:`neighbor_table`).
    """
    n = coords.n
    if not 1 <= k <= n - 1:
        raise InvalidK(f"k must satisfy 1 <= k <= n-1 = {n - 1}, got {k}")
    idx, d2 = neighbor_table(coords, k)
    W = np.zeros((n, n))
    np.put_along_axis(W, idx, row_weights(d2), axis=1)
    return W


def gaussian_kernel_weights(coords, focal, h):
    """Kernel weights (:func:`kernel_weights_at`) of every location relative
    to a focal one, whose own weight is exactly 1."""
    w = kernel_weights_at(coords, coords.cart[focal], h)
    w[focal] = 1.0
    return w


def _dot_gap(dots):
    """Clamp c'c - 1 into [-2, 0], snapping sub-resolution gaps to 0."""
    gap = np.minimum(dots - 1.0, 0.0)
    return np.where(gap > -0.5 * ROUNDING_DIST_SQ, 0.0, gap)


def kernel_weights_at(coords, cart_point, h):
    """Gaussian kernel weights of training locations relative to any point,
    or one row per point for a (k, 3) block of points.

    Uses the simplification ``exp(-d2/(2 h^2)) = exp((c_i'c_j - 1)/h^2)``.
    ``h^2`` is floored at the smallest normal double, so it never underflows
    to 0 (as it would below h ~ 1.5e-162): a gap of 0 (coincident points)
    keeps weight 1 at any ``h``, and a nonzero gap over so small an ``h^2``
    overflows to -inf, so weight 0.
    """
    if h <= 0:
        raise NonpositiveBandwidth(f"bandwidth must be > 0, got {h}")
    dots = (coords.cart @ np.asarray(cart_point, dtype=np.float64).T).T
    with np.errstate(over="ignore"):
        return np.exp(_dot_gap(dots) / max(h * h, np.finfo(float).tiny))


def spatial_lag(W, X):
    """Neighborhood averages of the covariates (the intercept is never lagged)."""
    W = np.asarray(W, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if W.shape[0] != W.shape[1] or W.shape[0] != X.shape[0]:
        raise DimensionMismatch(
            f"weight matrix {W.shape} does not conform with design {X.shape}"
        )
    return W @ X[:, 1:]


@dataclass
class SlxFit:
    """Fit with spatially lagged covariates.

    ``beta`` holds intercept and local covariate coefficients; ``gamma`` has
    the same shape with a structurally zero intercept row, so both slot into
    the marginal-effects formulas unchanged.  ``coefficients`` is the full
    matrix on the augmented design ``[X | WX]``.
    """

    beta: np.ndarray
    gamma: np.ndarray
    coefficients: np.ndarray
    fitted: np.ndarray
    sse: float
    kld: float
    alpha: float
    lm: LmResult
    covariance: Optional[np.ndarray] = None


def fit_alpha_slx(Y, X, W, alpha, opts=None, theta0=None):
    """Fit the lagged-covariate model: linear predictors ``x'b + (Wx)'g``.

    Reduces by construction to the plain regression on the augmented design
    ``[X | WX]``; the coefficient matrix is split back into local and
    spillover parts.
    """
    X = np.asarray(X, dtype=np.float64)
    p = X.shape[1] - 1
    X_aug = np.hstack([X, spatial_lag(W, X)])
    fit = fit_alpha_regression(Y, X_aug, alpha, opts=opts, theta0=theta0)
    C = fit.coefficients
    d = C.shape[1]
    beta = C[: p + 1]
    gamma = np.vstack([np.zeros((1, d)), C[p + 1 :]])
    return SlxFit(
        beta=beta,
        gamma=gamma,
        coefficients=C,
        fitted=fit.fitted,
        sse=fit.sse,
        kld=fit.kld,
        alpha=fit.alpha,
        lm=fit.lm,
    )


@dataclass
class GwarFit:
    """Locally weighted fit: one coefficient matrix per location.

    Training inputs and the global warm-start solution are retained so that
    out-of-sample locations can be fit on demand (see :func:`predict_gwar`).
    """

    local_coefficients: np.ndarray  # n x (p+1) x d
    alpha: float
    h: float
    fitted: np.ndarray
    kld: float
    global_coefficients: np.ndarray
    train_Y: np.ndarray
    train_X: np.ndarray
    train_coords: GeoCoordinates
    opts: LmOptions


def _local_coefficients(outcomes, n_cols, d, degenerate):
    """Coefficient stack of a set of local fits; the lowest-index failure is
    raised, a :class:`DegenerateWeights` one with ``degenerate(j)`` as its
    message."""
    for j, outcome in enumerate(outcomes):
        if isinstance(outcome, DegenerateWeights):
            raise DegenerateWeights(degenerate(j))
        if isinstance(outcome, Exception):
            raise outcome
    return np.stack([theta_to_coef(o.theta, n_cols, d) for o in outcomes])


def fit_gwar(Y, X, coords, alpha, h, opts=None):
    """Fit the locally weighted model at every observed location.

    Each location minimizes the kernel-weighted squared residuals over the
    whole sample, its own weight 1; local solves warm-start from the global
    fit.  The n locations are one set of weighted fits
    (:func:`fit_alpha_batch`), solved chunk by chunk on one thread.  Raises
    the exception of the lowest-index location that fails,
    :class:`DegenerateWeights` where all its other weights underflow.
    """
    Y = np.asarray(Y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    opts = opts or LmOptions()
    n, D = Y.shape
    global_fit = fit_alpha_regression(Y, X, alpha, opts=opts)

    def location_weights(rows):
        w = kernel_weights_at(coords, coords.cart[rows], h)
        own = (np.arange(len(rows)), rows)
        w[own] = 0.0
        # a location whose other weights all underflow gets no data at all,
        # so its fit fails as degenerate
        w[own] = np.where((np.max(w, axis=1) == 0.0) & (n > 1), 0.0, 1.0)
        return w

    outcomes = fit_alpha_batch(Y, X, alpha, RowBlocks(n, location_weights),
                               global_fit.lm.theta, opts)
    local = _local_coefficients(
        outcomes, X.shape[1], D - 1,
        lambda i: f"all non-self kernel weights underflowed at location {i} (h={h:g})")
    fitted = local_fitted_mean(X, local)
    return GwarFit(
        local_coefficients=local,
        alpha=float(alpha),
        h=float(h),
        fitted=fitted,
        kld=kld(Y, fitted),
        global_coefficients=global_fit.coefficients,
        train_Y=Y,
        train_X=X,
        train_coords=coords,
        opts=opts,
    )


def local_fitted_mean(X, local):
    """Mean compositions where row i of ``X`` uses its own coefficients ``local[i]``."""
    return _inverse_logit(np.einsum("ip,ipd->id", X, local))


def predict_gwar(fit, X_new, coords_new):
    """Mean compositions at new locations.

    Each new location gets its own kernel-weighted fit on the training data
    only (warm-started from the stored global solution), evaluated at the
    matching row of ``X_new``; the locations are one set of weighted fits,
    as in :func:`fit_gwar`.
    """
    X_new = np.asarray(X_new, dtype=np.float64)
    weights = RowBlocks(coords_new.n, lambda rows: kernel_weights_at(
        fit.train_coords, coords_new.cart[rows], fit.h))
    outcomes = fit_alpha_batch(fit.train_Y, fit.train_X, fit.alpha, weights,
                               coef_to_theta(fit.global_coefficients), fit.opts)
    local = _local_coefficients(
        outcomes, fit.train_X.shape[1], fit.train_Y.shape[1] - 1,
        lambda j: f"all kernel weights underflowed at prediction point {j} (h={fit.h:g})")
    return local_fitted_mean(X_new, local)
