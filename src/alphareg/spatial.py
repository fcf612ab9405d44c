"""Geographic machinery and the two spatial regression models.

Locations are mapped from (latitude, longitude) degrees to unit 3-vectors

    c = (cos(lat), sin(lat) cos(lon), sin(lat) sin(lon))

(angles in radians), so squared distances are chordal: ``d2 = 2 (1 - c_i'c_j)``.
Subtracting raw degrees would misjudge pairs that straddle the +-180
longitude seam; the chordal route does not.

Neighbors come from one table per dataset (:func:`neighbor_table`, ties to
the lower index).  Every spatial lag, of the full data, of a leave-one-out
fold or of a new location, is read off it by :func:`neighbor_lag`;
:func:`contiguity_matrix` is the same weights as a dense matrix, kept as
the reference the table is checked against.

Two models build on the plain compositional regression:

* the lagged-covariate model adds neighborhood averages ``W x`` of the
  covariates as extra regressors (coefficients split into local ``beta``
  and spillover ``gamma``), and
* the locally weighted model refits at every location with Gaussian kernel
  weights ``w_ij = exp(-d2_ij / (2 h^2))``, giving location-specific
  coefficient matrices.  :func:`fit_gwar` and :func:`predict_gwar` solve
  their locations as one set of weighted fits
  (``regression.fit_alpha_batch``), with kernel weights built a chunk of
  locations at a time.  After a bandwidth search, :func:`fit_gwar`
  continues each location from its leave-one-out fold's solution.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import (
    DegenerateWeights,
    DimensionMismatch,
    InvalidK,
    InvalidParameters,
    MissingColumn,
    NonpositiveBandwidth,
    OutOfRangeCoordinate,
    check_integer,
    check_real,
)
from .optim import LmOptions, solver_diagnostics
from .regression import (
    FitResult,
    RowBlocks,
    _check_problem,
    _inverse_logit,
    coef_to_theta,
    fit_alpha_batch,
    fit_alpha_regression,
    kld,
    theta_to_coef,
)
from .simplex import _check_finite

COINCIDENT_DIST_SQ = 1e-12  # floor for inverse-distance weights
ROUNDING_DIST_SQ = 1e-15  # below the resolution of 2*(1 - c'c) in doubles


def to_cartesian(lat, lon):
    """Unit 3-vector(s) for coordinates given in degrees.

    Latitude must lie in [-90, 90] and longitude in (-180, 180], so neither
    may be NaN or infinite.
    """
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    # written so that NaN, which fails every comparison, fails the range
    if not np.all((-90 <= lat) & (lat <= 90)):
        raise OutOfRangeCoordinate("latitude outside [-90, 90]")
    if not np.all((-180 < lon) & (lon <= 180)):
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


def _check_locations(coords, n, rows="data rows"):
    """Raise :class:`MissingColumn` when there are no ``coords``, and
    :class:`DimensionMismatch` unless they hold n locations, one per row."""
    if coords is None:
        raise MissingColumn("the spatial models need latitude and longitude columns")
    if coords.n != n:
        raise DimensionMismatch(f"{coords.n} locations for {n} {rows}")


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
    locations' nearest among ``coords``, a coincident one included.  Raises
    :class:`InvalidK` unless the integer ``m`` satisfies ``1 <= m <= n-1``
    for the n locations in ``coords`` (``m <= n`` with ``query``).
    """
    check_integer("neighbor count k", m)
    top = coords.n - (query is None)
    if not 1 <= m <= top:
        raise InvalidK(f"k must satisfy 1 <= k <= {top} for {coords.n} locations, got {m}")
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


def neighbor_lag(idx, d2, X):
    """Neighborhood averages of the covariates from a neighbor table:
    ``sum_t w[i, t] X[idx[i, t], 1:]`` with ``w = row_weights(d2)`` (the
    intercept is never lagged).  Tables may carry leading axes, e.g. one per
    leave-one-out fold."""
    return np.einsum("...t,...tp->...p", row_weights(d2), X[idx, 1:])


def contiguity_matrix(coords, k):
    """Row-standardized k-nearest-neighbor inverse squared-distance weights,
    as a dense n x n matrix ``W`` with ``W @ X[:, 1:]`` the spatial lag.

    Each row keeps its k nearest non-self neighbors at weight ``1/d2``
    (capped at 1e12 for coincident locations) and zeros elsewhere, then is
    divided by its sum.  Distance ties at the k-th position keep the
    lower-index observation (the first k columns of :func:`neighbor_table`).
    The models lag through :func:`neighbor_lag`; this is the dense reference.
    """
    idx, d2 = neighbor_table(coords, k)
    W = np.zeros((coords.n, coords.n))
    np.put_along_axis(W, idx, row_weights(d2), axis=1)
    return W


def gaussian_kernel_weights(coords, focal, h):
    """Kernel weights (:func:`kernel_weights_at`) of every location relative
    to a focal one, whose own weight is exactly 1."""
    w = kernel_weights_at(coords, coords.cart[focal], h)
    w[focal] = 1.0
    return w


def kernel_weights_at(coords, cart_point, h):
    """Gaussian kernel weights ``exp(-d2 / (2 h^2))`` of training locations
    relative to any point, or one row per point for a (k, 3) block of points.

    ``d2`` is :func:`pairwise_chordal_sq`, so sub-resolution distances are
    exactly 0.  ``h^2`` is floored at the smallest normal double, so it never
    underflows to 0 (as it would below h ~ 1.5e-162): a distance of 0
    (coincident points) keeps weight 1 at any ``h``, and a nonzero one over
    so small an ``h^2`` overflows to inf, so weight 0.  ``h`` must be a
    finite real > 0 (:func:`_check_bandwidth`).
    """
    h = _check_bandwidth(h)
    points = np.asarray(cart_point, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.exp(-pairwise_chordal_sq(coords.cart, points).T
                      / (2.0 * max(h * h, np.finfo(float).tiny)))


def location_weights(coords, h, own):
    """The kernel weights of a fit at every location, as :class:`RowBlocks`:
    row i is :func:`kernel_weights_at` location i, with weight ``own`` on
    row i itself (1 for the locally weighted fit, 0 for its leave-one-out
    fold).  A location whose other weights all underflow gets no data at
    all, its own row included, so its fit fails as degenerate."""
    def block(rows):
        w = kernel_weights_at(coords, coords.cart[rows], h)
        mine = (np.arange(len(rows)), rows)
        w[mine] = 0.0
        w[mine] = np.where((np.max(w, axis=1) == 0.0) & (coords.n > 1), 0.0, own)
        return w
    return RowBlocks(coords.n, block)


def _check_bandwidth(h):
    """The one rule of a bandwidth, at every entry point (``RunConfig.h``,
    ``CvGrid.hs`` and the spatial functions): ``h`` as a float if it is a
    finite real > 0, else :class:`InvalidParameters`, whose subclass
    :class:`NonpositiveBandwidth` is raised for a real ``h <= 0``."""
    real = isinstance(h, (int, float, np.integer, np.floating)) and not isinstance(h, bool)
    if real and h <= 0:
        raise NonpositiveBandwidth(f"bandwidth must be > 0, got {h}")
    return check_real("bandwidth h", h, "(0, inf)")


@dataclass
class SlxFit(FitResult):
    """Fit with spatially lagged covariates.

    ``beta`` holds intercept and local covariate coefficients; ``gamma`` has
    the same shape with a structurally zero intercept row, so both slot into
    the marginal-effects formulas unchanged.  ``coefficients`` is the full
    matrix on the augmented design ``[X | lag]``.
    """

    beta: np.ndarray
    gamma: np.ndarray


def fit_alpha_slx(Y, X, lag, alpha, opts=None):
    """Fit the lagged-covariate model: linear predictors ``x'b + (Wx)'g``.

    ``lag`` holds the rows ``(Wx)'``, an n x p array such as
    ``neighbor_lag(*neighbor_table(coords, k), X)``.  Reduces by
    construction to the plain regression on the augmented design
    ``[X | lag]``; the coefficient matrix is split back into local and
    spillover parts.
    """
    X, _, _ = _check_problem(X)
    lag = np.asarray(lag, dtype=np.float64)
    p = X.shape[1] - 1
    if lag.shape != (X.shape[0], p):
        raise DimensionMismatch(f"lag {lag.shape} does not conform with design {X.shape}")
    return split_slx(fit_alpha_regression(Y, np.hstack([X, lag]), alpha, opts=opts), p)


def split_slx(fit, p):
    """The :class:`SlxFit` of a fit on an augmented design ``[X | lag]`` with
    p covariates (so ``2p + 1`` columns): its coefficient matrix split into
    local and spillover parts."""
    C = fit.coefficients
    gamma = np.vstack([np.zeros((1, C.shape[1])), C[p + 1 :]])
    return SlxFit(**vars(fit), beta=C[: p + 1], gamma=gamma)


@dataclass
class GwarFit:
    """Locally weighted fit: one coefficient matrix per location.

    Training inputs and the global warm-start solution are retained so that
    out-of-sample locations can be fit on demand (see :func:`predict_gwar`).
    ``fitted`` and ``kld`` are the training data's, computed from the
    training inputs and the local coefficients, so a fit rebuilt from a
    document has them too.  ``diagnostics`` records how the location solves
    stopped (:func:`optim.solver_diagnostics`); a rebuilt fit has none.
    """

    local_coefficients: np.ndarray  # n x (p+1) x d
    alpha: float
    h: float
    global_coefficients: np.ndarray
    train_Y: np.ndarray
    train_X: np.ndarray
    train_coords: GeoCoordinates
    opts: LmOptions
    diagnostics: Optional[dict] = None

    @property
    def fitted(self):
        return local_fitted_mean(self.train_X, self.local_coefficients)

    @property
    def kld(self):
        return kld(self.train_Y, self.fitted)


def _local_coefficients(outcomes, n_cols, d, degenerate):
    """Coefficient stack of a set of local fits; the lowest-index failure is
    raised, a :class:`DegenerateWeights` one with ``degenerate(j)`` as its
    message."""
    for j, outcome in enumerate(outcomes):
        if isinstance(outcome, DegenerateWeights):
            raise DegenerateWeights(degenerate(j))
        if isinstance(outcome, Exception):
            raise outcome
    theta = np.array([o.theta for o in outcomes]).reshape(len(outcomes), n_cols * d)
    return theta_to_coef(theta, n_cols, d)  # (0, n_cols, d) for no outcomes


def fit_gwar(Y, X, coords, alpha, h, opts=None, start=None):
    """Fit the locally weighted model at every observed location.

    Each location minimizes the kernel-weighted squared residuals over the
    whole sample, its own weight 1.  The n locations are one set of weighted
    fits (:func:`fit_alpha_batch`), solved chunk by chunk on one thread.
    Without ``start``, the global fit is solved from B = 0 and every
    location starts at its solution by the cold damping rule.  ``start`` is
    ``(global_fit, theta, damping)`` from a leave-one-out search at this
    (alpha, h): the full-data :class:`FitResult`, which is kept, and fold
    i's parameters ``theta[i]`` and final damping ``damping[i]``.  Fold i
    has location i's kernel weights except on row i (0 there), so location
    i continues from its solution by the warm rule of :mod:`alphareg.optim`
    (a damping of 0 starts cold).  ``h`` is checked before any fit, by the
    rule of :func:`kernel_weights_at`.  Raises the exception of the
    lowest-index location that fails, :class:`DegenerateWeights` where all
    its other weights underflow.
    """
    h = _check_bandwidth(h)
    X, _, Y = _check_problem(X, Y=Y)
    opts = opts or LmOptions()
    n, D = Y.shape
    _check_locations(coords, n)
    if start is None:
        global_fit = fit_alpha_regression(Y, X, alpha, opts=opts)
        theta0, damping0 = global_fit.lm.theta, None
    else:
        global_fit, theta0, damping0 = start
        if global_fit.alpha != float(alpha):
            raise InvalidParameters(
                f"start was fit at alpha={global_fit.alpha}, not at alpha={alpha}")

    outcomes = fit_alpha_batch(Y, X, alpha, location_weights(coords, h, 1.0),
                               theta0, opts, damping0)
    local = _local_coefficients(
        outcomes, X.shape[1], D - 1,
        lambda i: f"all non-self kernel weights underflowed at location {i} (h={h:g})")
    return GwarFit(
        local_coefficients=local,
        alpha=float(alpha),
        h=h,
        global_coefficients=global_fit.coefficients,
        train_Y=Y,
        train_X=X,
        train_coords=coords,
        opts=opts,
        diagnostics=solver_diagnostics(outcomes),
    )


def local_fitted_mean(X, local):
    """Mean compositions where row i of ``X`` uses its own coefficients ``local[i]``."""
    return np.ascontiguousarray(_inverse_logit(np.einsum("ip,ipd->di", X, local)).T)


def predict_gwar(fit, X_new, coords_new):
    """Mean compositions at new locations.

    Each new location gets its own kernel-weighted fit on the training data
    only, started from the local coefficients of its nearest training
    location, evaluated at the matching row of ``X_new``; the locations are
    one set of weighted fits, as in :func:`fit_gwar`.  ``X_new`` has the
    training design's columns, all finite (:class:`NonNumericCell`), and
    ``coords_new`` one location per row of it.  ``fit`` must hold one (q, d)
    coefficient matrix per training row and one global one, else
    :class:`DimensionMismatch` names the field.
    """
    n, q = fit.train_X.shape
    d = fit.train_Y.shape[1] - 1
    for name, shape in (("local_coefficients", (n, q, d)), ("global_coefficients", (q, d))):
        if np.shape(getattr(fit, name)) != shape:
            raise DimensionMismatch(f"{name} of shape {np.shape(getattr(fit, name))}, not "
                                    f"{shape} ({n} training rows, {q} columns, {d + 1} parts)")
    X_new = np.asarray(X_new, dtype=np.float64)
    if X_new.ndim != 2 or X_new.shape[1] != q:
        raise DimensionMismatch(f"new rows {X_new.shape} do not have the "
                                f"{q} columns of the training design")
    _check_finite("new rows", X_new)
    _check_locations(coords_new, len(X_new), "new rows")
    weights = RowBlocks(coords_new.n, lambda rows: kernel_weights_at(
        fit.train_coords, coords_new.cart[rows], fit.h))
    nearest = neighbor_table(fit.train_coords, 1, query=coords_new)[0][:, 0]
    outcomes = fit_alpha_batch(fit.train_Y, fit.train_X, fit.alpha, weights,
                               coef_to_theta(fit.local_coefficients[nearest]), fit.opts)
    local = _local_coefficients(
        outcomes, fit.train_X.shape[1], fit.train_Y.shape[1] - 1,
        lambda j: f"all kernel weights underflowed at prediction point {j} (h={fit.h:g})")
    return local_fitted_mean(X_new, local)
