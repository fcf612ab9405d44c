"""Hyper-parameter selection by leave-one-out cross-validation.

Every model is scored by the Kullback-Leibler divergence between held-out
compositions and their predictions: the plain model grids over the transform
power alpha, the lagged-covariate model over (alpha, k neighbors), and the
locally weighted model over (alpha, bandwidth h).  Nothing about a held-out
location leaks into its own prediction: lagged-covariate folds take their
neighbors from the full data's neighbor table with location i dropped, which
is identical to the table of the retained locations and uses nothing of i.

Fold-by-grid work units are independent; scores are reduced in index order,
making results identical for any thread count.  A fold whose solve fails
marks its grid point +inf instead of aborting the search; a grid on which
every point scores +inf raises :class:`NumericalError` rather than naming a
winner.  Ties at the minimum resolve to the smallest alpha, then the
smallest k or h.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._parallel import parallel_map
from .exceptions import (
    AllCoincident,
    InvalidK,
    InvalidParameters,
    ZeroWithNonpositiveAlpha,
    NumericalError,
)
from .optim import LmOptions
from .regression import fit_alpha_regression, fitted_mean, kld
from .spatial import (
    kernel_weights_at,
    neighbor_lag,
    neighbor_table,
    pairwise_chordal_sq,
    row_weights,
)

DEFAULT_ALPHAS = (0.1, 0.25, 0.5, 0.75, 1.0)
DEFAULT_KS = (3, 5, 7, 9)


@dataclass
class CvGrid:
    """Candidate hyper-parameter values; each list is kept sorted ascending."""

    alphas: tuple = DEFAULT_ALPHAS
    ks: Optional[tuple] = None
    hs: Optional[tuple] = None

    def __post_init__(self):
        self.alphas = tuple(sorted(float(a) for a in self.alphas))
        if not self.alphas:
            raise InvalidParameters("alpha grid is empty")
        if any(not -1.0 <= a <= 1.0 for a in self.alphas):
            raise InvalidParameters("alpha grid values must lie in [-1, 1]")
        if self.ks is not None:
            self.ks = tuple(sorted(int(k) for k in self.ks))
            if not self.ks or any(k < 1 for k in self.ks):
                raise InvalidParameters("neighbor grid must hold integers >= 1")
        if self.hs is not None:
            self.hs = tuple(sorted(float(h) for h in self.hs))
            if not self.hs or any(h <= 0 for h in self.hs):
                raise InvalidParameters("bandwidth grid must be strictly positive")


@dataclass
class CvResult:
    """Grid scores (sums of held-out divergences) and the winning point."""

    scores: np.ndarray
    best: tuple
    alphas: tuple
    ks: Optional[tuple] = None
    hs: Optional[tuple] = None
    per_fold: Optional[np.ndarray] = None


def median_heuristic_bandwidth(coords):
    """Median of the pairwise chordal distances between all locations."""
    n = coords.n
    if n < 2:
        raise InvalidParameters("need at least two locations")
    d2 = pairwise_chordal_sq(coords.cart)
    iu = np.triu_indices(n, k=1)
    med = float(np.median(np.sqrt(d2[iu])))
    if med == 0.0:
        raise AllCoincident("median pairwise distance is zero")
    return med


def default_h_grid(coords):
    """Ten log-spaced bandwidths spanning median/16 up to 4*median."""
    med = median_heuristic_bandwidth(coords)
    return np.geomspace(med / 16.0, 4.0 * med, 10)


def default_k_grid(n):
    """Neighbor counts from (3, 5, 7, 9) that every leave-one-out fold can use.

    A fold keeps n-1 locations, so k must not exceed n-2.
    """
    return tuple(k for k in DEFAULT_KS if k <= n - 2)


def select(model, Y, X, coords=None, grid=None, opts=None, threads=1):
    """Leave-one-out search for ``model`` ("alpha", "slx" or "gwar") over ``grid``,
    the one place a missing k or h grid gets its default (:func:`default_k_grid`
    of the sample size, :func:`default_h_grid` of the coordinates)."""
    grid = grid or CvGrid()
    if model == "alpha":
        return loocv_alpha(Y, X, grid, opts, threads=threads)
    if model == "slx":
        grid = replace(grid, ks=grid.ks or default_k_grid(len(Y)))
        return loocv_slx(Y, X, coords, grid, opts, threads=threads)
    if model == "gwar":
        grid = replace(grid, hs=grid.hs or tuple(default_h_grid(coords)))
        return loocv_gwar(Y, X, coords, grid, opts, threads=threads)
    raise InvalidParameters(f"unknown model {model!r}")


def _best_point(scores):
    """Index of the lowest finite score (first in grid order on ties).

    Raises :class:`NumericalError` when no grid point has a finite score.
    """
    if not np.isfinite(scores).any():
        raise NumericalError(
            "every cross-validation grid point failed; no finite score to select"
        )
    return np.unravel_index(int(np.argmin(scores)), scores.shape)


def _check_zeros_rule(Y, alphas):
    if np.any(np.asarray(Y) == 0) and any(a <= 0 for a in alphas):
        raise ZeroWithNonpositiveAlpha(
            "data contain zeros; every grid alpha must be > 0"
        )


def _warm_chain(fit_fn, grid_points):
    """Full-data fits over the grid, each warm-started from the previous."""
    warm = None
    thetas = {}
    for point in grid_points:
        result = fit_fn(point, warm)
        warm = result
        thetas[point] = result
    return thetas


def loocv_alpha(Y, X, grid=None, opts=None, threads=1, keep_folds=False):
    """Select alpha for the plain model by leave-one-out divergence.

    For every grid alpha and every observation, the model is refit without
    that observation and scored on it; the best alpha minimizes the summed
    divergence.  Returns a :class:`CvResult` with a scores vector over the
    alpha grid.
    """
    grid = grid or CvGrid()
    opts = opts or LmOptions()
    Y = np.asarray(Y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    n = Y.shape[0]
    if n < 3:
        raise InvalidParameters("leave-one-out needs at least 3 observations")
    _check_zeros_rule(Y, grid.alphas)

    warm = _warm_chain(
        lambda a, t0: fit_alpha_regression(Y, X, a, opts=opts, theta0=t0).lm.theta,
        grid.alphas,
    )
    units = [(gi, i) for gi in range(len(grid.alphas)) for i in range(n)]

    def score(unit):
        gi, i = unit
        a = grid.alphas[gi]
        mask = np.arange(n) != i
        try:
            fit = fit_alpha_regression(
                Y[mask], X[mask], a, opts=opts, theta0=warm[a]
            )
        except NumericalError:
            return np.inf
        return kld(Y[i : i + 1], fitted_mean(X[i : i + 1], fit.coefficients))

    vals = np.array(parallel_map(score, units, threads=threads))
    per_fold = vals.reshape(len(grid.alphas), n).T
    scores = per_fold.sum(axis=0)
    (best_gi,) = _best_point(scores)
    return CvResult(
        scores=scores,
        best=(grid.alphas[best_gi],),
        alphas=grid.alphas,
        per_fold=per_fold if keep_folds else None,
    )


def loocv_slx(Y, X, coords, grid=None, opts=None, threads=1, keep_folds=False):
    """Select (alpha, k) for the lagged-covariate model.

    One neighbor table (``max(ks)+1`` columns) serves every fold: fold i lags
    each retained row by its k nearest table entries other than i, and the
    held-out row by its own k nearest.  A fold keeps n-1 locations, so
    ``k > n-2`` scores +inf.  Scores form a (len(alphas), len(ks)) matrix.
    """
    grid = grid or CvGrid(ks=(5,))
    if grid.ks is None:
        raise InvalidParameters("the lagged-covariate search needs a k grid")
    opts = opts or LmOptions()
    Y = np.asarray(Y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    n = Y.shape[0]
    if n < 3:
        raise InvalidParameters("leave-one-out needs at least 3 observations")
    if max(grid.ks) > n - 1:
        raise InvalidK(f"k={max(grid.ks)} exceeds n-1={n - 1} neighbors")
    _check_zeros_rule(Y, grid.alphas)

    idx, d2 = neighbor_table(coords, min(max(grid.ks) + 1, n - 1))
    # full-data lags: the warm starts' design, and held-out row i's lag
    lag = {k: neighbor_lag(idx[:, :k], row_weights(d2[:, :k]), X) for k in grid.ks}
    points = [(a, k) for a in grid.alphas for k in grid.ks]
    warm = _warm_chain(
        lambda pt, t0: fit_alpha_regression(
            Y, np.hstack([X, lag[pt[1]]]), pt[0], opts=opts, theta0=t0
        ).lm.theta,
        points,
    )
    units = [(ai, ki, i)
             for ai in range(len(grid.alphas))
             for ki in range(len(grid.ks))
             for i in range(n)]

    def score(unit):
        ai, ki, i = unit
        a, k = grid.alphas[ai], grid.ks[ki]
        if k > n - 2:
            return np.inf
        mask = np.arange(n) != i
        nb = idx[mask, : k + 1]
        keep = nb != i
        keep[:, k] = ~keep[:, :k].all(axis=1)  # entry k only replaces a dropped i
        w = row_weights(d2[mask, : k + 1][keep].reshape(n - 1, k))
        X_aug = np.hstack([X[mask], neighbor_lag(nb[keep].reshape(n - 1, k), w, X)])
        try:
            fit = fit_alpha_regression(
                Y[mask], X_aug, a, opts=opts, theta0=warm[(a, k)]
            )
        except NumericalError:
            return np.inf
        x_aug = np.concatenate([X[i], lag[k][i]])[None, :]
        return kld(Y[i : i + 1], fitted_mean(x_aug, fit.coefficients))

    vals = np.array(parallel_map(score, units, threads=threads))
    per_fold = vals.reshape(len(grid.alphas), len(grid.ks), n)
    scores = per_fold.sum(axis=2)
    ai, ki = _best_point(scores)
    return CvResult(
        scores=scores,
        best=(grid.alphas[ai], grid.ks[ki]),
        alphas=grid.alphas,
        ks=grid.ks,
        per_fold=np.moveaxis(per_fold, 2, 0) if keep_folds else None,
    )


def loocv_gwar(Y, X, coords, grid=None, opts=None, threads=1, keep_folds=False):
    """Select (alpha, bandwidth) for the locally weighted model.

    Each fold fits the local model at the held-out location's coordinates
    using the other observations, warm-started from the full-data global
    fit at the same alpha.  Degenerate kernel weights surface as +inf for
    that grid point.
    """
    grid = grid or CvGrid(hs=tuple(default_h_grid(coords)))
    if grid.hs is None:
        raise InvalidParameters("the locally weighted search needs an h grid")
    opts = opts or LmOptions()
    Y = np.asarray(Y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    n = Y.shape[0]
    if n < 3:
        raise InvalidParameters("leave-one-out needs at least 3 observations")
    _check_zeros_rule(Y, grid.alphas)

    warm = _warm_chain(
        lambda a, t0: fit_alpha_regression(Y, X, a, opts=opts, theta0=t0).lm.theta,
        grid.alphas,
    )
    units = [(ai, hi, i)
             for ai in range(len(grid.alphas))
             for hi in range(len(grid.hs))
             for i in range(n)]

    def score(unit):
        ai, hi, i = unit
        a, h = grid.alphas[ai], grid.hs[hi]
        mask = np.arange(n) != i
        w = kernel_weights_at(coords, coords.cart[i], h)[mask]
        if np.max(w) == 0.0:
            return np.inf
        try:
            fit = fit_alpha_regression(
                Y[mask], X[mask], a, opts=opts, theta0=warm[a], weights=w
            )
        except NumericalError:
            return np.inf
        return kld(Y[i : i + 1], fitted_mean(X[i : i + 1], fit.coefficients))

    vals = np.array(parallel_map(score, units, threads=threads))
    per_fold = vals.reshape(len(grid.alphas), len(grid.hs), n)
    scores = per_fold.sum(axis=2)
    ai, hi = _best_point(scores)
    return CvResult(
        scores=scores,
        best=(grid.alphas[ai], grid.hs[hi]),
        alphas=grid.alphas,
        hs=grid.hs,
        per_fold=np.moveaxis(per_fold, 2, 0) if keep_folds else None,
    )
