"""Hyper-parameter selection by leave-one-out cross-validation.

Every model is scored by the Kullback-Leibler divergence between held-out
compositions and their predictions: the plain model grids over the transform
power alpha, the lagged-covariate model over (alpha, k neighbors), and the
locally weighted model over (alpha, bandwidth h).  One engine, ``_loocv``,
runs all three searches; a model only says what its fold i fits on: the
other rows (plain), those rows lagged without i (lagged-covariate), or those
rows kernel-weighted at i (locally weighted).  Nothing about a held-out
location leaks into its own prediction: lagged-covariate folds take their
neighbors from the full data's neighbor table with location i dropped, which
is identical to the table of the retained locations and uses nothing of i.

Fold-by-grid work units are independent; scores are reduced in index order,
making results identical for any thread count.  A fold whose solve fails or
whose weights are degenerate scores +inf instead of aborting the search; a
grid on which every point scores +inf raises :class:`NumericalError` rather
than naming a winner.  Ties at the minimum resolve to the smallest alpha,
then the smallest k or h.
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
    """Grid scores (sums of held-out divergences) and the winning point.

    ``per_fold[i]`` holds fold i's score at every grid point (+inf where the
    fold failed), so ``scores`` is its sum over folds.
    """

    scores: np.ndarray
    best: tuple
    alphas: tuple
    per_fold: np.ndarray
    ks: Optional[tuple] = None
    hs: Optional[tuple] = None


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


def _loocv(Y, X, grid, axis, setup, opts, threads):
    """The leave-one-out search of every model, over ``grid.alphas`` x the
    ``axis`` grid ("ks" or "hs"; ``None`` for alpha alone).

    ``setup(X, n)`` runs after the size check and before the zero rule and
    returns the model's ``(designs, fold)``.  ``designs[e]`` is the full-data
    design of extra e, or ``None`` when no fold can use e (its folds score
    +inf without a fit).  Full-data fits run once per (alpha, distinct design)
    in grid order, each warm-started from the previous, and warm-start the
    folds at their point.  ``fold(i, mask, extra)`` gives fold i's training
    design, fit weights and held-out design row, or ``None`` when its weights
    are degenerate.  Per-fold scores have shape (n, alphas[, extras]).
    """
    opts = opts or LmOptions()
    Y = np.asarray(Y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    n = Y.shape[0]
    if n < 3:
        raise InvalidParameters("leave-one-out needs at least 3 observations")
    designs, fold = setup(X, n)
    _check_zeros_rule(Y, grid.alphas)
    extras = (None,) if axis is None else getattr(grid, axis)

    warm, theta = {}, None
    for a in grid.alphas:
        for design in {id(d): d for d in designs if d is not None}.values():
            theta = fit_alpha_regression(Y, design, a, opts=opts, theta0=theta).lm.theta
            warm[a, id(design)] = theta

    def score(unit):
        a, e, i = unit
        mask = np.arange(n) != i
        part = None if designs[e] is None else fold(i, mask, extras[e])
        if part is None:
            return np.inf
        X_train, weights, x_held = part
        try:
            fit = fit_alpha_regression(Y[mask], X_train, a, opts=opts,
                                       theta0=warm[a, id(designs[e])], weights=weights)
        except NumericalError:
            return np.inf
        return kld(Y[i : i + 1], fitted_mean(x_held[None, :], fit.coefficients))

    units = [(a, e, i) for a in grid.alphas for e in range(len(extras)) for i in range(n)]
    vals = np.array(parallel_map(score, units, threads=threads))
    per_fold = vals.reshape(len(grid.alphas), len(extras), n)
    scores = per_fold.sum(axis=2)
    ai, ei = _best_point(scores)
    if axis is None:
        return CvResult(scores=scores[:, 0], best=(grid.alphas[ai],),
                        alphas=grid.alphas, per_fold=per_fold[:, 0].T)
    return CvResult(scores=scores, best=(grid.alphas[ai], extras[ei]),
                    alphas=grid.alphas, per_fold=np.moveaxis(per_fold, 2, 0),
                    **{axis: extras})


def loocv_alpha(Y, X, grid=None, opts=None, threads=1):
    """Select alpha for the plain model by leave-one-out divergence.

    For every grid alpha and every observation, the model is refit without
    that observation and scored on it; the best alpha minimizes the summed
    divergence.  Returns a :class:`CvResult` with a scores vector over the
    alpha grid.
    """
    grid = grid or CvGrid()

    def setup(X, n):
        return [X], lambda i, mask, _: (X[mask], None, X[i])

    return _loocv(Y, X, grid, None, setup, opts, threads)


def loocv_slx(Y, X, coords, grid=None, opts=None, threads=1):
    """Select (alpha, k) for the lagged-covariate model.

    One neighbor table (``max(ks)+1`` columns) serves every fold: fold i lags
    each retained row by its k nearest table entries other than i, and the
    held-out row by its own k nearest.  A fold keeps n-1 locations, so
    ``k > n-2`` scores +inf, without a full-data warm-start fit.  Scores form
    a (len(alphas), len(ks)) matrix.
    """
    grid = grid or CvGrid(ks=(5,))
    if grid.ks is None:
        raise InvalidParameters("the lagged-covariate search needs a k grid")

    def setup(X, n):
        if max(grid.ks) > n - 1:
            raise InvalidK(f"k={max(grid.ks)} exceeds n-1={n - 1} neighbors")
        idx, d2 = neighbor_table(coords, min(max(grid.ks) + 1, n - 1))
        # full-data lags: the warm starts' design, and held-out row i's lag
        lag = {k: neighbor_lag(idx[:, :k], row_weights(d2[:, :k]), X) for k in grid.ks}

        def fold(i, mask, k):
            nb = idx[mask, : k + 1]
            keep = nb != i
            keep[:, k] = ~keep[:, :k].all(axis=1)  # entry k only replaces a dropped i
            w = row_weights(d2[mask, : k + 1][keep].reshape(n - 1, k))
            lags = neighbor_lag(nb[keep].reshape(n - 1, k), w, X)
            return np.hstack([X[mask], lags]), None, np.concatenate([X[i], lag[k][i]])

        # every k gives the same design width, so the chain carries across k
        return [np.hstack([X, lag[k]]) if k <= n - 2 else None for k in grid.ks], fold

    return _loocv(Y, X, grid, "ks", setup, opts, threads)


def loocv_gwar(Y, X, coords, grid=None, opts=None, threads=1):
    """Select (alpha, bandwidth) for the locally weighted model.

    Each fold fits the local model at the held-out location's coordinates
    using the other observations, warm-started from the full-data global
    fit at the same alpha.  Degenerate kernel weights surface as +inf for
    that grid point.
    """
    grid = grid or CvGrid(hs=tuple(default_h_grid(coords)))
    if grid.hs is None:
        raise InvalidParameters("the locally weighted search needs an h grid")

    def setup(X, n):
        def fold(i, mask, h):
            w = kernel_weights_at(coords, coords.cart[i], h)[mask]
            return None if np.max(w) == 0.0 else (X[mask], w, X[i])

        return [X] * len(grid.hs), fold

    return _loocv(Y, X, grid, "hs", setup, opts, threads)
