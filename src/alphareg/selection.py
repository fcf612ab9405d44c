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

A fold is the full system with weight 0 on its held-out row, so it needs no
re-sliced data and no re-transformed response: the n folds of a grid point
are one set of weighted fits (``regression.fit_alpha_batch``), solved
chunk by chunk on one thread (two measured slower), with weights and
designs built per chunk, so no n x n array appears.  Held-out rows are
scored by one vectorised divergence.  A fold whose solve fails or whose
weights are degenerate scores +inf instead of aborting the search; a grid
on which every point scores +inf raises :class:`NumericalError` rather than
naming a winner.  Ties at the minimum resolve to the smallest alpha, then
the smallest k or h.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .exceptions import (
    AllCoincident,
    InvalidK,
    InvalidParameters,
    ZeroWithNonpositiveAlpha,
    NumericalError,
)
from .optim import LmOptions
from .regression import (
    RowBlocks,
    _kld_terms,
    fit_alpha_batch,
    fit_alpha_regression,
    theta_to_coef,
)
from .spatial import (
    kernel_weights_at,
    local_fitted_mean,
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


def select(model, Y, X, coords=None, grid=None, opts=None):
    """Leave-one-out search for ``model`` ("alpha", "slx" or "gwar") over ``grid``."""
    if model == "alpha":
        return loocv_alpha(Y, X, grid, opts)
    if model == "slx":
        return loocv_slx(Y, X, coords, grid, opts)
    if model == "gwar":
        return loocv_gwar(Y, X, coords, grid, opts)
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


def _loocv(Y, X, grid, axis, setup, opts):
    """The leave-one-out search of every model, over ``grid.alphas`` x the
    ``axis`` grid ("ks" or "hs"; ``None`` for alpha alone).

    ``setup(X, n)`` runs after the size check and before the zero rule and
    returns the model's ``(designs, folds)``.  ``designs[e]`` is the
    full-data design of extra e, or ``None`` when no fold can use e (its
    folds score +inf without a fit).  Full-data fits run once per (alpha,
    distinct design) in grid order, each warm-started from the previous, and
    warm-start the folds at their point.  ``folds(extra)`` gives the n folds'
    weights and designs for :func:`fit_alpha_batch` (as :class:`RowBlocks`
    or a shared design): fold i is the full data with weight 0 on row i, and
    row i of a per-fold design is row i of the full-data design, on which
    the fold is scored.  Per-fold scores have shape (n, alphas[, extras]),
    C-contiguous, and ``scores`` is their sum over axis 0.
    """
    opts = opts or LmOptions()
    Y = np.asarray(Y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    n = Y.shape[0]
    if n < 3:
        raise InvalidParameters("leave-one-out needs at least 3 observations")
    designs, folds = setup(X, n)
    _check_zeros_rule(Y, grid.alphas)
    extras = (None,) if axis is None else getattr(grid, axis)

    per_fold = np.full((n, len(grid.alphas), len(extras)), np.inf)
    theta = None
    for ai, a in enumerate(grid.alphas):
        warm = {}
        for design in {id(d): d for d in designs if d is not None}.values():
            theta = fit_alpha_regression(Y, design, a, opts=opts, theta0=theta).lm.theta
            warm[id(design)] = theta
        for e, design in enumerate(designs):
            if design is not None:
                weights, fold_X = folds(extras[e])
                outcomes = fit_alpha_batch(Y, fold_X, a, weights, warm[id(design)], opts)
                per_fold[:, ai, e] = _heldout_divergence(Y, design, outcomes)

    if axis is None:
        per_fold = per_fold.reshape(n, len(grid.alphas))
    scores = per_fold.sum(axis=0)
    best = _best_point(scores)
    point = {"alphas": grid.alphas}
    if axis is not None:
        point[axis] = extras
    return CvResult(scores=scores, best=tuple(v[i] for v, i in zip(point.values(), best)),
                    per_fold=per_fold, **point)


def _heldout_divergence(Y, design, outcomes):
    """Divergence of each fold's prediction at its held-out row i (row i of
    ``design``), +inf where the fold's fit failed."""
    ok = np.array([not isinstance(o, NumericalError) for o in outcomes])
    out = np.full(len(outcomes), np.inf)
    if ok.any():
        q, d = design.shape[1], Y.shape[1] - 1
        B = np.stack([theta_to_coef(o.theta, q, d) for o, good in zip(outcomes, ok) if good])
        out[ok] = _kld_terms(Y[ok], local_fitted_mean(design[ok], B)).sum(axis=1)
    return out


def _drop_own_row(w, rows):
    """Zero each fold's weight on its own row: fold ``rows[j]`` is row j of ``w``."""
    w[np.arange(len(rows)), rows] = 0.0
    return w


def _unit_fold_weights(n):
    """Fold weights of the unweighted models: 1, and 0 on the fold's own row."""
    return RowBlocks(n, lambda rows: _drop_own_row(np.ones((len(rows), n)), rows))


def loocv_alpha(Y, X, grid=None, opts=None):
    """Select alpha for the plain model by leave-one-out divergence.

    For every grid alpha and every observation, the model is refit without
    that observation and scored on it; the best alpha minimizes the summed
    divergence.  Returns a :class:`CvResult` with a scores vector over the
    alpha grid.
    """
    grid = grid or CvGrid()

    def setup(X, n):
        return [X], lambda _: (_unit_fold_weights(n), X)

    return _loocv(Y, X, grid, None, setup, opts)


def loocv_slx(Y, X, coords, grid=None, opts=None):
    """Select (alpha, k) for the lagged-covariate model.

    One neighbor table (``max(ks)+1`` columns) serves every fold: fold i lags
    each retained row by its k nearest table entries other than i, and the
    held-out row by its own k nearest (the full-data lag).  Fold designs are
    built a chunk of folds at a time.  A fold keeps n-1 locations, so
    ``k > n-2`` scores +inf, without a full-data warm-start fit.  Scores form
    a (len(alphas), len(ks)) matrix.  A grid without ``ks`` searches
    :func:`default_k_grid` of the sample size.
    """
    grid = grid or CvGrid()
    grid = replace(grid, ks=grid.ks or default_k_grid(len(Y)))

    def setup(X, n):
        if max(grid.ks) > n - 1:
            raise InvalidK(f"k={max(grid.ks)} exceeds n-1={n - 1} neighbors")
        idx, d2 = neighbor_table(coords, min(max(grid.ks) + 1, n - 1))
        # full-data lags: the warm starts' design, and held-out row i's lag
        lag = {k: neighbor_lag(idx[:, :k], row_weights(d2[:, :k]), X) for k in grid.ks}

        def fold_designs(rows, k):
            shape = (len(rows), n, k + 1)
            keep = idx[:, : k + 1] != rows[:, None, None]
            keep[:, :, k] = ~keep[:, :, :k].all(axis=2)  # entry k only replaces a dropped i
            nb = np.broadcast_to(idx[:, : k + 1], shape)[keep].reshape(shape[:2] + (k,))
            w = row_weights(np.broadcast_to(d2[:, : k + 1], shape)[keep].reshape(nb.shape))
            return np.concatenate([np.broadcast_to(X, shape[:2] + X.shape[1:]),
                                   neighbor_lag(nb, w, X)], axis=2)

        def folds(k):
            return _unit_fold_weights(n), RowBlocks(n, lambda rows: fold_designs(rows, k))

        # every k gives the same design width, so the chain carries across k
        return [np.hstack([X, lag[k]]) if k <= n - 2 else None for k in grid.ks], folds

    return _loocv(Y, X, grid, "ks", setup, opts)


def loocv_gwar(Y, X, coords, grid=None, opts=None):
    """Select (alpha, bandwidth) for the locally weighted model.

    Each fold fits the local model at the held-out location's coordinates
    using the other observations (its own row at weight 0), warm-started
    from the full-data global fit at the same alpha.  A fold whose kernel
    weights all underflow scores +inf, and so does its grid point.  A grid
    without ``hs`` searches :func:`default_h_grid` of the coordinates.
    """
    grid = grid or CvGrid()
    grid = replace(grid, hs=grid.hs or tuple(default_h_grid(coords)))

    def setup(X, n):
        def folds(h):
            return RowBlocks(n, lambda rows: _drop_own_row(
                kernel_weights_at(coords, coords.cart[rows], h), rows)), X

        return [X] * len(grid.hs), folds

    return _loocv(Y, X, grid, "hs", setup, opts)
