"""Hyper-parameter selection by leave-one-out cross-validation.

Every model is scored by the Kullback-Leibler divergence between held-out
compositions and their predictions: the plain model grids over the transform
power alpha, the lagged-covariate model over (alpha, k neighbors), and the
locally weighted model over (alpha, bandwidth h).  One engine, ``_loocv``,
runs all three searches; a search hands it, as data, what fold i of each of
its grid points fits on: the other rows (plain), those rows lagged without i
(lagged-covariate), or those rows kernel-weighted at i (locally weighted).
Nothing about a held-out location leaks into its own prediction:
lagged-covariate folds take their neighbors from the full data's neighbor
table with location i dropped, which is identical to the table of the
retained locations and uses nothing of i.

A fold is the full system with weight 0 on its held-out row, so it needs no
re-sliced data and no re-transformed response: the n folds of a grid point
are one set of weighted fits (``regression.fit_alpha_batch``), solved
chunk by chunk on one thread (two measured slower), with weights built per
chunk, so no n x n array appears.  Every fold shares the full-data design;
a lagged-covariate fold adds a patch of the few rows whose lag lost its
held-out location, so no per-fold design appears either.  Held-out rows are
scored by one vectorised divergence, and a point's score sums its own fold
scores alone, so it does not depend on the rest of the grid.  The winning
point's full-data fit, design and fold solutions are returned with the
scores, and the final fit of :mod:`alphareg.run` continues from them.  A
fold whose solve fails or whose weights are degenerate scores +inf instead
of aborting the search; a grid on which every point scores +inf raises
:class:`NumericalError` rather than naming a winner.  Ties at the minimum
resolve to the smallest alpha, then the smallest k or h.
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
    check_integer,
)
from .optim import LmOptions
from .regression import (
    FitResult,
    RowBlocks,
    _check_problem,
    _kld_terms,
    fit_alpha_batch,
    fit_alpha_regression,
    theta_to_coef,
)
from .simplex import _check_alpha
from .spatial import (
    _check_bandwidth,
    _check_locations,
    local_fitted_mean,
    location_weights,
    neighbor_lag,
    neighbor_table,
    pairwise_chordal_sq,
)

DEFAULT_ALPHAS = (0.1, 0.25, 0.5, 0.75, 1.0)
DEFAULT_KS = (3, 5, 7, 9)


@dataclass
class CvGrid:
    """Candidate hyper-parameter values; each list is kept sorted ascending.
    Each alpha and each h is checked by the rule of ``RunConfig.alpha`` and
    ``RunConfig.h`` (``simplex._check_alpha``, ``spatial._check_bandwidth``)."""

    alphas: tuple = DEFAULT_ALPHAS
    ks: Optional[tuple] = None
    hs: Optional[tuple] = None

    def __post_init__(self):
        self.alphas = tuple(sorted(_check_alpha(a) for a in self.alphas))
        if not self.alphas:
            raise InvalidParameters("alpha grid is empty")
        if self.ks is not None:
            ks = tuple(self.ks)
            if not ks:
                raise InvalidParameters("neighbor grid is empty")
            for k in ks:  # the rule of RunConfig.k: never truncated
                check_integer("neighbor grid value", k, 1)
            self.ks = tuple(sorted(int(k) for k in ks))
        if self.hs is not None:
            self.hs = tuple(sorted(_check_bandwidth(h) for h in self.hs))
            if not self.hs:
                raise InvalidParameters("bandwidth grid is empty")


@dataclass
class CvResult:
    """Grid scores (sums of held-out divergences) and the winning point.

    ``per_fold[i]`` holds fold i's score at every grid point (+inf where the
    fold failed), a view of the search's point-major array, and each score
    is the sum of its own point's fold scores.  The search's solutions at
    the winning point come with it, so the final fit need not solve them
    again: ``fit`` is the full-data :class:`FitResult` there, ``design`` its
    design (``X``, or ``[X | lag_k]`` for the lagged-covariate model),
    ``fold_theta`` (n, P) the folds' parameters and ``fold_damping`` (n,)
    their final dampings.  A failed fold holds ``fit``'s parameters at
    damping 0 (a cold start).
    """

    scores: np.ndarray
    best: tuple
    alphas: tuple
    per_fold: np.ndarray
    ks: Optional[tuple] = None
    hs: Optional[tuple] = None
    fit: Optional[FitResult] = None
    design: Optional[np.ndarray] = None
    fold_theta: Optional[np.ndarray] = None
    fold_damping: Optional[np.ndarray] = None


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


def _check_rows(Y, X):
    """``Y`` and ``X`` by :func:`_check_problem`, with the 3 rows leave-one-out needs."""
    X, _, Y = _check_problem(X, Y=Y)
    if len(Y) < 3:
        raise InvalidParameters("leave-one-out needs at least 3 observations")
    return Y, X


def _loocv(Y, grid, axis, points, opts):
    """The leave-one-out search of every model, over ``grid.alphas`` x the
    ``axis`` grid ("ks" or "hs"; ``None`` for alpha alone).

    ``points[e]`` is extra e's grid point as data, ``(design, weights,
    patches)``, or ``None`` when no fold can use e (its folds score +inf
    without a fit): the full-data design, and the n folds' weights (a
    :class:`RowBlocks`) and design patches (``None`` where every fold has
    the full-data design) for :func:`fit_alpha_batch`.  Fold i is the full
    data with weight 0 on row i, and its patch never changes row i, on which
    the fold is scored.  For each alpha the full-data fits run first, once
    per distinct design in grid order, each warm-started from the previous;
    then each point's folds start from :func:`_fold_start` of its design's
    fit.  Per-fold scores are point-major, (alphas, extras, n), and a
    point's score is the sum of its own contiguous row.  The winner's
    full-data fit, design and fold solutions are returned on the
    :class:`CvResult`.
    """
    opts = opts or LmOptions()
    _check_zeros_rule(Y, grid.alphas)
    extras = (None,) if axis is None else getattr(grid, axis)

    per_fold = np.full((len(grid.alphas), len(extras), len(Y)), np.inf)
    solutions = {}  # (alpha, extra) index: full-data fit, design, fold thetas, dampings
    theta = None
    for ai, a in enumerate(grid.alphas):
        warm = {}
        for design, *_ in filter(None, points):
            if id(design) not in warm:
                warm[id(design)] = fit_alpha_regression(Y, design, a, opts=opts, theta0=theta)
                theta = warm[id(design)].lm.theta
        for e, point in enumerate(points):
            if point is not None:
                design, weights, patches = point
                fit = warm[id(design)]
                theta0, damping0 = _fold_start(fit)
                outcomes = fit_alpha_batch(Y, design, a, weights, theta0, opts, damping0,
                                           patches=patches)
                ok, fold_theta, fold_damping = _fold_solutions(outcomes, theta0)
                per_fold[ai, e] = _heldout_divergence(Y, design, ok, fold_theta)
                solutions[ai, e] = fit, design, fold_theta, fold_damping

    if axis is None:
        per_fold = per_fold[:, 0]
    scores = per_fold.sum(axis=-1)
    best = _best_point(scores)
    fit, design, fold_theta, fold_damping = solutions[best if axis else (best[0], 0)]
    point = {"alphas": grid.alphas}
    if axis is not None:
        point[axis] = extras
    return CvResult(scores=scores, best=tuple(v[i] for v, i in zip(point.values(), best)),
                    per_fold=np.moveaxis(per_fold, -1, 0), fit=fit, design=design,
                    fold_theta=fold_theta, fold_damping=fold_damping, **point)


def _fold_start(fit):
    """Where the folds of a grid point start, ``(theta0, damping0)`` for
    :func:`fit_alpha_batch`, from the full-data ``fit`` at that point: its
    parameters, and no damping, so every fold starts by the cold rule of
    :mod:`alphareg.optim`."""
    return fit.lm.theta, None


def _fold_solutions(outcomes, start):
    """Which folds solved, and every fold's parameters (n, P) and final
    damping (n,); a failed fold keeps ``start`` at damping 0, which the warm
    rule of :mod:`alphareg.optim` reads as cold."""
    ok = np.array([not isinstance(o, NumericalError) for o in outcomes])
    theta = np.array([o.theta if good else start for o, good in zip(outcomes, ok)])
    damping = np.array([o.damping if good else 0.0 for o, good in zip(outcomes, ok)])
    return ok, theta, damping


def _heldout_divergence(Y, design, ok, theta):
    """Divergence of each fold's prediction at its held-out row i (row i of
    ``design``) from its parameters ``theta[i]``, +inf where the fold failed
    (``ok`` false)."""
    out = np.full(len(ok), np.inf)
    if ok.any():
        B = theta_to_coef(theta[ok], design.shape[1], Y.shape[1] - 1)
        out[ok] = _kld_terms(Y[ok], local_fitted_mean(design[ok], B)).sum(axis=1)
    return out


def _unit_fold_weights(n):
    """Fold weights of the unweighted models: 1, and 0 on the fold's own row."""
    return RowBlocks(n, lambda rows: (rows[:, None] != np.arange(n)).astype(np.float64))


def loocv_alpha(Y, X, grid=None, opts=None):
    """Select alpha for the plain model by leave-one-out divergence.

    For every grid alpha and every observation, the model is refit without
    that observation and scored on it; the best alpha minimizes the summed
    divergence.  Returns a :class:`CvResult` with a scores vector over the
    alpha grid.
    """
    grid = grid or CvGrid()
    Y, X = _check_rows(Y, X)
    return _loocv(Y, grid, None, [(X, _unit_fold_weights(len(Y)), None)], opts)


def _fold_patches(design, X, idx, d2, k):
    """Row patches (:func:`fit_alpha_batch`) that turn the full-data design
    ``[X | lag_k]`` into every leave-one-out fold's.

    Fold i's design differs from ``design`` only in the rows j that have i
    among their k nearest (``idx[j, :k]``): j's lag drops i and takes the
    next entry of its table row instead, so only those rows are lagged
    again.  Patches are padded to the widest with the fold's own row i,
    which has weight 0 and keeps its full-data values.  Returns the rows
    (n, r) and their values (n, r, q).
    """
    n = len(X)
    # the reverse neighbor lists: each pair (fold i, row j) with i among j's
    # k nearest, sorted by fold
    fold = idx[:, :k].ravel()
    order = np.argsort(fold, kind="stable")
    fold, owner = fold[order], order // k
    counts = np.bincount(fold, minlength=n)
    slot = np.arange(len(fold)) - np.repeat(np.cumsum(counts) - counts, counts)
    rows = np.repeat(np.arange(n)[:, None], counts.max(), axis=1)
    rows[fold, slot] = owner
    table = idx[owner, : k + 1]
    keep = table != fold[:, None]  # k of the k+1 entries: i is among the first k
    values = design[rows]
    values[fold, slot, X.shape[1]:] = neighbor_lag(
        table[keep].reshape(-1, k), d2[owner, : k + 1][keep].reshape(-1, k), X)
    return rows, values


def loocv_slx(Y, X, coords, grid=None, opts=None):
    """Select (alpha, k) for the lagged-covariate model.

    One neighbor table (``max(ks)+1`` columns) serves every fold: fold i lags
    each retained row by its k nearest table entries other than i, and the
    held-out row by its own k nearest (the full-data lag).  So fold i's
    design is the full-data design ``[X | lag_k]`` with only the rows that
    had i among their k nearest lagged again (:func:`_fold_patches`, built
    once per k), and the folds are fits on the full-data design with those
    row patches.  A fold keeps n-1 locations, so ``k > n-2`` scores +inf,
    without a full-data warm-start fit.  Scores form a (len(alphas),
    len(ks)) matrix.  A grid without ``ks`` searches :func:`default_k_grid`
    of the sample size, and :class:`InvalidK` is raised when that is empty
    (n < 5).  ``coords`` must hold one location per row of ``Y``.
    """
    _check_locations(coords, len(Y))
    grid = grid or CvGrid()
    Y, X = _check_rows(Y, X)
    n = len(Y)
    if grid.ks is None:
        ks = default_k_grid(n)
        if not ks:
            raise InvalidK(f"no default neighbor count fits n={n} observations: a leave-one-out "
                           f"fold needs k <= n-2 = {n - 2}, and the defaults start at {DEFAULT_KS[0]}")
        grid = replace(grid, ks=ks)
    if max(grid.ks) > n - 1:
        raise InvalidK(f"k={max(grid.ks)} exceeds n-1={n - 1} neighbors")
    idx, d2 = neighbor_table(coords, min(max(grid.ks) + 1, n - 1))
    # the full-data designs: the warm starts', held-out row i's and, but for
    # its patch, fold i's; of one width for every k, so the chain carries on
    designs = {k: np.hstack([X, neighbor_lag(idx[:, :k], d2[:, :k], X)])
               for k in grid.ks if k <= n - 2}
    patches = {k: _fold_patches(design, X, idx, d2, k) for k, design in designs.items()}
    weights = _unit_fold_weights(n)
    points = [(designs[k], weights, patches[k]) if k in designs else None for k in grid.ks]
    return _loocv(Y, grid, "ks", points, opts)


def loocv_gwar(Y, X, coords, grid=None, opts=None):
    """Select (alpha, bandwidth) for the locally weighted model.

    Each fold fits the local model at the held-out location's coordinates
    using the other observations (its own row at weight 0), warm-started
    from the full-data global fit at the same alpha.  A fold whose kernel
    weights all underflow scores +inf, and so does its grid point.  A grid
    without ``hs`` searches :func:`default_h_grid` of the coordinates, which
    must hold one location per row of ``Y``.
    """
    _check_locations(coords, len(Y))
    grid = grid or CvGrid()
    grid = replace(grid, hs=grid.hs or tuple(default_h_grid(coords)))
    Y, X = _check_rows(Y, X)
    return _loocv(Y, grid, "hs", [(X, location_weights(coords, h, 0.0), None) for h in grid.hs],
                  opts)
