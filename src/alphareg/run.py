"""End-to-end runs: selection, final fit, and the result document.

A run selects any hyper-parameters the caller left unset (by leave-one-out
cross-validation, :func:`run_cv`, where a fixed value narrows its grid axis
to itself), fits the requested model, and assembles a JSON-ready
document: config echo, selection scores, coefficients, per-component
observed-fitted correlations, divergence, and average marginal effects per
covariate.  The lagged-covariate (SLX) model is fit, given standard errors
and predicted as the plain model on ``[X | lag_k]`` (``fit_alpha_slx`` in
one call); ``split_slx`` only reports its ``beta``/``gamma`` split.  The
effects of all three models are one vectorised pass over the design's
covariate columns (the bootstrap's formula): a GWaR fit is its n one-row
fits, each at its location's coefficients, and its effects the mean of
theirs; SLX's total is the sum of its direct and indirect rows.  After a
selection the final fit continues from the search's solutions at the
winning point: the plain and lagged-covariate fits are the search's
full-data fits, on the search's own design, and each GWaR location starts
from its leave-one-out fold; only a run with every hyper-parameter fixed
builds ``[X | lag_k]`` and fits from scratch.  The final fit's
design must have full column rank, checked after any search, else its
coefficients are not identified (:class:`DataError`).  Documents are
deterministic for a fixed config, dataset, and seed: no timestamps or
wall-clock values are included (timing goes to the log instead).
:func:`read_model` reads the blocks written here back, with the dataset
block by :mod:`alphareg.datasets`, and :func:`predict_model` predicts
from them; each model's coefficient arrays are named once, in
``COEFFICIENT_ARRAYS``, for both.
"""

import logging
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .datasets import load_training, record_columns
from .exceptions import DataError, InvalidParameters, check_integer
from .inference import _count_weighted_ames, bootstrap_covariance, sandwich_covariance
from .optim import LmOptions
from .regression import _check_problem, fit_alpha_regression, fitted_mean, theta_to_coef
from .selection import CvGrid, select
from .simplex import _check_alpha
from .spatial import (GwarFit, _check_bandwidth, _check_k, _check_locations, fit_gwar,
                      neighbor_lag, neighbor_table, predict_gwar, split_slx)

log = logging.getLogger(__name__)

HYPERPARAMETERS = {"alpha": ("alpha",), "slx": ("alpha", "k"), "gwar": ("alpha", "h")}
MODELS = tuple(HYPERPARAMETERS)
# each model's coefficient arrays, by fit attribute: run_fit writes, read_model reads
COEFFICIENT_ARRAYS = {"alpha": ("coefficients",), "slx": ("coefficients",),
                      "gwar": ("local_coefficients", "global_coefficients")}


@dataclass
class RunConfig:
    model: str = "alpha"
    alpha: Optional[float] = None
    k: Optional[int] = None
    h: Optional[float] = None
    grid: CvGrid = field(default_factory=CvGrid)
    solver: LmOptions = field(default_factory=LmOptions)
    bootstrap_replicates: int = 0
    seed: int = 0
    with_se: bool = False

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidParameters(f"model must be one of {MODELS}")
        for name, kind in (("grid", CvGrid), ("solver", LmOptions)):
            if not isinstance(getattr(self, name), kind):
                raise InvalidParameters(
                    f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        for name in ("k", "h"):
            if name not in HYPERPARAMETERS[self.model] and (
                    getattr(self, name) is not None
                    or getattr(self.grid, f"{name}s") is not None):
                raise InvalidParameters(
                    f"model {self.model!r} has no {name!r}: set neither "
                    f"{name} nor grid.{name}s")
        # checked here, so a bad setting fails before selection and the fit;
        # each is stored as its rule returns it, a Python int or float, which
        # the document's config echo can hold
        for name, rule in (("alpha", _check_alpha), ("k", _check_k), ("h", _check_bandwidth)):
            if getattr(self, name) is not None:
                setattr(self, name, rule(getattr(self, name)))  # NaN fails too
        if not isinstance(self.with_se, bool):
            raise InvalidParameters(f"with_se must be a bool, got {self.with_se!r}")
        self.seed = check_integer("seed", self.seed, 0)
        # any count but 0 (no bootstrap) must be one bootstrap_covariance takes
        self.bootstrap_replicates = check_integer(
            "bootstrap_replicates (0 for none)", self.bootstrap_replicates,
            2 if self.bootstrap_replicates else 0)
        if self.model == "gwar" and (self.with_se or self.bootstrap_replicates):
            raise InvalidParameters(
                "standard errors are not available for the locally weighted model")


def _correlations(Y, fitted):
    out = []
    for j in range(Y.shape[1]):
        # np.std of a constant column need not round to 0; ptp is exact
        if np.ptp(Y[:, j]) == 0 or np.ptp(fitted[:, j]) == 0:
            out.append(None)
        else:
            out.append(float(np.corrcoef(Y[:, j], fitted[:, j])[0, 1]))
    return out


def _ame_table(rows):
    """A (p, D) effects table as the document's ``{"x1": [...], ...}``."""
    return {f"x{k}": [float(v) for v in row] for k, row in enumerate(rows, 1)}


def _ame_rows(model, p, table):
    """The effects ``table`` of a design's covariate columns, one row each,
    named: ``ame`` for the plain model, and for SLX's ``[X | lag]`` its first
    p rows ``ame_direct`` and its last p ``ame_indirect``."""
    if model == "slx":
        return {"ame_direct": table[:p], "ame_indirect": table[p:]}
    return {"ame": table}


def _check_coords(config, coords, n):
    if config.model in ("slx", "gwar"):
        _check_locations(coords, n)


def run_cv(config, Y, X, coords=None):
    """Leave-one-out search over ``config.grid``; return ``(doc, cv)``.

    A fixed hyper-parameter (``config.alpha``, ``k`` or ``h``) narrows its
    grid axis to itself, so only the unset ones are searched.  ``doc`` is
    the JSON-ready selection block and ``cv`` the :class:`CvResult`.
    """
    fixed = {f"{name}s": (getattr(config, name),)
             for name in HYPERPARAMETERS[config.model]
             if getattr(config, name) is not None}
    cv = select(config.model, Y, X, coords, replace(config.grid, **fixed),
                config.solver)
    return _selection_doc(cv), cv


def run_fit(config, Y, X, coords=None, covariate_names=None):
    """Run selection (if needed) and the final fit; return the result document.

    After a selection nothing the search has solved is solved again (see
    the module docstring); with every hyper-parameter fixed, the model is
    fit from B = 0.
    """
    X, _, Y = _check_problem(X, Y=Y)
    p = X.shape[1] - 1
    _check_coords(config, coords, len(Y))
    t0 = time.perf_counter()

    selection = cv = None
    values = tuple(getattr(config, name) for name in HYPERPARAMETERS[config.model])
    if None in values:
        selection, cv = run_cv(config, Y, X, coords)
        values = cv.best
    hyper = {name: (int if name == "k" else float)(v)
             for name, v in zip(HYPERPARAMETERS[config.model], values)}
    alpha = hyper["alpha"]
    X_model = cv.design if cv else X  # the final fit's design: X, or [X | lag_k]
    if cv is None and config.model == "slx":
        X_model = np.hstack([X, neighbor_lag(*neighbor_table(coords, hyper["k"]), X)])
    n, q = X_model.shape
    # n < q is rank-deficient already, and numpy 1.x finds no rank for n = 0
    if n < q or np.linalg.matrix_rank(X_model) < q:
        raise DataError(f"the design of {n} rows and {q} columns has rank below {q}: the "
                        "covariates are linearly dependent or the rows too few")
    if config.model == "gwar":
        start = None if cv is None else (cv.fit, cv.fold_theta, cv.fold_damping)
        fit = fit_gwar(Y, X, coords, alpha, hyper["h"], opts=config.solver, start=start)
        doc_fit = _coefficient_arrays(config.model, fit) | {"kld": fit.kld}
        effects = (X[:, None], fit.local_coefficients, np.ones((n, 1)))  # n one-row fits
        se, diagnostics = None, {"gwar": fit.diagnostics}
    else:
        fit = cv.fit if cv else fit_alpha_regression(Y, X_model, alpha, opts=config.solver)
        doc_fit = _coefficient_arrays(config.model, fit) | {
            "sse": fit.sse,
            "kld": fit.kld,
            "iterations": fit.lm.iterations,
            "converged_by": fit.lm.converged_by.value,
        }
        effects = (X_model, fit.coefficients[None], np.ones((1, n)))
        if config.model == "slx":
            fit = split_slx(fit, p)
            doc_fit = {"beta": fit.beta.tolist(), "gamma": fit.gamma.tolist()} | doc_fit
        se, diagnostics = _standard_errors(config, Y, X_model, alpha, fit, p)
    ames = _ame_rows(config.model, p, _count_weighted_ames(*effects).mean(axis=0))
    if config.model == "slx":
        ames["ame_total"] = ames["ame_direct"] + ames["ame_indirect"]

    doc = {
        "config": asdict(config),
        "selection": selection,
        "hyperparameters": hyper,
        "fit": doc_fit | {
            "observed_fitted_correlation": _correlations(Y, fit.fitted)
        },
        "marginal_effects": {name: _ame_table(table) for name, table in ames.items()},
        "standard_errors": se,
    }
    if diagnostics is not None:
        doc["diagnostics"] = diagnostics
    if covariate_names:
        doc["covariate_names"] = list(covariate_names)
    log.info("run completed in %.2fs", time.perf_counter() - t0)
    return doc, fit


def _coefficient_arrays(model, fit):
    """The coefficient arrays of ``fit`` that the fit block holds, as lists."""
    return {name: getattr(fit, name).tolist() for name in COEFFICIENT_ARRAYS[model]}


@dataclass
class SavedModel:
    """A fit document as :func:`read_model` reads it back; ``columns`` are
    the :class:`DatasetSpec` keywords that new rows are read with."""

    config: RunConfig
    coefficients: dict
    dataset: dict
    columns: dict


def read_model(doc):
    """The :class:`SavedModel` of a parsed fit document: :func:`run_fit`'s
    blocks and ``datasets.dataset_record``'s.  The settings are checked by
    building their :class:`RunConfig` (:class:`InvalidParameters`); a missing
    field is a KeyError; an unset hyper-parameter, a coefficient that is not
    a number, and coefficient matrices without one column per composition
    part but the first are a ValueError."""
    model = doc["config"]["model"]
    chosen = {name: doc["hyperparameters"][name] for name in HYPERPARAMETERS.get(model, ())}
    if None in chosen.values():
        raise ValueError(f"hyperparameters left unset: {chosen}")
    config = RunConfig(model=model, solver=LmOptions(**doc["config"]["solver"]), **chosen)
    columns = record_columns(doc["dataset"], coordinates=model != "alpha")
    coefficients = {name: _real_array(doc["fit"][name]) for name in COEFFICIENT_ARRAYS[model]}
    d = len(columns["composition_columns"]) - 1
    for name, array in coefficients.items():
        if array.shape[-1:] != (d,):
            raise ValueError(f"{name} of shape {array.shape}, not {d} columns")
    return SavedModel(config, coefficients, doc["dataset"], columns)


def _real_array(value):
    """Nested lists of JSON numbers as a float array; a bool or a string
    among them, or a ragged list, is a ValueError."""
    array = np.asarray(value, dtype=object)
    if not all(type(v) in (int, float) for v in array.flat):
        raise ValueError("coefficients must be nested lists of numbers")
    return array.astype(np.float64)


def predict_model(model, X_new, coords_new=None):
    """Mean compositions of new rows ``X_new`` (the training design's
    columns) at ``coords_new`` from a :class:`SavedModel`.  SLX lags each
    row by its k nearest training locations and GWaR fits each location
    (:func:`predict_gwar`); only these reload the training data, by
    ``datasets.load_training``, which checks the file's hash."""
    config, coefficients = model.config, model.coefficients
    _check_coords(config, coords_new, len(X_new))
    if config.model == "alpha":
        return fitted_mean(X_new, coefficients["coefficients"])
    Y, X, coords = load_training(model.dataset)
    if config.model == "slx":
        lag = neighbor_lag(*neighbor_table(coords, config.k, query=coords_new), X)
        return fitted_mean(np.hstack([X_new, lag]), coefficients["coefficients"])
    fit = GwarFit(alpha=config.alpha, h=config.h, train_Y=Y, train_X=X, train_coords=coords,
                  opts=config.solver, **coefficients)
    return predict_gwar(fit, X_new, coords_new)


def _selection_doc(cv):
    doc = {
        "alphas": list(cv.alphas),
        # a grid point with a failed fold scores +inf; JSON has no inf
        "scores": np.where(np.isfinite(cv.scores), cv.scores, None).tolist(),
        "failed_folds": np.isinf(cv.per_fold).sum(axis=0).tolist(),
        "best": list(cv.best),
    }
    if cv.ks is not None:
        doc["ks"] = list(cv.ks)
    if cv.hs is not None:
        doc["hs"] = list(cv.hs)
    return doc


def _standard_errors(config, Y, X_model, alpha, fit, p):
    """Sandwich SEs by default; pairs bootstrap when replicates requested.

    The bootstrap replicates warm-start from ``fit``, the final fit on
    ``X_model``, and give the coefficient and AME standard errors together,
    the latter named by :func:`_ame_rows` like the marginal effects.
    Returns the ``standard_errors`` block and the document's ``diagnostics``
    block, which holds the bootstrap's (``None`` without a bootstrap).
    """
    if not (config.with_se or config.bootstrap_replicates):
        return None, None

    def coefficient_se(cov):  # one per entry of the coefficient matrix
        return theta_to_coef(np.sqrt(np.diag(cov.matrix)), X_model.shape[1], Y.shape[1] - 1)
    if config.bootstrap_replicates:
        cov = bootstrap_covariance(
            Y, X_model, alpha, opts=config.solver,
            replicates=config.bootstrap_replicates, seed=config.seed, start=fit.lm,
        )
        ames = _ame_rows(config.model, p, cov.ame_standard_errors)
        return {
            "kind": cov.kind,
            "replicates": cov.replicates,
            "failed_replicates": cov.failed_replicates,
            "coefficients": coefficient_se(cov).tolist(),
        } | {name: table.tolist() for name, table in ames.items()}, {"bootstrap": cov.diagnostics}
    cov = sandwich_covariance(Y, X_model, alpha, fit.coefficients)
    return {
        "kind": cov.kind,
        "coefficients": coefficient_se(cov).tolist(),
    }, None
