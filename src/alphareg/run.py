"""End-to-end runs: selection, final fit, and the result document.

A run selects any hyper-parameters the caller left unset (by leave-one-out
cross-validation, :func:`run_cv`, where a fixed value narrows its grid axis
to itself), fits the requested model, and assembles a JSON-ready
document: config echo, selection scores, coefficients, per-component
observed-fitted correlations, divergence, and average marginal effects per
covariate.  Documents are deterministic for a fixed config, dataset, and
seed: no timestamps or wall-clock values are included (timing goes to the
log instead).
"""

import logging
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from ._parallel import resolve_threads
from .exceptions import InvalidParameters, MissingColumn
from .inference import (
    average_marginal_effects,
    bootstrap_covariance,
    gwar_marginal_effects,
    sandwich_covariance,
    slx_effects,
)
from .optim import LmOptions
from .regression import fit_alpha_regression
from .selection import CvGrid, select
from .spatial import contiguity_matrix, fit_alpha_slx, fit_gwar

log = logging.getLogger(__name__)

HYPERPARAMETERS = {"alpha": ("alpha",), "slx": ("alpha", "k"), "gwar": ("alpha", "h")}
MODELS = tuple(HYPERPARAMETERS)


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
    threads: int = 1  # bootstrap workers
    with_se: bool = False

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidParameters(f"model must be one of {MODELS}")


def _correlations(Y, fitted):
    out = []
    for j in range(Y.shape[1]):
        # np.std of a constant column need not round to 0; ptp is exact
        if np.ptp(Y[:, j]) == 0 or np.ptp(fitted[:, j]) == 0:
            out.append(None)
        else:
            out.append(float(np.corrcoef(Y[:, j], fitted[:, j])[0, 1]))
    return out


def _ame_table(effects_fn, p):
    return {f"x{k}": [float(v) for v in effects_fn(k)] for k in range(1, p + 1)}


def _check_coords(config, coords):
    if config.model in ("slx", "gwar") and coords is None:
        raise MissingColumn(
            f"model {config.model!r} requires latitude and longitude columns"
        )


def run_cv(config, Y, X, coords=None):
    """Leave-one-out search over ``config.grid``; return ``(doc, cv)``.

    A fixed hyper-parameter (``config.alpha``, ``k`` or ``h``) narrows its
    grid axis to itself, so only the unset ones are searched.  ``doc`` is
    the JSON-ready selection block and ``cv`` the :class:`CvResult`.
    """
    _check_coords(config, coords)
    fixed = {f"{name}s": (getattr(config, name),)
             for name in HYPERPARAMETERS[config.model]
             if getattr(config, name) is not None}
    cv = select(config.model, Y, X, coords, replace(config.grid, **fixed),
                config.solver)
    return _selection_doc(cv), cv


def run_fit(config, Y, X, coords=None, covariate_names=None):
    """Run selection (if needed) and the final fit; return the result document."""
    threads = resolve_threads(config.threads)
    Y = np.asarray(Y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    p = X.shape[1] - 1
    _check_coords(config, coords)
    if config.model == "gwar" and (config.with_se or config.bootstrap_replicates):
        raise InvalidParameters(
            "standard errors are not available for the locally weighted model"
        )
    t0 = time.perf_counter()

    selection = None
    values = tuple(getattr(config, name) for name in HYPERPARAMETERS[config.model])
    if None in values:
        selection, cv = run_cv(config, Y, X, coords)
        values = cv.best
    if config.model == "alpha":
        (alpha,) = values
        fit = fit_alpha_regression(Y, X, alpha, opts=config.solver)
        hyper = {"alpha": float(alpha)}
        doc_fit = {
            "coefficients": fit.coefficients.tolist(),
            "sse": fit.sse,
            "kld": fit.kld,
            "iterations": fit.lm.iterations,
            "converged_by": fit.lm.converged_by.value,
        }
        ame = _ame_table(lambda k: average_marginal_effects(fit, k), p)
        margins = {"ame": ame}
        se = _standard_errors(config, Y, X, alpha, fit, threads)
    elif config.model == "slx":
        alpha, k = values
        W = contiguity_matrix(coords, int(k))
        fit = fit_alpha_slx(Y, X, W, alpha, opts=config.solver)
        hyper = {"alpha": float(alpha), "k": int(k)}
        doc_fit = {
            "beta": fit.beta.tolist(),
            "gamma": fit.gamma.tolist(),
            "coefficients": fit.coefficients.tolist(),
            "sse": fit.sse,
            "kld": fit.kld,
            "iterations": fit.lm.iterations,
            "converged_by": fit.lm.converged_by.value,
        }
        effects = {kk: slx_effects(fit, kk) for kk in range(1, p + 1)}
        margins = {
            f"ame_{part}": _ame_table(
                lambda kk: getattr(effects[kk], part).mean(axis=0), p)
            for part in ("direct", "indirect", "total")
        }
        X_aug = np.hstack([X, W @ X[:, 1:]])
        se = _standard_errors(config, Y, X_aug, alpha, fit, threads)
    else:  # gwar
        alpha, h = values
        fit = fit_gwar(Y, X, coords, alpha, h, opts=config.solver)
        hyper = {"alpha": float(alpha), "h": float(h)}
        doc_fit = {
            "local_coefficients": fit.local_coefficients.tolist(),
            "global_coefficients": fit.global_coefficients.tolist(),
            "kld": fit.kld,
        }
        margins = {
            "ame": _ame_table(
                lambda kk: gwar_marginal_effects(fit, kk).mean(axis=0), p)
        }
        se = None

    doc = {
        "config": asdict(config),
        "selection": selection,
        "hyperparameters": hyper,
        "fit": doc_fit | {
            "observed_fitted_correlation": _correlations(Y, fit.fitted)
        },
        "marginal_effects": margins,
        "standard_errors": se,
    }
    if covariate_names:
        doc["covariate_names"] = list(covariate_names)
    log.info("run completed in %.2fs", time.perf_counter() - t0)
    return doc, fit


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


def _standard_errors(config, Y, X_model, alpha, fit, threads):
    """Sandwich SEs by default; pairs bootstrap when replicates requested.

    The bootstrap replicates warm-start from ``fit``, the final fit on
    ``X_model``, and give the coefficient and AME standard errors together.
    Also attaches the covariance matrix to the fit object.
    """
    if not (config.with_se or config.bootstrap_replicates):
        return None
    shape = (X_model.shape[1], Y.shape[1] - 1)
    if config.bootstrap_replicates:
        cov = bootstrap_covariance(
            Y, X_model, alpha, opts=config.solver,
            replicates=config.bootstrap_replicates, seed=config.seed,
            threads=threads, theta0=fit.lm.theta,
        )
        fit.covariance = cov.matrix
        return {
            "kind": cov.kind,
            "replicates": cov.replicates,
            "failed_replicates": cov.failed_replicates,
            "coefficients": _se_matrix(cov.matrix, shape).tolist(),
            "ame": cov.ame_standard_errors.tolist(),
        }
    cov = sandwich_covariance(Y, X_model, alpha, fit.coefficients)
    fit.covariance = cov.matrix
    return {
        "kind": cov.kind,
        "coefficients": _se_matrix(cov.matrix, shape).tolist(),
    }


def _se_matrix(cov, shape):
    return np.sqrt(np.diag(cov)).reshape(shape, order="F")
