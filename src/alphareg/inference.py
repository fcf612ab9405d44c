"""Marginal effects and coefficient uncertainty.

Marginal effects of covariate ``k`` on the mean composition follow from the
multinomial-logit map: with ``s_i = sum_j B[k, j] * mu[i, j+1]``,

    d mu_i1     / d x_k = -mu_i1 * s_i
    d mu_i(l+1) / d x_k =  mu_i(l+1) * (B[k, l] - s_i)

so every effects row sums to zero exactly: raising one component must lower
others by the same total.  Lagged-covariate fits decompose into direct
(local beta), indirect (spillover gamma) and total (beta + gamma) effects
with identical functional form, and locally weighted fits evaluate the same
formula per location with that location's coefficients.  These per-row
tables are the reference; the runs' average effects, of every model and
of the bootstrap's replicates, come from one vectorised pass
(:func:`_count_weighted_ames`), which takes one design shared by all its
fits or one design per fit, so a locally weighted fit is its n one-row
fits.

Coefficient covariance comes in three flavors: the sandwich estimator
``H^-1 M H^-1 / n``, whose bread ``H = J'J / n`` and meat ``M`` (the
residual scores' outer products) come from the same closed-form blocks
``A_i'A_i`` and ``A_i'r_i`` as the solver's normal equations, its
spherical special case ``sigma2 * H^-1 / n``, and a
nonparametric pairs bootstrap that resamples whole observation rows.  The
two asymptotic ones are Gram matrices of influence rows formed on the design's
orthonormal factor, so a covariate's offset or units move no slope's
standard error.  The
bootstrap makes one pass: its replicates are one stack of weighted fits of
:func:`regression.fit_alpha_batch`, warm-started from the full-data fit's
parameters and final damping, and each solved replicate yields both its
coefficients and its average marginal effects, so the covariance and the
effects' standard errors come from the same replicates.  A replicate is the
full data with each row weighted by how often it was drawn (0 for rows not
drawn): the objective over a resample sums each drawn row once per draw.
The effects are one vectorised pass over blocks of solved replicates: per
block, the fitted means, two matrix products and one sum give every
covariate's effect on every component, with no per-replicate or
per-covariate call of :func:`marginal_effects`.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import (
    DimensionMismatch,
    InterceptEffectRequested,
    InvalidParameters,
    NumericalError,
    SingularH,
    check_integer,
)
from .optim import LmResult, solver_diagnostics
from .regression import (RowBlocks, _check_problem, _derivatives, _inverse_logit,
                         _kron_matrix, fit_alpha_batch, fit_alpha_regression, theta_to_coef)
from .simplex import _check_alpha, _check_finite

COND_LIMIT = 1e12
# doubles of per-observation arrays, about n (3D + q) per replicate, in one
# block of the bootstrap's AME pass: a few replicates at n = 2000, so the
# pass runs in memory the replicate solves freed
AME_DOUBLES = 1 << 17


def marginal_effects(B, mu, k):
    """Per-observation effects of covariate ``k`` on every component.

    ``B`` is the (p+1) x d coefficient matrix (row 0 is the intercept), so
    ``k`` indexes both the covariate and its coefficient row; ``mu`` holds
    the fitted compositions.  ``B`` may also be an n x (p+1) x d stack, row
    i of ``mu`` then using ``B[i]`` (locally weighted fits).  Returns an
    n x D table whose rows sum to 0.  Shapes that do not fit are
    :class:`DimensionMismatch`, a NaN or an infinity in either array is
    :class:`NonNumericCell`, and ``k`` must be an ``int`` or numpy integer,
    not a bool, and anything else is :class:`InvalidParameters`.
    """
    B = np.asarray(B, dtype=np.float64)
    mu = np.atleast_2d(np.asarray(mu, dtype=np.float64))
    stack = () if B.ndim == 2 else (len(mu),)  # a stack holds one matrix per row of mu
    if mu.ndim != 2 or B.shape[:-2] != stack or B.shape[-1:] != (mu.shape[1] - 1,):
        raise DimensionMismatch(f"fitted means {mu.shape} do not fit coefficients {B.shape}")
    _check_finite("coefficients", B)
    _check_finite("fitted means", mu)
    check_integer("covariate index", k)
    if k == 0:
        raise InterceptEffectRequested("the intercept has no marginal effect")
    if not 1 <= k < B.shape[-2]:
        raise InvalidParameters(f"covariate index {k} outside 1..{B.shape[-2] - 1}")
    bk = B[..., k, :]  # coefficient of covariate k per non-reference component
    s = mu[:, 1:] @ bk if bk.ndim == 1 else np.einsum("ij,ij->i", mu[:, 1:], bk)
    # implicit zero coefficient for the reference component
    coeff_full = np.concatenate([np.zeros(bk.shape[:-1] + (1,)), bk], axis=-1)
    return mu * (coeff_full - s[:, None])


def average_marginal_effects(fit, k):
    """Columnwise mean of the per-observation effects table; sums to 0."""
    table = marginal_effects(fit.coefficients, fit.fitted, k)
    return table.mean(axis=0)


@dataclass
class SlxEffects:
    direct: np.ndarray
    indirect: np.ndarray
    total: np.ndarray


def slx_effects(fit, k):
    """Direct, indirect, and total effect tables for a lagged-covariate fit.

    Direct uses the local coefficients, indirect the spillover ones with the
    same formula, and total their sum; totals equal direct plus indirect
    exactly because the formula is linear in the coefficient row.
    """
    direct = marginal_effects(fit.beta, fit.fitted, k)
    indirect = marginal_effects(fit.gamma, fit.fitted, k)
    total = marginal_effects(fit.beta + fit.gamma, fit.fitted, k)
    return SlxEffects(direct=direct, indirect=indirect, total=total)


def gwar_marginal_effects(fit, k):
    """Location-specific effects: each row evaluated with its own coefficients."""
    return marginal_effects(fit.local_coefficients, fit.fitted, k)


@dataclass
class CovarianceEstimate:
    matrix: np.ndarray
    kind: str  # "sandwich" | "spherical" | "bootstrap"
    replicates: int = 0
    failed_replicates: int = 0
    ame_standard_errors: Optional[np.ndarray] = None  # p x D, bootstrap only
    diagnostics: Optional[dict] = None  # bootstrap only, see solver_diagnostics


def sandwich_covariance(Y, X, alpha, B_hat, kind="sandwich"):
    """Asymptotic covariance of ``vec(B_hat)`` from the NLS sandwich form.

    With the stacked residual Jacobian J and the per-observation scores
    ``s_i = (A_i'r_i) kron x_i`` of the transformed-space residuals ``r_i``,
    both from the closed-form blocks of :func:`regression._normal_blocks`:

        H = J'J / n,    M = (1/n) sum s_i s_i',

    the estimate is ``H^-1 M H^-1 / n``.  ``kind="spherical"`` instead
    returns ``sigma2 * H^-1 / n`` with ``sigma2 = SSE / (n d - (p+1) d)``,
    valid when residuals are i.i.d. with a scalar covariance.

    Both are formed on Q of the reduced ``X = QR``, whose coefficients
    ``R B_hat`` give the same means, with ``theta = K theta~`` for
    ``K = I_d kron R^-1``.  With one ``eigh`` ``H~ = V L V'`` on Q, the
    estimate is the Gram matrix ``A'A`` of the rows ``psi_i'K'/n``, where
    ``psi_i = H~^-1 s~_i`` (spherical: of ``sqrt(sigma2/n) L^-1/2 V'K'``), so
    it is positive semi-definite by construction.  :class:`SingularH`, before
    the degrees of freedom are checked, means fewer rows than columns,
    ``cond(R) > COND_LIMIT``, or ``L``'s largest over its smallest past it.
    """
    if kind not in ("sandwich", "spherical"):
        raise InvalidParameters(f"unknown covariance kind {kind!r}")
    alpha = _check_alpha(alpha)
    X, B_hat, Y = _check_problem(X, B_hat, Y)
    (n, q), d = X.shape, B_hat.shape[1]
    if n < q:
        raise SingularH(f"{n} rows do not identify {q} design columns")
    Q, R = np.linalg.qr(X)
    if np.linalg.cond(R) > COND_LIMIT:
        raise SingularH(f"design condition number exceeds {COND_LIMIT:.0e}")
    _, _, r, AtA, Atr = _derivatives(Y, Q, alpha, R @ B_hat)
    lam, V = np.linalg.eigh(_kron_matrix(AtA, Q) / n)
    if lam[0] <= lam[-1] / COND_LIMIT:
        raise SingularH(f"curvature matrix condition number exceeds {COND_LIMIT:.0e}")
    KV_T = np.linalg.solve(R, V.reshape(d, q, -1)).reshape(len(V), -1).T  # V'K'
    if kind == "spherical":
        dof = n * d - len(V)
        if dof <= 0:
            raise InvalidParameters("nonpositive degrees of freedom")
        sigma2 = float(np.einsum("dn,dn->", r, r)) / dof
        A = np.sqrt(sigma2 / n) / np.sqrt(lam)[:, None] * KV_T
    else:
        S = (Atr.T[:, :, None] * Q[:, None, :]).reshape(n, -1)  # scores s~_i
        A = S @ ((V / lam) @ KV_T) / n  # rows psi_i'K'/n, with (V / lam) @ V' = H~^-1
    return CovarianceEstimate(matrix=A.T @ A, kind=kind)


def bootstrap_covariance(Y, X, alpha, opts=None, replicates=200, seed=0, start=None):
    """Pairs-bootstrap covariance of ``vec(B_hat)`` and of the AMEs, in one pass.

    Observation rows ``(y_i, x_i)`` are resampled with replacement, and the
    ``replicates`` (an integer >= 2) are solved as one stack of
    :func:`fit_alpha_batch`: replicate r is the full data with each row
    weighted by how often ``default_rng([seed, r])`` drew it, which is the
    fit on the resample itself.  The counts are drawn again for each chunk
    of the stack, so no (replicates, n) array is formed.  Every replicate
    starts at ``start``, the full-data fit's :class:`LmResult` (fit here
    when ``None``), and continues from its final damping (the warm rule of
    :mod:`alphareg.optim`).  Each solved replicate gives its coefficients
    and the average marginal effect of every covariate (the count-weighted
    mean over the rows), so ``matrix`` and the p x D ``ame_standard_errors``
    come from the same replicates.  The effects are one vectorised pass over
    blocks of solved replicates (:func:`_count_weighted_ames`, about
    ``AME_DOUBLES`` doubles of arrays per block), each block's counts drawn
    again, so here too no (replicates, n) array is formed.  On a lagged
    design ``[X | lag]`` the p rows are the p/2 direct (beta) effects, then
    the p/2 spillover (gamma) ones.  A failed replicate is dropped from both
    statistics and counted once; more than 20% failing is an error.
    ``diagnostics`` records how the replicates converged
    (:func:`solver_diagnostics`).
    """
    check_integer("replicates", replicates, 2)
    check_integer("seed", seed, 0)
    X, _, Y = _check_problem(X, Y=Y)
    n, D = Y.shape
    p = X.shape[1] - 1
    if start is None:
        start = fit_alpha_regression(Y, X, alpha, opts=opts).lm

    def counts(reps):  # each replicate's draw count of every row
        return np.array([np.bincount(np.random.default_rng([seed, rep]).integers(0, n, size=n),
                                     minlength=n) for rep in reps])

    outcomes = fit_alpha_batch(Y, X, alpha, RowBlocks(replicates, counts), start.theta, opts,
                               start.damping)
    solved = [rep for rep, lm in enumerate(outcomes) if isinstance(lm, LmResult)]
    failed = replicates - len(solved)
    if failed > 0.2 * replicates:
        raise NumericalError(
            f"{failed} of {replicates} bootstrap replicates failed to fit"
        )
    thetas = np.array([outcomes[rep].theta for rep in solved])
    size = max(1, AME_DOUBLES // (n * (3 * D + p + 1)))
    ames = np.concatenate([
        _count_weighted_ames(X, theta_to_coef(thetas[a:a + size], p + 1, D - 1),
                             counts(solved[a:a + size]))
        for a in range(0, len(solved), size)])
    cov = np.cov(thetas, rowvar=False, ddof=1)
    return CovarianceEstimate(
        matrix=np.atleast_2d(cov),
        kind="bootstrap",
        replicates=len(solved),
        failed_replicates=failed,
        ame_standard_errors=np.std(ames, axis=0, ddof=1),
        diagnostics=solver_diagnostics(outcomes),
    )


def _count_weighted_ames(X, B, c):
    """Average marginal effects (k, q-1, D) of every covariate for k fits,
    with coefficients B (k, q, d) and row counts c (k, n): the count-weighted
    means of :func:`marginal_effects` over the n rows of each fit's design.
    The design X is one (n, q) array shared by every fit, or one (k, n, q)
    per fit: a locally weighted fit is n one-row fits ``(X[:, None],
    local_coefficients, ones((n, 1)))``, whose AMEs are the mean of the
    results.  With the fitted means ``mu`` (k, D, n), ``cmu = c * mu`` and
    ``s = B[:, 1:] @ mu[:, 1:]``, the effect of covariate j on component l
    is ``(b[j, l] * sum_i cmu[l, i] - (s @ cmu')[j, l]) / n``, where b is
    ``B[:, 1:]`` with a zero column for the reference component."""
    n = X.shape[-2]
    mu = np.empty((len(B), B.shape[2] + 1, n))
    _inverse_logit((np.swapaxes(B, 1, 2) @ np.swapaxes(X, -1, -2)).swapaxes(0, 1),
                   out=mu.swapaxes(0, 1))
    cmu = mu * np.asarray(c, dtype=np.float64)[:, None, :]
    ame = -(B[:, 1:] @ mu[:, 1:] @ cmu.swapaxes(1, 2))
    ame[..., 1:] += B[:, 1:] * cmu[:, 1:].sum(axis=2)[:, None, :]
    ame /= n
    return ame


def bootstrap_ame_standard_errors(Y, X, alpha, opts=None, replicates=200, seed=0):
    """Bootstrap standard errors (p x D) of the average marginal effects: the
    ``ame_standard_errors`` of :func:`bootstrap_covariance`."""
    return bootstrap_covariance(Y, X, alpha, opts, replicates, seed).ame_standard_errors
