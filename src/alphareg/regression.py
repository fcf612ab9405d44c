"""Compositional regression through the power-parameterized transform.

The conditional mean of a D-part composition given covariates ``x`` is the
multinomial-logit map of linear predictors ``eta_j = x' beta_j``:

    mu_1     = 1 / (1 + sum_j exp(eta_j))
    mu_{j+1} = exp(eta_j) / (1 + sum_j exp(eta_j)),   j = 1..d,  d = D-1

with component 1 as the reference.  Coefficients are estimated by nonlinear
least squares in transformed space,

    SSE(B) = sum_i || z(y_i) - z(mu_i) ||^2,

where ``z`` is the transform of :mod:`alphareg.simplex` at a fixed power
``alpha``.  A useful identity collapses the two-step transform of the fitted
mean: the power transform of ``mu`` equals the multinomial-logit map of
``alpha * eta``, so transformed means never require forming ``mu`` first.

The same identity collapses the derivatives.  With ``u = fitted_mean(X,
alpha*B)`` the Jacobian of the transformed mean in the linear predictors is
``D * H @ logit_jacobian(u)`` and its second derivative is
``D * alpha * H @ logit_hessian(u)``: the ``1/alpha`` of the transform
cancels against the chain rule through ``alpha * eta``, no power of ``mu``
is ever formed, and ``alpha == 0`` (uniform ``u``, ``H @ 1 = 0``) needs no
special case.  The analytic gradient and Hessian of ``l = -SSE/2`` are built
from these closed forms and exposed for diagnostics and covariance
estimation; the solver consumes the stacked residual Jacobian built from the
same mean Jacobian.

Parameter layout: ``theta = B.ravel(order="F")`` stacks coefficient columns
component by component, so ``theta[k*(p+1) + a]`` is covariate ``a`` of
non-reference component ``k+2``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import DimensionMismatch, NonpositiveFitted, ShapeMismatch
from .optim import LmOptions, LmResult, ResidualSystem, levenberg_marquardt
from .simplex import alpha_transform, helmert_submatrix, _check_alpha

LINPRED_CLAMP = 700.0


@dataclass
class FitResult:
    """Converged fit of the compositional regression at a fixed alpha."""

    coefficients: np.ndarray  # (p+1) x d
    fitted: np.ndarray  # n x D compositions
    sse: float
    kld: float
    alpha: float
    lm: LmResult
    covariance: Optional[np.ndarray] = None


def _check_design(X, B):
    X = np.asarray(X, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if X.ndim != 2 or B.ndim != 2:
        raise DimensionMismatch("design and coefficient matrices must be 2-D")
    if X.shape[1] != B.shape[0]:
        raise DimensionMismatch(
            f"design has {X.shape[1]} columns but coefficients have {B.shape[0]} rows"
        )
    return X, B


def theta_to_coef(theta, n_cols, d):
    return np.asarray(theta, dtype=np.float64).reshape((n_cols, d), order="F")


def coef_to_theta(B):
    return np.asarray(B, dtype=np.float64).ravel(order="F")


def _logit_map(X, B):
    """:func:`fitted_mean` without the shape checks (hot-loop form)."""
    e = np.exp(np.clip(X @ B, -LINPRED_CLAMP, LINPRED_CLAMP))
    denom = 1.0 + e.sum(axis=1, keepdims=True)
    return np.hstack([1.0 / denom, e / denom])


def fitted_mean(X, B):
    """Multinomial-logit mean compositions, one row per observation.

    Linear predictors are clamped to +-700 before exponentiation so the map
    never overflows; rows sum to 1 with all entries in (0, 1).
    """
    X, B = _check_design(X, B)
    return _logit_map(X, B)


def _transformed_mean(X, B, alpha, H):
    """:func:`transformed_mean` for checked inputs and a precomputed Helmert H."""
    if alpha == 0.0:
        return np.clip(X @ B, -LINPRED_CLAMP, LINPRED_CLAMP) @ H[:, 1:].T
    u = _logit_map(X, alpha * B)
    return (H.shape[1] * u - 1.0) @ H.T / alpha


def transformed_mean(X, B, alpha):
    """Transformed fitted means, computed without forming the compositions.

    Uses the collapse of power transform and logit map: the stay-in-simplex
    power of the fitted mean equals the logit map of ``alpha * eta``.  At
    ``alpha == 0`` the transformed mean is linear: ``eta_full @ H.T`` with
    ``eta_full = (0, eta_1, ..., eta_d)``.
    """
    alpha = _check_alpha(alpha)
    X, B = _check_design(X, B)
    return _transformed_mean(X, B, alpha, helmert_submatrix(B.shape[1] + 1))


def _check_response(Y, X, B):
    Y = np.asarray(Y, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if Y.shape[0] != np.asarray(X).shape[0]:
        raise DimensionMismatch("response and design row counts differ")
    if Y.shape[1] != B.shape[1] + 1:
        raise DimensionMismatch(
            f"response has {Y.shape[1]} components but coefficients cover "
            f"{B.shape[1] + 1}"
        )
    return Y


def sse(Y, X, alpha, B):
    """Sum of squared residuals between transformed data and fitted means."""
    Y = _check_response(Y, X, B)
    r = alpha_transform(Y, alpha) - transformed_mean(X, B, alpha)
    return float(np.sum(r * r))


def kld(observed, fitted):
    """Kullback-Leibler divergence of fitted from observed compositions.

    ``sum_ij y_ij * log(y_ij / mu_ij)`` with the convention 0*log(0) = 0, so
    zeros in the observed data contribute nothing and need no imputation.
    """
    obs = np.atleast_2d(np.asarray(observed, dtype=np.float64))
    fit = np.atleast_2d(np.asarray(fitted, dtype=np.float64))
    if obs.shape != fit.shape:
        raise ShapeMismatch(f"observed {obs.shape} vs fitted {fit.shape}")
    if np.any(fit <= 0):
        raise NonpositiveFitted("fitted compositions must be strictly positive")
    mask = obs > 0
    terms = np.zeros_like(obs)
    terms[mask] = obs[mask] * np.log(obs[mask] / fit[mask])
    return float(terms.sum())


# -- derivative chain ---------------------------------------------------------

def _jacobian_factors(X, B, alpha, H):
    """``u = fitted_mean(X, alpha*B)`` and ``G[i, m, k] = H[m, k+1] - (H u_i)_m``."""
    u = _logit_map(X, alpha * B)
    G = H[None, :, 1:] - (u @ H.T)[:, :, None]
    return u, G


def _mean_jacobian_unchecked(X, B, alpha, H):
    u, G = _jacobian_factors(X, B, alpha, H)
    return H.shape[1] * G * u[:, None, 1:]


def _mean_jacobian(X, B, alpha):
    """Sensitivity of the transformed mean to the linear predictors.

    Returns A with shape (n, d, d): ``A[i, m, k] = d z(mu_i)_m / d eta_{ik}``,
    which is ``D * H @ logit_jacobian(u_i)`` with ``u = fitted_mean(X, alpha*B)``:

        A[i, m, k] = D * (H[m, k+1] - (H u_i)_m) * u_i[k+1]

    The full parameter Jacobian is ``A[i, m, k] * X[i, a]``.
    """
    alpha = _check_alpha(alpha)
    X, B = _check_design(X, B)
    return _mean_jacobian_unchecked(X, B, alpha, helmert_submatrix(B.shape[1] + 1))


def _stacked_jacobian(A, X):
    """Parameter Jacobian of the stacked means, shape (n*d, (p+1)*d).

    Row ``i*d + m``, column ``k*(p+1) + a`` holds ``A[i, m, k] * X[i, a]``.
    """
    n, d, _ = A.shape
    return (A[:, :, :, None] * X[:, None, None, :]).reshape(n * d, d * X.shape[1])


def gradient(Y, X, alpha, B):
    """Gradient of ``l = -SSE/2`` with respect to ``theta = vec(B)``.

    Assembled as ``sum_i sum_m r_im * A[i, m, k] * x_ia`` with the residuals
    ``r = z(y) - z(mu)`` and the mean Jacobian of :func:`_mean_jacobian`.
    """
    alpha = _check_alpha(alpha)
    X, B = _check_design(X, B)
    Y = _check_response(Y, X, B)
    r = alpha_transform(Y, alpha) - transformed_mean(X, B, alpha)
    A = _mean_jacobian(X, B, alpha)
    return (np.einsum("im,imk->ki", r, A) @ X).ravel()


def hessian_gauss_newton(Y, X, alpha, B):
    """First-order (Gauss-Newton) block of the Hessian of ``l = -SSE/2``.

    ``-sum_i sum_m (dm_im/dtheta)(dm_im/dtheta)'``; symmetric and negative
    semi-definite by construction, and equal to ``-J'J`` for the stacked
    residual Jacobian consumed by the solver.
    """
    alpha = _check_alpha(alpha)
    X, B = _check_design(X, B)
    J = _stacked_jacobian(_mean_jacobian(X, B, alpha), X)
    return -(J.T @ J)


def hessian_exact(Y, X, alpha, B):
    """Exact Hessian of ``l = -SSE/2``: Gauss-Newton block plus the
    residual-weighted second-derivative correction.

    The second derivative of the transformed mean is
    ``D * alpha * H @ logit_hessian(u)`` with ``u = fitted_mean(X, alpha*B)``;
    per row, with ``v = u[1:]`` and G as in :func:`_jacobian_factors`,

        d2 z_m / (d eta_k d eta_j) = D * alpha * (delta_kj v_k G[m, k]
                                     - v_k v_j (G[m, k] + G[m, j]))

    It vanishes at ``alpha == 0`` (the mean is linear in B there) and the
    correction vanishes when the residuals are identically zero.
    """
    alpha = _check_alpha(alpha)
    X, B = _check_design(X, B)
    Y = _check_response(Y, X, B)
    H = helmert_submatrix(B.shape[1] + 1)
    r = alpha_transform(Y, alpha) - _transformed_mean(X, B, alpha, H)
    u, G = _jacobian_factors(X, B, alpha, H)
    v = u[:, 1:]
    J = _stacked_jacobian(H.shape[1] * G * v[:, None, :], X)
    g = np.einsum("im,imk->ik", r, G)  # residual-contracted G
    w = -v[:, :, None] * v[:, None, :] * (g[:, :, None] + g[:, None, :])
    idx = np.arange(v.shape[1])
    w[:, idx, idx] += v * g
    w *= H.shape[1] * alpha
    H2 = np.einsum("ikj,ia,ib->kajb", w, X, X).reshape(B.size, B.size)
    return H2 - J.T @ J


# -- fitting ------------------------------------------------------------------

def residual_system(Y, X, alpha, weights=None):
    """Stacked residual system for the solver.

    Residual row order is observation-major: entry ``i*d + m`` is component
    score ``m`` of observation ``i``.  Per-observation weights (length n)
    are expanded to all d component residuals of that observation.
    """
    alpha = _check_alpha(alpha)
    Y = np.asarray(Y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    n, D = Y.shape
    if X.ndim != 2:
        raise DimensionMismatch("design matrix must be 2-D")
    if X.shape[0] != n:
        raise DimensionMismatch("response and design row counts differ")
    d = D - 1
    n_cols = X.shape[1]
    H = helmert_submatrix(D)
    y_a = alpha_transform(Y, alpha)
    neg_X = -X  # residuals are y_a minus the mean, so J = -dmean/dtheta

    def res(theta):
        B = theta_to_coef(theta, n_cols, d)
        return (y_a - _transformed_mean(X, B, alpha, H)).ravel()

    def jac(theta):
        B = theta_to_coef(theta, n_cols, d)
        return _stacked_jacobian(_mean_jacobian_unchecked(X, B, alpha, H), neg_X)

    w = None
    if weights is not None:
        w = np.repeat(np.asarray(weights, dtype=np.float64), d)
    return ResidualSystem(
        residual_fn=res,
        jacobian_fn=jac,
        n_params=n_cols * d,
        n_residuals=n * d,
        weights=w,
    )


def fit_alpha_regression(Y, X, alpha, opts=None, theta0=None, weights=None):
    """Estimate the coefficient matrix at a fixed alpha.

    Starts from ``B = 0`` (uniform fitted compositions) unless ``theta0`` is
    given; deterministic for fixed inputs.  ``weights`` (length n,
    nonnegative) fit the kernel-weighted objective used by the locally
    weighted model.
    """
    Y = np.asarray(Y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    d = Y.shape[1] - 1
    n_cols = X.shape[1]
    system = residual_system(Y, X, alpha, weights=weights)
    if theta0 is None:
        theta0 = np.zeros(n_cols * d)
    lm = levenberg_marquardt(system, theta0, opts or LmOptions())
    B = theta_to_coef(lm.theta, n_cols, d)
    mu = fitted_mean(X, B)
    r = system.residual_fn(lm.theta)  # unweighted, whatever the fit's weights
    return FitResult(
        coefficients=B,
        fitted=mu,
        sse=float(r @ r),
        kld=kld(Y, mu),
        alpha=float(alpha),
        lm=lm,
    )


def predict(X_new, fit):
    """Mean compositions at new covariate rows."""
    return fitted_mean(X_new, fit.coefficients)
