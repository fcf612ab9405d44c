"""Shared oracles for derivative checks.

Central finite differences are the independent reference for every analytic
derivative in the package: the objective is differenced for gradient checks
and the analytic gradient is differenced for Hessian checks.
"""

import numpy as np
import pytest

from alphareg import gradient, sse
from alphareg.regression import coef_to_theta, theta_to_coef


def fd_gradient(Y, X, alpha, B, step=1e-6):
    """Central differences of -sse/2 with respect to vec(B)."""
    theta = coef_to_theta(B)
    shape = B.shape
    out = np.empty(theta.size)
    for j in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += step
        tm[j] -= step
        fp = -0.5 * sse(Y, X, alpha, theta_to_coef(tp, *shape))
        fm = -0.5 * sse(Y, X, alpha, theta_to_coef(tm, *shape))
        out[j] = (fp - fm) / (2 * step)
    return out


def fd_hessian(Y, X, alpha, B, step=1e-6):
    """Central differences of the analytic gradient."""
    theta = coef_to_theta(B)
    shape = B.shape
    out = np.empty((theta.size, theta.size))
    for j in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += step
        tm[j] -= step
        gp = gradient(Y, X, alpha, theta_to_coef(tp, *shape))
        gm = gradient(Y, X, alpha, theta_to_coef(tm, *shape))
        out[:, j] = (gp - gm) / (2 * step)
    return out


def rel_err(approx, exact):
    scale = max(1.0, float(np.max(np.abs(exact))))
    return float(np.max(np.abs(approx - exact))) / scale


def random_instance(rng, n=None, D=None, p=None, scale=0.5):
    """Random (Y, X, B) with Dirichlet responses and standard-normal covariates."""
    n = n if n is not None else int(rng.integers(10, 31))
    D = D if D is not None else int(rng.integers(2, 6))
    p = p if p is not None else int(rng.integers(1, 4))
    X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, p))])
    B = rng.normal(scale=scale, size=(p + 1, D - 1))
    Y = rng.dirichlet(np.full(D, 2.0), size=n)
    return Y, X, B


def patched_designs(X, patches):
    """The (m, n, q) designs of a shared design X (n, q) and the row patches
    ``(rows (m, r), values (m, r, q))`` of ``regression.fit_alpha_batch``."""
    rows, values = patches
    designs = np.repeat(X[None], len(rows), axis=0)
    for j in range(len(rows)):
        designs[j, rows[j]] = values[j]
    return designs


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
