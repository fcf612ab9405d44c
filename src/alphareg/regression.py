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
``A_i = D * H @ logit_jacobian(u_i)`` and its second derivative is
``D * alpha * H @ logit_hessian(u_i)``: the ``1/alpha`` of the transform
cancels against the chain rule through ``alpha * eta``, no power of ``mu``
is ever formed, and ``alpha == 0`` (uniform ``u``, ``H @ 1 = 0``) needs no
special case.  One function, :func:`_normal_blocks`, turns u and the
residuals into the closed-form blocks ``w_i A_i'A_i`` and ``w_i A_i'r_i``,
and every derivative is assembled from them through ``kron x_i``: the
normal equations ``J'WJ`` and ``J'Wr`` the solver of
:func:`fit_alpha_batch` consumes, the analytic gradient and both Hessians
of ``l = -SSE/2``, and the sandwich covariance of
:mod:`alphareg.inference`.  Only :func:`residual_system`, kept as the tests'
reference, forms the explicit A and the stacked (n*d, P) Jacobian.

Parameter layout: ``theta = B.ravel(order="F")`` stacks coefficient columns
component by component, so ``theta[k*(p+1) + a]`` is covariate ``a`` of
non-reference component ``k+2``.  Its reshape to (d, p+1) is ``B'``, so the
linear predictors of a stack of k fits are ``theta.reshape(k, d, p+1) @ X'``.

Array layout: the whole chain, from linear predictors through the logit map,
transformed mean and residuals to the blocks of :func:`_normal_blocks`, is
component-major.  Every per-observation quantity of a stack of k fits is a
(k, component, n) array, so each numpy call runs over rows of n contiguous
values and no reduction runs over a short last axis; the public functions
transpose only the arrays they take and return, which are (n, component).
A sum over components adds whole rows: ``np.sum`` over the component axis
for the denominator of the logit map, and ``einsum`` for the products
``r'r``, ``u'u`` and ``(Hu)'r``, which forms no array of the products.

Patched designs: a set of fits whose designs differ from one shared (n, q)
design in a few rows each, such as the leave-one-out folds of the
lagged-covariate model, passes that design once with per-problem row
patches ``(rows (m, r), values (m, r, q))`` (:func:`fit_alpha_batch`).  A
step forms the linear predictors from the shared design and overwrites the
r patched columns of each problem with ``B' values'``.  The normal
equations take the patched rows' blocks out of the shared sums ``C @ x x'``
and ``A'r @ X``, zeroing them there, and add them back with the patched
rows' own products, so no per-problem (n, q) design is ever formed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateWeights,
    DimensionMismatch,
    InvalidParameters,
    NegativeWeight,
    NonpositiveFitted,
    ShapeMismatch,
)
from .optim import LmOptions, LmResult, ResidualSystem, lm_batch
from .simplex import alpha_transform, helmert_submatrix, _check_alpha

LINPRED_CLAMP = 700.0
CHUNK_DOUBLES = 1 << 18  # doubles in the working set of one chunk of fits (2 MiB), see _chunk_size


@dataclass
class FitResult:
    """Converged fit of the compositional regression at a fixed alpha."""

    coefficients: np.ndarray  # (p+1) x d
    fitted: np.ndarray  # n x D compositions
    sse: float
    kld: float
    alpha: float
    lm: LmResult


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
    """:func:`fitted_mean` without the shape checks, component-major: the
    logit map (..., D, n) of a design X (n, q) and coefficients B (..., q, d)."""
    return _inverse_logit(np.swapaxes(B, -1, -2) @ X.T)


def _fresh(name, shape, dtype=np.float64):
    """The work allocator of one-off calls: a new array every time."""
    return np.empty(shape, dtype)


class _Work:
    """Work arrays kept by name over the LM steps of a batch of fits.

    ``work(name, shape)`` returns the first ``shape[0]`` problems of the
    array kept under ``name``.  On first use the array is cut, with room
    for ``capacity`` problems, from one block of ``doubles`` doubles per
    problem, so every step of every chunk writes into the arrays of the
    first.  A boolean array, or one the block has no room left for, is
    allocated apart.  Two calls for one name share storage, so a caller
    must not hold one across the other.  Functions that take ``work``
    default to :func:`_fresh`.

    One block rather than an allocation per array keeps the heap in place
    between batches: glibc trims its heap only when more than twice the
    largest block it has unmapped (up to 32 MiB) is free at the top, so a
    batch's block, once freed, is reused by the next batch instead of being
    given back to the system and faulted in again.
    """

    def __init__(self, capacity, doubles):
        self.capacity = capacity
        self.block = np.empty(capacity * doubles)
        self.used = 0  # doubles of the block cut so far
        self.arrays = {}

    def __call__(self, name, shape, dtype=np.float64):
        kept = self.arrays.get(name)
        if kept is None:
            full = (self.capacity,) + tuple(shape[1:])
            size = math.prod(full)
            if dtype == np.float64 and self.used + size <= self.block.size:
                kept = self.block[self.used:self.used + size].reshape(full)
                self.used += size
            else:
                kept = np.empty(full, dtype)
            self.arrays[name] = kept
        return kept[:shape[0]]


def _inverse_logit(eta, work=_fresh, out=None):
    """Compositions (..., D, n) from linear predictors (..., d, n), one row
    per component; row 0 is the reference.  ``eta`` is overwritten; the
    result goes to ``out`` if given."""
    e = np.exp(np.clip(eta, -LINPRED_CLAMP, LINPRED_CLAMP, out=eta), out=eta)
    denom = np.sum(e, axis=-2, out=work("denom", e.shape[:-2] + e.shape[-1:]))
    denom += 1.0
    u = work("u", e.shape[:-2] + (e.shape[-2] + 1, e.shape[-1])) if out is None else out
    np.divide(1.0, denom, out=u[..., 0, :])
    np.divide(e, denom[..., None, :], out=u[..., 1:, :])
    return u


def fitted_mean(X, B):
    """Multinomial-logit mean compositions, one row per observation.

    Linear predictors are clamped to +-700 before exponentiation so the map
    never overflows; rows sum to 1 with all entries in (0, 1).
    """
    X, B = _check_design(X, B)
    return np.ascontiguousarray(_logit_map(X, B).T)


def _transformed_mean(XT, BT, alpha, H, work=_fresh, u=None, patch=None):
    """:func:`transformed_mean` component-major, for checked inputs and a
    precomputed Helmert H, of the linear predictors ``eta = BT @ XT`` with
    coefficient rows BT (..., d, q) and design columns XT (..., q, n).
    ``patch``, rows (k, r) and their design rows (k, r, q), replaces those
    columns of XT for each of k coefficient rows BT (k, d, q).

    Returns the transformed mean (..., d, n) and the logit map ``u`` of
    ``alpha * eta`` (..., D, n), uniform at alpha 0, written to ``u`` if
    given; ``work`` allocates the rest (:class:`_Work`).
    """
    d, D = H.shape
    shape = np.broadcast_shapes(XT.shape[:-2], BT.shape[:-2])
    n = XT.shape[-1]
    t = work("t", shape + (D, n))
    if u is None:
        u = work("u", shape + (D, n))
    mean = work("mean", shape + (d, n))
    # at alpha 0 the mean is formed from eta, so eta goes to t; elsewhere
    # mean holds eta until it becomes u
    eta = t[..., 1:, :] if alpha == 0.0 else mean
    # a huge or infinite parameter is clipped below, or fails as a non-finite
    # residual, so its overflow and inf * 0 are not errors here
    with np.errstate(over="ignore", invalid="ignore"):
        aBT = BT if alpha == 0.0 else alpha * BT
        np.matmul(aBT, XT, out=eta)
        if patch is not None:
            rows, values = patch
            eta_rows = np.matmul(aBT, np.swapaxes(values, 1, 2),
                                 out=work("eta rows", (len(rows), d, rows.shape[1])))
            np.put_along_axis(eta, rows[:, None, :], eta_rows, axis=-1)
    if alpha == 0.0:
        np.clip(eta, -LINPRED_CLAMP, LINPRED_CLAMP, out=eta)
        u[...] = 1.0 / D
        return np.matmul(H[:, 1:], eta, out=mean), u
    _inverse_logit(eta, work, u)
    np.multiply(u, D, out=t)
    t -= 1.0
    np.matmul(H, t, out=mean)
    mean /= alpha
    return mean, u


def transformed_mean(X, B, alpha):
    """Transformed fitted means, computed without forming the compositions.

    Uses the collapse of power transform and logit map: the stay-in-simplex
    power of the fitted mean equals the logit map of ``alpha * eta``.  At
    ``alpha == 0`` the transformed mean is linear: ``eta_full @ H.T`` with
    ``eta_full = (0, eta_1, ..., eta_d)``.
    """
    alpha = _check_alpha(alpha)
    X, B = _check_design(X, B)
    mean, _ = _transformed_mean(X.T, B.T, alpha, helmert_submatrix(B.shape[1] + 1))
    return np.ascontiguousarray(mean.T)


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
    return float(_kld_terms(obs, fit).sum())


def _kld_terms(obs, fit):
    """Cell terms ``y log(y/mu)`` of :func:`kld` (0 where y is 0), checked."""
    if obs.shape != fit.shape:
        raise ShapeMismatch(f"observed {obs.shape} vs fitted {fit.shape}")
    if np.any(fit <= 0):
        raise NonpositiveFitted("fitted compositions must be strictly positive")
    mask = obs > 0
    terms = np.zeros_like(obs)
    terms[mask] = obs[mask] * np.log(obs[mask] / fit[mask])
    return terms


# -- derivative chain ---------------------------------------------------------

def _contract_residuals(u, r, H, work=_fresh):
    """``g_i = H[:, 1:]'r_i - (H u_i)'r_i`` as (k, d, n), for logit maps u
    (k, D, n) and residuals r (k, d, n): the residuals contracted with
    ``G_i = H[:, 1:] - H u_i 1'``, of which ``A_i = D G_i diag(v_i)``."""
    k, d, n = r.shape
    g = work("g", r.shape)
    Hu = np.matmul(H, u, out=g)  # g's array holds H u until (H u)'r is summed
    hr = np.einsum("kdn,kdn->kn", Hu, r, out=work("hr", (k, n)))
    np.matmul(H[:, 1:].T, r, out=g)
    g -= hr[:, None, :]
    return g


def _normal_blocks(u, r, w, H, work=_fresh):
    """``w_i A_i'A_i`` as (k, d*d, n) and ``w_i A_i'r_i`` as (k, d, n) for a
    stack of logit maps u (k, D, n), residuals r (k, d, n) and weights w (k, n),
    in arrays of ``work`` (:class:`_Work`).

    ``A_i`` is the mean Jacobian of observation i in its linear predictors,
    ``D (H[:, 1:] - H u_i 1') diag(v_i)`` with ``v_i = u_i[1:]``.  Helmert
    rows are orthonormal and orthogonal to 1, so

        A_i'A_i = D^2 v_a v_b (delta_ab - v_a - v_b + u_i'u_i)
        A_i'r_i = D v_i * g_i   (g of :func:`_contract_residuals`)
    """
    k, D, n = u.shape
    d = D - 1
    v = u[:, 1:]
    uu = np.einsum("kdn,kdn->kn", u, u, out=work("uu", (k, n)))
    C = work("C", (k, d * d, n))
    Cab = C.reshape(k, d, d, n)
    # u'u - v_a once, not for every b, in the array g of _contract_residuals
    uu_va = np.subtract(uu[:, None, :], v, out=work("g", v.shape))
    np.copyto(Cab, uu_va[:, :, None, :])
    Cab -= v[:, None]
    C[:, ::d + 1] += 1.0  # a == b
    Cab *= v[:, :, None, :]
    Cab *= v[:, None]
    wD = np.multiply(w, D * D, out=work("wD", (k, n)))
    C *= wD[:, None, :]
    Atr = _contract_residuals(u, r, H, work)
    Atr *= v
    Atr *= np.multiply(w, D, out=wD)[:, None, :]
    return C, Atr


def _kron_rows(C, outer, patch=None):
    """``sum_i C_i kron x_i x_i'`` in the theta layout, (k, d*q, d*q), for
    blocks C (k, d*d, n) and row outer products (n, q*q).  ``patch``, the
    blocks (k, d*d, r) and outer products (k, r, q*q) of each problem's
    patched rows, adds their terms."""
    k, d, q = len(C), math.isqrt(C.shape[1]), math.isqrt(outer.shape[-1])
    S = C @ outer
    if patch is not None:
        S += patch[0] @ patch[1]
    return S.reshape(k, d, d, q, q).transpose(0, 1, 3, 2, 4).reshape(k, d * q, d * q)


def _derivatives(Y, X, alpha, B):
    """Checked ``X``, the logit map u (D, n), residuals r (d, n) and the
    :func:`_normal_blocks` of one unweighted problem at B, with k = 1."""
    alpha = _check_alpha(alpha)
    X, B = _check_design(X, B)
    Y = _check_response(Y, X, B)
    H = helmert_submatrix(B.shape[1] + 1)
    mean, u = _transformed_mean(X.T, B.T, alpha, H)
    r = np.subtract(alpha_transform(Y, alpha).T, mean, out=mean)
    return (X, u, r) + _normal_blocks(u[None], r[None], np.ones((1, len(X))), H)


def gradient(Y, X, alpha, B):
    """Gradient of ``l = -SSE/2`` with respect to ``theta = vec(B)``: the sum
    of the per-observation scores ``(A_i'r_i) kron x_i`` with the residuals
    ``r = z(y) - z(mu)`` (blocks of :func:`_normal_blocks`).
    """
    X, _, _, _, Atr = _derivatives(Y, X, alpha, B)
    return (Atr[0] @ X).ravel()


def hessian_gauss_newton(Y, X, alpha, B):
    """First-order (Gauss-Newton) block of the Hessian of ``l = -SSE/2``.

    ``-J'J = -sum_i (A_i'A_i) kron x_i x_i'`` for the stacked residual
    Jacobian J of :func:`residual_system`; symmetric and negative
    semi-definite by construction.
    """
    X, _, _, AtA, _ = _derivatives(Y, X, alpha, B)
    return -_kron_rows(AtA, _outer_rows(X))[0]


def hessian_exact(Y, X, alpha, B):
    """Exact Hessian of ``l = -SSE/2``: Gauss-Newton block plus the
    residual-weighted second-derivative correction.

    The second derivative of the transformed mean is
    ``D * alpha * H @ logit_hessian(u)`` with ``u = fitted_mean(X, alpha*B)``;
    contracted with the residuals it is, per row, with ``v = u[1:]`` and g
    of :func:`_contract_residuals`,

        W[k, j] = D * alpha * (delta_kj v_k g_k - v_k v_j (g_k + g_j))

    and the Hessian is ``sum_i (W_i - A_i'A_i) kron x_i x_i'``.  W vanishes
    at ``alpha == 0`` (the mean is linear in B there) and when the
    residuals are identically zero.
    """
    X, u, r, AtA, _ = _derivatives(Y, X, alpha, B)
    D, n = u.shape
    v = u[1:]
    g = _contract_residuals(u[None], r[None], helmert_submatrix(D))[0]
    W = -v[:, None] * v[None] * (g[:, None] + g[None])
    W[np.arange(D - 1), np.arange(D - 1)] += v * g
    W *= D * float(alpha)
    return _kron_rows(W.reshape(1, -1, n) - AtA, _outer_rows(X))[0]


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
        return (y_a - _transformed_mean(X.T, B.T, alpha, H)[0].T).ravel()

    def jac(theta):
        # row i*d + m, column k*n_cols + a: -A[i, m, k] * X[i, a], with the
        # explicit mean Jacobian A[i, m, k] = D (H[m, k+1] - (H u_i)_m) u_i[k+1]
        u = _logit_map(X, alpha * theta_to_coef(theta, n_cols, d))
        A = D * (H[None, :, 1:] - (H @ u).T[:, :, None]) * u[1:].T[:, None, :]
        return (A[:, :, :, None] * neg_X[:, None, None, :]).reshape(n * d, d * n_cols)

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


def fit_alpha_regression(Y, X, alpha, opts=None, theta0=None, weights=None,
                         damping0=None):
    """Estimate the coefficient matrix at a fixed alpha.

    Starts from ``B = 0`` (uniform fitted compositions) unless ``theta0`` is
    given; deterministic for fixed inputs.  ``weights`` (length n, finite,
    nonnegative, not all zero) fit the kernel-weighted objective of the
    locally weighted model; ``sse`` is unweighted either way.  ``damping0``
    is the damping the fit that gave ``theta0`` ended with; given, the solve
    continues from it by the warm rule of :mod:`alphareg.optim`, else it
    starts by the cold rule.  This is the one-problem call of
    :func:`fit_alpha_batch`; a failed outcome is raised.
    """
    alpha = _check_alpha(alpha)
    Y = np.asarray(Y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch("design matrix must be 2-D")
    (n, D), q = Y.shape, X.shape[1]
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    y_a = alpha_transform(Y, alpha)
    lm, = _fit_batch(y_a, X, alpha, w[None],
                     np.zeros(q * (D - 1)) if theta0 is None else theta0, opts,
                     damping0)
    if isinstance(lm, Exception):
        raise lm
    B = theta_to_coef(lm.theta, q, D - 1)
    mu = fitted_mean(X, B)
    r = y_a - _transformed_mean(X.T, B.T, alpha, helmert_submatrix(D))[0].T
    return FitResult(coefficients=B, fitted=mu, sse=float(np.sum(r * r)), kld=kld(Y, mu),
                     alpha=float(alpha), lm=lm)


class RowBlocks:
    """A stack of ``m`` rows that is built a block at a time.

    ``stack[a:b]`` returns ``build(rows)`` for ``rows = np.arange(a, b)``, so
    :func:`fit_alpha_batch` can take per-problem weights without the whole
    (m, n) array ever existing.
    """

    def __init__(self, m, build):
        self.m, self.build = m, build

    def __len__(self):
        return self.m

    def __getitem__(self, block):
        return self.build(np.arange(*block.indices(self.m)))


def _work_doubles(n, D, q, r):
    """Doubles per problem of the work arrays (:class:`_Work`) of
    :func:`_batch_system`.  For each of the n observations: the d + D
    residuals and logit map, the D rows of ``t`` and the d of the mean of
    :func:`_transformed_mean`, the d*d block of :func:`_normal_blocks` and
    the d entries of ``g``, and 6 single values
    (the denominator of the logit map, the weight gathered for a step,
    ``w D^2``, and the sums ``r'r``, ``u'u`` and ``(Hu)'r``).  For each of
    the r rows of a patch: the row's outer product, kept for the stack and
    gathered for a step, the row gathered for a step, and its d linear
    predictors."""
    d = D - 1
    return n * (d * d + 3 * d + 2 * D + 6) + r * (2 * q * q + q + d)


def _chunk_size(m, n, D, q, r):
    """Problems per chunk: at most ``CHUNK_DOUBLES`` over one problem's
    working set, evened out over the chunks that m problems need.

    The working set counts, in doubles, what stays allocated while a chunk
    steps: the work arrays (:func:`_work_doubles`), the residuals and logit
    maps that :func:`optim.lm_batch` gathers for a step and the J'J it
    keeps, and the problem's patch of r rows and their values.
    """
    d = D - 1
    footprint = _work_doubles(n, D, q, r) + n * (d + D) + (d * q) ** 2 + r * (q + 1)
    chunks = max(1, -(-m // max(1, CHUNK_DOUBLES // footprint)))
    return max(1, -(-m // chunks))


def _for_each_problem(a, shape, what):
    """``a`` broadcast to ``shape``, whose first axis is the m problems."""
    try:
        return np.broadcast_to(a, shape)
    except ValueError:
        raise DimensionMismatch(f"{what} {np.shape(a)} do not fit {shape[0]} problems") from None


def fit_alpha_batch(Y, X, alpha, weights, theta0, opts=None, damping0=None, patches=None):
    """Weighted fits of m problems that share the response ``Y``, at one alpha.

    Problem j minimizes ``sum_i weights[j, i] * ||z(y_i) - z(mu_ji)||^2``: a
    leave-one-out fold is the full data with weight 0 on its row, a local
    fit is the data under its kernel weights, a bootstrap replicate is the
    data with each row weighted by its draw count, and a plain fit
    (:func:`fit_alpha_regression`) is one problem with weights all ones.
    ``X`` is the (n, q) design of every problem; ``weights`` is (m, n),
    finite and nonnegative, and may be a :class:`RowBlocks`.  ``patches``,
    when given, is a pair ``(rows, values)`` of arrays (m, r) and (m, r, q):
    problem j's design is ``X`` with rows ``rows[j]`` replaced by
    ``values[j]``, as a lagged-covariate fold's is (the rows whose lag lost
    the held-out location).  A row may appear twice in one patch only where
    the problem's weight on it is 0, as when a narrower patch is padded with
    its held-out row.  ``theta0`` is one start (P,) for every problem, or
    (m, P).  ``damping0`` (scalar or (m,)), when given, is the damping each
    start's fit ended with: a problem continues from it by the warm rule of
    :mod:`alphareg.optim`, and a nonpositive entry starts cold; ``None``
    starts every problem cold.

    ``Y`` is transformed once, and the normal equations come from the
    Kronecker form ``J'WJ = sum_i w_i (A_i'A_i) kron (x_i x_i')`` with the
    closed-form blocks of :func:`_normal_blocks`, so neither the mean
    Jacobian A nor the (n*d, P) stacked Jacobian is formed; the outer
    products ``x_i x_i'`` of the shared design are formed once, and those of
    the patched rows once per chunk.  Chunks of problems, sized by
    ``CHUNK_DOUBLES``, are solved one after another, each as one
    :func:`optim.lm_batch` stack, and every step of every chunk writes into
    one block of work arrays (:class:`_Work`).

    Returns m outcomes in problem order: the problem's :class:`LmResult`, or
    the :class:`NumericalError` that failed it (:class:`DegenerateWeights`
    when every weight is zero, else the solver's error).
    """
    alpha = _check_alpha(alpha)
    Y = np.asarray(Y, dtype=np.float64)
    return _fit_batch(alpha_transform(Y, alpha), X, alpha, weights, theta0, opts, damping0,
                      patches)


def _fit_batch(y_a, X, alpha, weights, theta0, opts, damping0=None, patches=None):
    """:func:`fit_alpha_batch` on the transformed response ``y_a``; ``damping0``
    (scalar or (m,)) is passed to :func:`optim.lm_batch` as its warm start."""
    opts = opts or LmOptions()
    n, d = y_a.shape
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != n:
        raise DimensionMismatch(f"design {X.shape} does not fit {n} response rows")
    m, q = len(weights), X.shape[1]
    theta0 = np.asarray(theta0, dtype=np.float64)
    if theta0.shape[-1:] != (q * d,):
        raise DimensionMismatch(f"start parameters {theta0.shape} do not fit the design")
    starts = _for_each_problem(theta0, (m, q * d), "start parameters")
    if damping0 is not None:
        damping0 = _for_each_problem(np.asarray(damping0, dtype=np.float64), (m,),
                                     "start dampings")
    r = 0
    if patches is not None:
        rows, values = np.asarray(patches[0]), np.asarray(patches[1], dtype=np.float64)
        if (not np.issubdtype(rows.dtype, np.integer) or rows.ndim != 2 or len(rows) != m
                or values.shape != rows.shape + (q,)):
            raise DimensionMismatch(f"patch rows {rows.shape} and values {values.shape} do "
                                    f"not fit {m} problems of {q} design columns")
        if rows.size and not 0 <= rows.min() <= rows.max() < n:
            raise DimensionMismatch(f"patch rows must lie in [0, {n})")
        patches, r = (rows, values), rows.shape[1]
    H = helmert_submatrix(d + 1)
    outer = _outer_rows(X)
    size = _chunk_size(m, n, d + 1, q, r)
    work = _Work(size, _work_doubles(n, d + 1, q, r))  # for every chunk in turn

    def solve(first):
        block = slice(first, min(first + size, m))
        w = np.asarray(weights[block], dtype=np.float64)
        if w.shape != (block.stop - block.start, n):
            raise DimensionMismatch(f"weights {w.shape} do not fit {n} rows")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise NegativeWeight("observation weights must be finite and nonnegative")
        patch = None
        if patches is not None:
            patch = tuple(a[block] for a in patches)
            # a row patched twice would count twice in the normal equations
            sort = np.sort(patch[0], axis=1)
            j, c = np.nonzero(sort[:, 1:] == sort[:, :-1])
            if np.any(w[j, sort[j, c]]):
                raise InvalidParameters("a row patched twice must have weight 0")
        live = np.flatnonzero(np.max(w, axis=1) > 0)
        if live.size < len(w):
            w = w[live]
            patch = None if patch is None else tuple(a[live] for a in patch)
        outs = [DegenerateWeights(f"every weight of problem {j} is zero")
                for j in range(block.start, block.stop)]
        warm = None if damping0 is None else damping0[block][live]
        solved = lm_batch(*_batch_system(y_a, X, outer, w, alpha, H, work, patch),
                          starts[block][live], opts, warm) if live.size else []
        for j, outcome in zip(live, solved):
            outs[j] = outcome
        return outs

    return [outcome for first in range(0, m, size) for outcome in solve(first)]


def _outer_rows(X, work=_fresh):
    """Row outer products ``x_i x_i'`` flattened to (..., n, q*q), in an
    array of ``work`` (:class:`_Work`)."""
    outer = np.multiply(X[..., :, None], X[..., None, :], out=work("outer", X.shape + X.shape[-1:]))
    return outer.reshape(X.shape[:-1] + (X.shape[-1] ** 2,))


def _batch_system(y_a, X, outer, w, alpha, H, work=None, patches=None):
    """The ``residuals`` and ``normal_equations`` of :func:`optim.lm_batch`
    for weighted fits at one alpha on the shared design ``X`` (n, q), with
    ``outer`` its :func:`_outer_rows`.  ``patches``, rows (k, r) and values
    (k, r, q), replaces rows of each problem's design (:func:`fit_alpha_batch`);
    the outer products of the values are formed once per stack, as are the
    transposes of ``y_a`` and ``X``.  The residuals (k, d, n) carry their
    logit map ``u`` (k, D, n) stacked on the component axis, as one
    (k, d + D, n) array, so the normal equations need not form it again.

    Every (k, ., n) array of a step is written into the stack's work arrays
    (:class:`_Work`), so the residuals returned are overwritten by the next
    call: the caller keeps what it needs (:func:`optim.lm_batch` does)."""
    n, d = y_a.shape
    q = X.shape[-1]
    if work is None:
        r = 0 if patches is None else patches[0].shape[1]
        work = _Work(len(w), _work_doubles(n, d + 1, q, r))
    yT = np.ascontiguousarray(y_a.T)
    XT = np.ascontiguousarray(X.T)
    if patches is not None:
        patch_rows, patch_values = patches
        patch_outer = _outer_rows(patch_values, work)

    def gather(a, rows, name):
        # rows are sorted and unique, so as many rows as problems are all of them
        if len(rows) == len(a):
            return a
        return np.take(a, rows, axis=0,
                       out=work(name + " rows", (len(rows),) + a.shape[1:], a.dtype))

    def patch(rows):  # the patched rows and their values of the problems rows
        return gather(patch_rows, rows, "patch"), gather(patch_values, rows, "values")

    def residuals(theta, rows):
        k = len(rows)
        ru = work("ru", (k, 2 * d + 1, n))
        # theta.reshape(k, d, q) is B' of theta_to_coef; r is formed in the
        # contiguous mean array, where numpy need not buffer, then copied into ru
        r, _ = _transformed_mean(XT, theta.reshape(k, d, q), alpha, H, work, ru[:, d:],
                                 None if patches is None else patch(rows))
        np.subtract(yT, r, out=r)
        # an infinite parameter can leave a clipped mean finite; it fails here
        finite = (np.isfinite(r, out=work("finite", r.shape, bool)).all(axis=(1, 2))
                  & np.all(np.isfinite(theta), axis=1))
        if not finite.all():
            r[~finite] = 0.0
        np.copyto(ru[:, :d], r)
        rr = np.einsum("kdn,kdn->kn", r, r, out=work("rr", (k, n)))
        sse = np.einsum("kn,kn->k", gather(w, rows, "w"), rr)
        return ru, np.where(finite, sse, np.nan)

    def normal_equations(theta, ru, rows):
        r, u = ru[:, :d], ru[:, d:]  # u is finite wherever r is
        k = len(rows)
        AtA, Atr = _normal_blocks(u, r, gather(w, rows, "w"), H, work)
        # J'WJ = sum_i w_i (A_i'A_i) kron x_i x_i', and J'Wr = -sum_i w_i
        # (A_i'r_i) kron x_i, since J = -A kron x
        if patches is None:
            JtJ, g = _kron_rows(AtA, outer), Atr @ X
        else:
            # a patched row's blocks leave the sums over the shared design
            # and come back with the row's own values
            at, values = patch(rows)
            at = at[:, None, :]
            AtA_at, Atr_at = np.take_along_axis(AtA, at, -1), np.take_along_axis(Atr, at, -1)
            np.put_along_axis(AtA, at, 0.0, -1)
            np.put_along_axis(Atr, at, 0.0, -1)
            JtJ = _kron_rows(AtA, outer, (AtA_at, gather(patch_outer, rows, "outer")))
            g = Atr @ X + Atr_at @ values
        return JtJ, -g.reshape(k, d * q), np.ones(k, dtype=bool)

    return residuals, normal_equations


def predict(X_new, fit):
    """Mean compositions at new covariate rows."""
    return fitted_mean(X_new, fit.coefficients)
