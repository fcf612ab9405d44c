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

The same identity collapses the derivatives.  The solver works in the
centred frame of D-vectors that sum to zero, where the transformed mean is
``(D u - 1) / alpha`` with ``u = fitted_mean(X, alpha*B)`` and the response
is ``alpha_transform(Y, alpha) @ H``.  The Helmert rows are an orthonormal
basis of that frame, ``H'H = I - 11'/D``, so sums of squares, ``J'J`` and
``J'r`` equal their ilr values, and ``H`` is applied only to the response
and to ilr output.  The Jacobian of the centred mean in the linear
predictors is ``A_i = D (E - u_i 1') diag(u_i[1:])``, E the last d columns
of the identity: the ``1/alpha`` of the transform cancels against the chain
rule through ``alpha * eta``, no power of ``mu`` is ever formed, and
``alpha == 0`` (uniform ``u``) needs no special case.  :func:`_normal_blocks`
turns u and the residuals into the closed-form blocks ``w_i A_i'A_i`` and
``w_i A_i'r_i``, and every derivative is assembled from them through
``kron x_i``: the normal equations ``J'WJ`` and ``J'Wr`` of
:func:`fit_alpha_batch`, the gradient and both Hessians of ``l = -SSE/2``,
and the sandwich covariance of :mod:`alphareg.inference`.  Only
:func:`residual_system`, the tests' reference, forms the explicit ilr
Jacobian and the stacked (n*d, P) Jacobian.  Every public function checks
a design, and the coefficients and response that come with it, by one
rule, :func:`_check_problem`: their shapes, then their values.

Parameter layout: ``theta = B.ravel(order="F")`` stacks coefficient columns
component by component, so ``theta[k*(p+1) + a]`` is covariate ``a`` of
non-reference component ``k+2``.  Its reshape to (d, p+1) is ``B'``, so the
linear predictors of a stack of k fits are ``theta.reshape(k, d, p+1) @ X'``.
No other module writes this layout out: :func:`theta_to_coef` and
:func:`coef_to_theta` convert stacks ``(..., (p+1)*d) <-> (..., p+1, d)``.

Array layout: the whole chain, from linear predictors through the logit map,
centred mean and residuals to the blocks of :func:`_normal_blocks`, is
component-major, and problem-inner.  Every per-observation quantity of a
stack of k fits is a (component, k, n) array, one-off calls drop the k
axis, and the public functions transpose only the arrays they take and
return, which are (n, component).  So each elementwise numpy call runs over
contiguous rows of k*n values, and a sum over components adds whole rows
(``np.sum`` over axis 0 for the denominator of the logit map, ``einsum`` for
the products ``r'r``, ``u'u`` and ``u'r``, which forms no array of the
products).  Every product that sums over a problem's own observations or
coefficients stays one matrix product per problem, over a strided (k, ., n)
view: the linear predictors ``B' x_i``, the Kronecker sums ``C @ x x'`` and
the gradient ``A'r @ X``.  So a problem's arithmetic, and its result bit for
bit, does not depend on the other problems of its stack.

Patched designs: a set of fits whose designs differ from one shared (n, q)
design in a few rows each, such as the leave-one-out folds of the
lagged-covariate model, passes that design once with per-problem row
patches ``(rows (m, r), values (m, r, q))`` (:func:`fit_alpha_batch`).  A
step forms the linear predictors from the shared design and overwrites the
r patched observations of each problem with ``B' values'``.  The normal
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
from .simplex import alpha_transform, helmert_submatrix, _check_alpha, _check_finite

LINPRED_CLAMP = 700.0
# doubles in the working set of one chunk of fits (_chunk_size), and about
# the size of a set of fits' block of work arrays (_Work): 4 MiB less one
# 4 KiB page, since numpy asks the kernel for huge pages for an array of
# 4 MiB or more, which would make a block resident in 2 MiB steps
CHUNK_DOUBLES = (1 << 19) - 512


@dataclass
class FitResult:
    """Converged fit of the compositional regression at a fixed alpha."""

    coefficients: np.ndarray  # (p+1) x d
    fitted: np.ndarray  # n x D compositions
    sse: float
    kld: float
    alpha: float
    lm: LmResult


def _check_problem(X, B=None, Y=None):
    """The one rule of a regression problem's arrays, returned as float arrays
    ``(X, B, Y)``: a 2-D design X (n, q) and, if given, coefficients B (q, d)
    and a response Y (n, d+1), else :class:`DimensionMismatch` names the
    shapes; then every entry finite, else :class:`NonNumericCell` names the
    array ("design", "coefficients" or "response"), the row and the column."""
    X, B, Y = (None if a is None else np.asarray(a, dtype=np.float64) for a in (X, B, Y))
    if X.ndim != 2:
        raise DimensionMismatch(f"design {X.shape} is not 2-D")
    if B is not None and (B.ndim != 2 or len(B) != X.shape[1]):
        raise DimensionMismatch(f"coefficients {B.shape} are not 2-D with one row per "
                                f"column of design {X.shape}")
    if Y is not None and (Y.ndim != 2 or len(Y) != len(X)):
        raise DimensionMismatch(f"response {Y.shape} is not 2-D with one row per row of "
                                f"design {X.shape}")
    if Y is not None and B is not None and Y.shape[1] != B.shape[1] + 1:
        raise DimensionMismatch(f"response {Y.shape} does not have one component more than "
                                f"coefficients {B.shape} have columns")
    for name, a in (("design", X), ("coefficients", B), ("response", Y)):
        if a is not None:
            _check_finite(name, a)
    return X, B, Y


def theta_to_coef(theta, n_cols, d):
    """Coefficient matrices (..., n_cols, d), views of vectors (..., n_cols*d)."""
    theta = np.asarray(theta, dtype=np.float64)
    return theta.reshape(theta.shape[:-1] + (d, n_cols)).swapaxes(-1, -2)


def coef_to_theta(B):
    """Parameter vectors (..., q*d) of coefficient matrices (..., q, d)."""
    B = np.asarray(B, dtype=np.float64)
    return B.swapaxes(-1, -2).reshape(B.shape[:-2] + (B.shape[-2] * B.shape[-1],))


def _logit_map(X, B):
    """:func:`fitted_mean` without the shape checks, component-major: the
    logit map (D, n) of a design X (n, q) and coefficients B (q, d)."""
    return _inverse_logit(B.T @ X.T)


def _fresh(name, shape, dtype=np.float64, axis=-2):
    """The work allocator of one-off calls: a new array every time."""
    return np.empty(shape, dtype)


class _Work:
    """Work arrays kept by name over the LM steps of a batch of fits.

    ``work(name, shape)`` returns the first ``prod(shape)`` values of the
    region kept under ``name``, reshaped to ``shape``, whose axis ``axis``
    counts the problems: -2 for the (component, k, n) arrays of a step, 0
    for the (k, row, column) arrays of a patch.  So an array for fewer
    problems than ``capacity`` is as contiguous as one for all of them.  On
    first use the region is cut, with room for ``capacity`` problems, from
    one block of ``doubles`` doubles per problem, so every step of every
    chunk writes into the regions of the first.  A boolean region, or one
    the block has no room left for, is allocated apart.  Two calls for one
    name share storage, so a caller must not hold one across the other.
    Functions that take ``work`` default to :func:`_fresh`.

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
        self.arrays = {}  # name -> flat region

    def __call__(self, name, shape, dtype=np.float64, axis=-2):
        size = math.prod(shape)
        region = self.arrays.get(name)
        if region is None:
            room = self.capacity * (size // shape[axis])
            if dtype == np.float64 and self.used + room <= self.block.size:
                region = self.block[self.used:self.used + room]
                self.used += room
            else:
                region = np.empty(room, dtype)
            self.arrays[name] = region
        return region[:size].reshape(shape)


def _inverse_logit(eta, work=_fresh, out=None):
    """Compositions (D, ..., n) from linear predictors (d, ..., n), one row
    per component; row 0 is the reference.  ``eta`` is overwritten; the
    result goes to ``out`` if given."""
    e = np.exp(np.clip(eta, -LINPRED_CLAMP, LINPRED_CLAMP, out=eta), out=eta)
    denom = np.sum(e, axis=0, out=work("denom", e.shape[1:]))
    denom += 1.0
    u = work("u", (len(e) + 1,) + e.shape[1:]) if out is None else out
    np.divide(1.0, denom, out=u[0])
    np.divide(e, denom, out=u[1:])
    return u


def fitted_mean(X, B):
    """Multinomial-logit mean compositions, one row per observation.

    Linear predictors are clamped to +-700 before exponentiation so the map
    never overflows; rows sum to 1 with all entries in (0, 1).
    """
    X, B, _ = _check_problem(X, B)
    return np.ascontiguousarray(_logit_map(X, B).T)


def _transformed_mean(XT, BT, alpha, work=_fresh, out=None, patch=None):
    """:func:`transformed_mean` in the centred frame, component-major, for
    checked inputs, of the linear predictors ``eta = BT @ XT`` with
    coefficient rows BT (..., d, q) and the design's columns XT (q, n).
    ``patch``, the positions (k, r) of rows in the (k*n) observations of k
    problems and their design rows (k, r, q), replaces those columns of XT
    for each of k coefficient rows BT (k, d, q).

    Returns the centred mean ``(D u - 1) / alpha`` (D, ..., n) and the logit
    map ``u`` of ``alpha * eta`` (D, ..., n), uniform at alpha 0, as the rows
    of ``out`` (2D, ..., n) if given; ``work`` allocates the rest
    (:class:`_Work`).
    """
    D = BT.shape[-2] + 1
    shape = BT.shape[:-2] + XT.shape[-1:]
    if out is None:
        out = work("mean", (2 * D,) + shape)
    mean, u = out[:D], out[D:]
    eta = mean[1:]  # until the mean is formed
    # a huge or infinite parameter is clipped below, or fails as a non-finite
    # residual, so its overflow and inf * 0 are not errors here
    with np.errstate(over="ignore", invalid="ignore"):
        aBT = BT if alpha == 0.0 else alpha * BT
        # one product per problem, as a one-problem call forms it
        np.matmul(aBT, XT, out=eta.swapaxes(0, -2))
        if patch is not None:
            cols, values = patch
            eta_rows = work("eta rows", (D - 1,) + cols.shape)
            np.matmul(aBT, np.swapaxes(values, 1, 2), out=eta_rows.swapaxes(0, 1))
            eta.reshape(D - 1, -1)[:, cols] = eta_rows
    if alpha == 0.0:  # the mean is (0, eta) less its mean over components
        np.clip(eta, -LINPRED_CLAMP, LINPRED_CLAMP, out=eta)
        u[...] = 1.0 / D
        mean[0] = 0.0
        centre = np.sum(mean, axis=0, out=work("denom", shape))
        mean -= np.divide(centre, D, out=centre)
        return mean, u
    _inverse_logit(eta, work, u)
    np.multiply(u, D, out=mean)
    mean -= 1.0
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
    X, B, _ = _check_problem(X, B)
    mean, _ = _transformed_mean(X.T, B.T, alpha)
    return mean.T @ helmert_submatrix(len(mean)).T


def _centred_response(Y, alpha):
    """The transformed response (n, D) in the centred frame of the solver."""
    return alpha_transform(Y, alpha) @ helmert_submatrix(Y.shape[-1])


def sse(Y, X, alpha, B):
    """Sum of squared residuals between transformed data and fitted means."""
    X, B, Y = _check_problem(X, B, Y)
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
    """Cell terms ``y log(y/mu)`` of :func:`kld` (0 where y is 0), checked:
    one shape (:class:`ShapeMismatch`), finite entries (:class:`NonNumericCell`)
    and positive fitted ones (:class:`NonpositiveFitted`)."""
    if obs.shape != fit.shape:
        raise ShapeMismatch(f"observed {obs.shape} vs fitted {fit.shape}")
    _check_finite("observed compositions", obs)
    _check_finite("fitted compositions", fit)
    if np.any(fit <= 0):
        raise NonpositiveFitted("fitted compositions must be strictly positive")
    mask = obs > 0
    terms = np.zeros_like(obs)
    terms[mask] = obs[mask] * np.log(obs[mask] / fit[mask])
    return terms


# -- derivative chain ---------------------------------------------------------

def _contract_residuals(u, r, work=_fresh):
    """``g_i = r_i[1:] - u_i'r_i`` as (d, ..., n), for logit maps u and
    centred residuals r (D, ..., n): the residuals contracted with
    ``E - u_i 1'``, of which ``A_i = D (E - u_i 1') diag(v_i)``."""
    ur = np.einsum("i...,i...->...", u, r, out=work("ur", r.shape[1:]))
    return np.subtract(r[1:], ur, out=work("g", r[1:].shape))


def _normal_blocks(u, r, w, work=_fresh):
    """``w_i A_i'A_i`` as (d, d, ..., n) and ``w_i A_i'r_i`` as (d, ..., n)
    for logit maps u (D, ..., n), centred residuals r (D, ..., n) and
    weights w (..., n), in arrays of ``work`` (:class:`_Work`).

    ``A_i`` is the Jacobian of observation i's centred mean in its linear
    predictors, ``D (E - u_i 1') diag(v_i)`` with ``v_i = u_i[1:]`` and E
    the last d columns of the identity.  ``1'(E - u_i 1') = 0``, so

        A_i'A_i = D^2 v_a v_b (delta_ab - v_a - v_b + u_i'u_i)
        A_i'r_i = D v_i * g_i   (g of :func:`_contract_residuals`)
    """
    D = len(u)
    d = D - 1
    v = u[1:]
    uu = np.einsum("i...,i...->...", u, u, out=work("uu", u.shape[1:]))
    C = work("C", (d, d) + u.shape[1:])
    # u'u - v_a once, not for every b, in the array g of _contract_residuals
    np.copyto(C, np.subtract(uu, v, out=work("g", v.shape))[:, None])
    C -= v
    C.reshape(d * d, -1)[::d + 1] += 1.0  # a == b
    C *= v[:, None]
    C *= v
    wD = np.multiply(w, D * D, out=work("wD", w.shape))
    C *= wD
    Atr = _contract_residuals(u, r, work)
    Atr *= v
    Atr *= np.multiply(w, D, out=wD)
    return C, Atr


def _kron_rows(C, outer, work=_fresh, name="S"):
    """``sum_i C_i kron x_i x_i'`` in the theta layout, a (..., d, q, d, q)
    view, for blocks C (d, d, ..., n) and row outer products (..., n, q*q).
    Each problem's sum is one matrix product of its (d*d, n) rows of C, a
    strided view, so it does not depend on the other problems; the products
    go to the array ``name`` of ``work`` (:class:`_Work`)."""
    d, q = len(C), math.isqrt(outer.shape[-1])
    rows = C.reshape((d * d,) + C.shape[2:])
    S = work(name, rows.shape[:-1] + outer.shape[-1:])
    np.matmul(rows.swapaxes(0, -2), outer, out=S.swapaxes(0, -2))
    S = S.reshape((d, d) + S.shape[1:-1] + (q, q))
    return S.transpose(*range(2, S.ndim - 2), 0, -2, 1, -1)


def _kron_matrix(C, X):
    """:func:`_kron_rows` of one problem with design X (n, q), as (d*q, d*q)."""
    P = len(C) * X.shape[1]
    return _kron_rows(C, _outer_rows(X)).reshape(P, P)


def _derivatives(Y, X, alpha, B):
    """Checked ``X``, the logit map u (D, n), centred residuals r (D, n) and
    the :func:`_normal_blocks` of one unweighted problem at B."""
    alpha = _check_alpha(alpha)
    X, B, Y = _check_problem(X, B, Y)
    mean, u = _transformed_mean(X.T, B.T, alpha)
    r = np.subtract(_centred_response(Y, alpha).T, mean, out=mean)
    return (X, u, r) + _normal_blocks(u, r, np.ones(len(X)))


def gradient(Y, X, alpha, B):
    """Gradient of ``l = -SSE/2`` with respect to ``theta = vec(B)``: the sum
    of the per-observation scores ``(A_i'r_i) kron x_i`` with the residuals
    ``r = z(y) - z(mu)`` (blocks of :func:`_normal_blocks`).
    """
    X, _, _, _, Atr = _derivatives(Y, X, alpha, B)
    return (Atr @ X).ravel()


def hessian_gauss_newton(Y, X, alpha, B):
    """First-order (Gauss-Newton) block of the Hessian of ``l = -SSE/2``.

    ``-J'J = -sum_i (A_i'A_i) kron x_i x_i'`` for the stacked residual
    Jacobian J of :func:`residual_system`; symmetric and negative
    semi-definite by construction.
    """
    X, _, _, AtA, _ = _derivatives(Y, X, alpha, B)
    return -_kron_matrix(AtA, X)


def hessian_exact(Y, X, alpha, B):
    """Exact Hessian of ``l = -SSE/2``: Gauss-Newton block plus the
    residual-weighted second-derivative correction.

    The second derivative of the centred mean is
    ``D * alpha * logit_hessian(u)`` with ``u = fitted_mean(X, alpha*B)``;
    contracted with the residuals it is, per row, with ``v = u[1:]`` and g
    of :func:`_contract_residuals`,

        W[k, j] = D * alpha * (delta_kj v_k g_k - v_k v_j (g_k + g_j))

    and the Hessian is ``sum_i (W_i - A_i'A_i) kron x_i x_i'``.  W vanishes
    at ``alpha == 0`` (the mean is linear in B there) and when the
    residuals are identically zero.
    """
    X, u, r, AtA, _ = _derivatives(Y, X, alpha, B)
    D = len(u)
    v = u[1:]
    g = _contract_residuals(u, r)
    W = -v[:, None] * v[None] * (g[:, None] + g[None])
    W[np.arange(D - 1), np.arange(D - 1)] += v * g
    W *= D * float(alpha)
    return _kron_matrix(W - AtA, X)


# -- fitting ------------------------------------------------------------------

def residual_system(Y, X, alpha, weights=None):
    """Stacked residual system for the solver.

    Residual row order is observation-major: entry ``i*d + m`` is component
    score ``m`` of observation ``i``.  Per-observation weights (length n)
    are expanded to all d component residuals of that observation.
    """
    alpha = _check_alpha(alpha)
    X, _, Y = _check_problem(X, Y=Y)
    n, D = Y.shape
    d = D - 1
    n_cols = X.shape[1]
    H = helmert_submatrix(D)
    y_a = alpha_transform(Y, alpha)
    neg_X = -X  # residuals are y_a minus the mean, so J = -dmean/dtheta

    def res(theta):
        B = theta_to_coef(theta, n_cols, d)
        return (y_a - _transformed_mean(X.T, B.T, alpha)[0].T @ H.T).ravel()

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
    X, _, Y = _check_problem(X, Y=Y)
    (n, D), q = Y.shape, X.shape[1]
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    y_c = _centred_response(Y, alpha)
    lm, = _fit_batch(y_c, X, alpha, w[None],
                     np.zeros(q * (D - 1)) if theta0 is None else theta0, opts,
                     damping0)
    if isinstance(lm, Exception):
        raise lm
    B = theta_to_coef(lm.theta, q, D - 1)
    mu = fitted_mean(X, B)
    r = y_c - _transformed_mean(X.T, B.T, alpha)[0].T
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
    :func:`_batch_system`.  For each of the n observations: the D centred
    residuals and D entries of the logit map of a ``residuals`` call, and
    again as gathered for ``normal_equations``; the d*d block ``C`` and the
    d entries of ``g`` of :func:`_normal_blocks`; and 6 single values (the
    denominator of the logit map, the weight gathered for a step, ``w D^2``,
    and the sums ``r'r``, ``u'u`` and ``u'r``).  The (d*q)^2 sums ``S`` of
    :func:`_kron_rows`, and with a patch those of its rows apart.  For each
    of the r rows of a patch, gathered for a step: its outer product, its
    values, its d linear predictors and its d*d + d blocks."""
    d = D - 1
    return (n * (d * d + d + 4 * D + 6) + (d * q) ** 2 * (2 if r else 1)
            + r * (q * q + q + d * d + 2 * d))


def _chunk_size(m, n, D, q, r):
    """Problems per chunk: at most ``CHUNK_DOUBLES`` over one problem's
    working set, evened out over the chunks that m problems need.

    The working set counts, in doubles, what stays allocated while a chunk
    steps: the work arrays (:func:`_work_doubles`), the J'J that
    :func:`optim.lm_batch` keeps, into which ``normal_equations`` writes
    the theta layout straight from ``S``, and the problem's patch of r rows
    and their values.
    """
    d = D - 1
    footprint = _work_doubles(n, D, q, r) + (d * q) ** 2 + r * (q + 1)
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
    its held-out row.  ``Y``, ``X`` and the patch values are checked by
    the rule of :func:`_check_problem`.  ``theta0`` is one start (P,) for
    every problem, or (m, P).  ``damping0`` (scalar or (m,)), when given, is
    the damping each start's fit ended with: a problem continues from it by
    the warm rule of :mod:`alphareg.optim`, and a nonpositive entry starts
    cold; ``None`` starts every problem cold.

    ``Y`` is transformed once, and the normal equations come from the
    Kronecker form ``J'WJ = sum_i w_i (A_i'A_i) kron (x_i x_i')`` with the
    closed-form blocks of :func:`_normal_blocks`, so neither the mean
    Jacobian A nor the (n*d, P) stacked Jacobian is formed; the outer
    products ``x_i x_i'`` of the shared design are formed once, and those of
    the patched rows with each step's normal equations.  Chunks of problems, sized by
    ``CHUNK_DOUBLES``, are solved one after another, each as one
    :func:`optim.lm_batch` stack, and every step of every chunk writes into
    one block of work arrays (:class:`_Work`).

    Returns m outcomes in problem order: the problem's :class:`LmResult`, or
    the :class:`NumericalError` that failed it (:class:`DegenerateWeights`
    when every weight is zero, or there are no rows, else the solver's error).
    """
    alpha = _check_alpha(alpha)
    X, _, Y = _check_problem(X, Y=Y)
    return _fit_batch(_centred_response(Y, alpha), X, alpha, weights, theta0, opts, damping0,
                      patches)


def _fit_batch(y_c, X, alpha, weights, theta0, opts, damping0=None, patches=None):
    """:func:`fit_alpha_batch` on the centred response ``y_c`` and a checked X;
    ``damping0`` (scalar or (m,)) is :func:`optim.lm_batch`'s warm start."""
    opts = opts or LmOptions()
    n, d = len(y_c), y_c.shape[1] - 1
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
        _check_finite("patch values", values)
        r = rows.shape[1]
        patches = (rows, values) if r else None  # an empty patch is the shared design
    if m == 0:
        return []
    outer = _outer_rows(X)
    size = _chunk_size(m, n, d + 1, q, r)
    # for every chunk in turn; padding the block up to within one problem of
    # CHUNK_DOUBLES makes the blocks of successive sets of fits about one
    # size, so each fits where the last was freed rather than the heap
    # growing by a block a little larger than the last; only the pages a set
    # writes are resident.  Where one problem alone needs more, the regions
    # the block has no room for are allocated apart, so no block reaches the
    # size numpy backs with huge pages
    work = _Work(size, CHUNK_DOUBLES // size)

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
        live = np.flatnonzero(np.max(w, axis=1, initial=0.0) > 0)  # no rows: no weight
        if live.size < len(w):
            w = w[live]
            patch = None if patch is None else tuple(a[live] for a in patch)
        outs = [DegenerateWeights(f"problem {j} has no row of nonzero weight")
                for j in range(block.start, block.stop)]
        warm = None if damping0 is None else damping0[block][live]
        solved = lm_batch(*_batch_system(y_c, X, outer, w, alpha, work, patch),
                          starts[block][live], opts, warm) if live.size else []
        for j, outcome in zip(live, solved):
            outs[j] = outcome
        return outs

    return [outcome for first in range(0, m, size) for outcome in solve(first)]


def _outer_rows(X, work=_fresh):
    """Row outer products ``x_i x_i'`` flattened to (..., n, q*q), in an
    array of ``work`` (:class:`_Work`) whose first axis counts problems."""
    outer = np.multiply(X[..., :, None], X[..., None, :],
                        out=work("outer", X.shape + X.shape[-1:], axis=0))
    return outer.reshape(X.shape[:-1] + (X.shape[-1] ** 2,))


def _batch_system(y_c, X, outer, w, alpha, work=_fresh, patches=None):
    """The ``residuals`` and ``normal_equations`` of :func:`optim.lm_batch`
    for weighted fits at one alpha on the shared design ``X`` (n, q), with
    ``outer`` its :func:`_outer_rows`.  ``patches``, rows (k, r) and values
    (k, r, q), replaces rows of each problem's design (:func:`fit_alpha_batch`);
    the outer products of a step's patched rows are formed with its normal
    equations.  ``residuals`` returns, besides the SSEs, the residuals
    (D, k, n) of the centred response ``y_c`` (n, D) with their logit map
    ``u`` (D, k, n) under them, one (2D, k, n) array, which it keeps for
    ``normal_equations`` to gather from, so u is not formed again.

    Every (., k, n) array of a step is written into the stack's work arrays
    (:class:`_Work`), so the residuals returned are overwritten by the next
    call.  ``normal_equations`` writes J'J and J'r into the rows of the
    caller's stacks."""
    n, D = y_c.shape
    d, q = D - 1, X.shape[-1]
    yT = np.ascontiguousarray(y_c.T)[:, None]
    XT = np.ascontiguousarray(X.T)
    ru = None  # the residuals and logit maps of the last residuals call

    def gather(a, rows, name):
        # rows are sorted and unique, so as many rows as problems are all of them
        if len(rows) == len(a):
            return a
        return np.take(a, rows, axis=0, mode="clip",
                       out=work(name + " rows", (len(rows),) + a.shape[1:], a.dtype, axis=0))

    def patch(rows):
        # the positions of the patched rows in the (k*n) observations of the
        # problems rows, and their values
        cols = patches[0][rows] + n * np.arange(len(rows))[:, None]
        return cols, gather(patches[1], rows, "values")

    def residuals(theta, rows):
        nonlocal ru
        k = len(rows)
        ru = work("ru", (2 * D, k, n))
        # theta.reshape(k, d, q) is B' of theta_to_coef
        r, _ = _transformed_mean(XT, theta.reshape(k, d, q), alpha, work, ru,
                                 None if patches is None else patch(rows))
        np.subtract(yT, r, out=r)
        # an infinite parameter can leave a clipped mean finite; it fails here
        finite = (np.isfinite(r, out=work("finite", r.shape, bool)).all(axis=(0, 2))
                  & np.all(np.isfinite(theta), axis=1))
        if not finite.all():
            r[:, ~finite] = 0.0
        rr = np.einsum("i...,i...->...", r, r, out=work("rr", (k, n)))
        sse = np.einsum("kn,kn->k", gather(w, rows, "w"), rr)
        return ru, np.where(finite, sse, np.nan)

    def normal_equations(theta, at, rows, JtJ, g):
        k = len(rows)
        # as many positions as problems in the last call are all of them
        ru_at = ru if k == ru.shape[1] else np.take(
            ru, at, axis=1, mode="clip", out=work("ru rows", (2 * D, k, n)))
        r, u = ru_at[:D], ru_at[D:]  # u is finite wherever r is
        C, Atr = _normal_blocks(u, r, gather(w, rows, "w"), work)
        # J'WJ = sum_i w_i (A_i'A_i) kron x_i x_i', and J'Wr = -sum_i w_i
        # (A_i'r_i) kron x_i, since J = -A kron x
        if patches is not None:
            # a patched row's blocks leave the sums over the shared design
            # and come back with the row's own values
            cols, values = patch(rows)
            C_flat, Atr_flat = C.reshape(d, d, -1), Atr.reshape(d, -1)
            C_at = np.take(C_flat, cols, axis=-1, mode="clip",
                           out=work("C rows", (d, d) + cols.shape))
            Atr_at = np.take(Atr_flat, cols, axis=-1, mode="clip",
                             out=work("Atr rows", (d,) + cols.shape))
            C_flat[..., cols] = Atr_flat[..., cols] = 0.0
        JtJ_rows = _kron_rows(C, outer, work)
        gX = Atr.swapaxes(0, 1) @ X
        if patches is not None:
            JtJ_rows += _kron_rows(C_at, _outer_rows(values, work), work, "S rows")
            gX += Atr_at.swapaxes(0, 1) @ values
        JtJ.reshape(len(JtJ), d, q, d, q)[rows] = JtJ_rows
        g.reshape(len(g), d, q)[rows] = np.negative(gX, out=gX)
        return np.ones(k, dtype=bool)

    return residuals, normal_equations


def predict(X_new, fit):
    """Mean compositions at new covariate rows."""
    return fitted_mean(X_new, fit.coefficients)
