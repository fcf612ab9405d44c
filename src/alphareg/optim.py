"""Self-contained Levenberg-Marquardt solver for stacked residual systems.

The solver minimizes ``sum_k w_k * r_k(theta)**2`` given callables for the
residual vector and its Jacobian.  Damping uses Marquardt scaling,

    (J'WJ + lam * diag(J'WJ)) delta = J'W r,      theta <- theta - delta,

with ``lam`` decreased after an accepted step and increased after a
rejection.  The normal equations are solved by Cholesky factorization with a
pseudo-inverse fallback when the damped matrix is not positive definite.

The starting damping follows one of two rules.  The cold rule starts at
``lam0 = initial_damping_scale * max diag(J'J)`` at the start point.  The
warm rule serves a start that continues a converged fit, such as a bootstrap
replicate started from the full-data fit: it starts at ``min(lam0, lam_end)``
with ``lam_end`` the damping that fit ended with (:attr:`LmResult.damping`),
so the first steps near the optimum are not heavily damped (Madsen, Nielsen
& Tingleff 2004, *Methods for Non-Linear Least Squares Problems*, 3.2).  A
``lam_end`` that is not positive, as left by a fit that met ``grad_inf_tol``
before its first step, falls back to ``lam0``: a rejected step at damping 0
would retry at 0 forever.

There is one loop, :func:`lm_batch`, over a leading problem axis: a stack of
m independent problems, each with its own damping, acceptance test,
stopping reason, iteration and rejection counts.  A problem whose residuals
or Jacobian turn non-finite, or whose damped equations cannot be solved, is
marked failed with that exception and the others go on.
Every fit of the package (``regression.fit_alpha_batch``) hands that loop
its normal equations in closed form.  :func:`levenberg_marquardt` is the
one-problem call of the same loop on a generic :class:`ResidualSystem`,
which forms ``J'J`` from the stacked Jacobian; it serves as the reference
for the closed forms and the damping schedule.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .exceptions import NegativeWeight, NonFiniteResidual, SingularNormalEquations

MAX_DAMPING = 1e12
TINY = np.finfo(float).tiny


class Convergence(Enum):
    SSE_TOL = "sse_tol"
    GRAD_TOL = "grad_tol"
    MAX_ITER = "max_iter"
    STALLED = "stalled"  # no step lowers the SSE, even at MAX_DAMPING


@dataclass
class ResidualSystem:
    """A stacked nonlinear least-squares problem.

    ``residual_fn(theta)`` returns the length-N residual vector and
    ``jacobian_fn(theta)`` its N x P Jacobian.  ``weights`` (optional,
    nonnegative, length N) turn the objective into a weighted sum of squares.
    """

    residual_fn: Callable[[np.ndarray], np.ndarray]
    jacobian_fn: Callable[[np.ndarray], np.ndarray]
    n_params: int
    n_residuals: int
    weights: Optional[np.ndarray] = None


@dataclass
class LmOptions:
    max_iterations: int = 200
    sse_rel_tol: float = 1e-10
    grad_inf_tol: float = 1e-8
    initial_damping_scale: float = 1e-3
    damping_increase: float = 2.0
    damping_decrease: float = 1.0 / 3.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("sse_rel_tol", "grad_inf_tol", "initial_damping_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.damping_increase <= 1 or not 0 < self.damping_decrease < 1:
            raise ValueError("damping factors must satisfy inc > 1, 0 < dec < 1")


@dataclass
class LmResult:
    theta: np.ndarray
    final_sse: float
    iterations: int
    converged_by: Convergence
    trace: list = field(default_factory=list)  # (sse, damping) per accepted step
    rejections: int = 0
    damping: float = 0.0  # the damping a further step would use; 0 if none was set


def apply_weights(system):
    """Fold nonnegative per-residual weights into an unweighted system.

    Residuals are scaled by ``sqrt(w_k)`` and Jacobian rows likewise, so an
    unweighted solver on the result minimizes ``sum w_k r_k**2`` exactly.
    """
    if system.weights is None:
        return system
    w = np.asarray(system.weights, dtype=np.float64)
    if np.any(w < 0):
        raise NegativeWeight("residual weights must be nonnegative")
    sw = np.sqrt(w)
    res, jac = system.residual_fn, system.jacobian_fn
    return ResidualSystem(
        residual_fn=lambda theta: sw * res(theta),
        jacobian_fn=lambda theta: sw[:, None] * jac(theta),
        n_params=system.n_params,
        n_residuals=system.n_residuals,
        weights=None,
    )


def _next_damping(lam, accepted, opts):
    """Damping schedule: shrink after acceptance, grow after rejection."""
    return lam * (opts.damping_decrease if accepted else opts.damping_increase)


def _solve_damped(JtJ, g, lam):
    """Solve (JtJ + lam*diag(JtJ)) delta = g for every problem of a stack.

    ``JtJ`` is (m, P, P), ``g`` (m, P) and ``lam`` (m,).  A problem whose
    damped matrix cannot be factorized, even by pseudo-inverse, gets a NaN
    row.
    """
    on_diag = (slice(None),) + np.diag_indices(JtJ.shape[1])
    diag = JtJ[on_diag]
    diag[diag <= 0] = TINY
    M = JtJ.copy()
    M[on_diag] += lam[:, None] * diag
    try:
        L = np.linalg.cholesky(M)
        z = np.linalg.solve(L, g[:, :, None])
        return np.linalg.solve(np.swapaxes(L, 1, 2), z)[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    if len(M) > 1:  # factorize the problems one at a time
        return np.concatenate([_solve_damped(JtJ[j : j + 1], g[j : j + 1], lam[j : j + 1])
                               for j in range(len(M))])
    try:
        return (np.linalg.pinv(M[0]) @ g[0])[None]
    except np.linalg.LinAlgError:
        return np.full_like(g, np.nan)


def _initial_damping(JtJ, inherited, opts):
    """Starting damping of each problem from its first ``J'J`` (k, P, P).

    Cold: ``initial_damping_scale * max diag(J'J)``.  A warm start that
    inherits a positive damping (k,) from the fit it continues starts at the
    smaller of the two; a nonpositive or NaN one falls back to cold.
    """
    peak = np.diagonal(JtJ, axis1=1, axis2=2).max(axis=1, initial=0.0)
    cold = opts.initial_damping_scale * np.maximum(peak, TINY)
    if inherited is None:
        return cold
    return np.where(inherited > 0, np.minimum(cold, inherited), cold)


def lm_batch(residuals, normal_equations, theta0, opts=None, damping0=None):
    """Minimize m independent (weighted) sums of squares from ``theta0`` (m, P).

    ``residuals(theta, rows)`` evaluates problems ``rows`` at the parameter
    rows ``theta`` and returns their residuals, stacked on a leading axis,
    and their SSEs, NaN where a residual is non-finite.
    ``normal_equations(theta, r, rows)`` returns, for the same problems at
    their residuals ``r``, the stacks ``J'J`` (k, P, P) and ``J'r`` (k, P)
    and whether each Jacobian is finite.

    Every problem runs the schedule of :func:`levenberg_marquardt` with its
    own damping, acceptance test, stopping reason and counts; the stack only
    shares the numpy calls.  Returns one outcome per problem, in order: its
    :class:`LmResult`, or the :class:`NonFiniteResidual` or
    :class:`SingularNormalEquations` that failed it.

    ``damping0`` (m,), when given, is the damping each problem's start fit
    ended with (:attr:`LmResult.damping`), and sets its starting damping by
    the warm rule of :func:`_initial_damping`; ``None`` keeps the cold rule.
    """
    opts = opts or LmOptions()
    theta = np.array(theta0, dtype=np.float64)
    m = theta.shape[0]
    r, sse = residuals(theta, np.arange(m))
    out = [None] * m
    for j in np.flatnonzero(np.isnan(sse)):
        out[j] = NonFiniteResidual(f"residual is non-finite at theta={theta[j]!r}")
    lam = np.zeros(m)
    iterations = np.zeros(m, dtype=int)
    rejections = np.zeros(m, dtype=int)
    converged_by = [Convergence.MAX_ITER] * m
    traces = [[] for _ in range(m)]
    active = np.flatnonzero(~np.isnan(sse))

    for it in range(1, opts.max_iterations + 1):
        if active.size == 0:
            break
        iterations[active] = it
        JtJ, g, finite = normal_equations(theta[active], r[active], active)
        for j in active[~finite]:
            out[j] = NonFiniteResidual(f"Jacobian is non-finite at theta={theta[j]!r}")
        small = finite & (np.abs(g).max(axis=1, initial=0.0) <= opts.grad_inf_tol)
        for j in active[small]:
            converged_by[j] = Convergence.GRAD_TOL
            iterations[j] = it - 1
        going = finite & ~small
        rows, JtJ, g = active[going], JtJ[going], g[going]
        if it == 1:
            lam[rows] = _initial_damping(
                JtJ, None if damping0 is None else damping0[rows], opts)
        carry_on = np.zeros(m, dtype=bool)  # accepted a step short of convergence

        pending = np.arange(rows.size)  # positions in rows
        while pending.size:
            now = rows[pending]
            delta = _solve_damped(JtJ[pending], g[pending], lam[now])
            solved = np.isfinite(delta).all(axis=1)
            capped = lam[now] >= MAX_DAMPING
            for j in now[~solved & capped]:
                out[j] = SingularNormalEquations(
                    f"damped normal equations unsolvable at damping {lam[j]:.3e}")
            accepted = np.zeros(now.size, dtype=bool)
            tried = now[solved]
            if tried.size:
                candidate = theta[tried] - delta[solved]
                r_new, sse_new = residuals(candidate, tried)
                better = sse_new <= sse[tried]  # never at a non-finite (NaN) residual
                accepted[solved] = better
                won, new = tried[better], sse_new[better]
                old = sse[won]
                rel_drop = (old - new) / np.maximum(old, TINY)
                theta[won] = candidate[better]
                r[won] = r_new[better]
                sse[won] = new
                for j, s in zip(won, new):
                    traces[j].append((float(s), float(lam[j])))
                lam[won] = _next_damping(lam[won], accepted=True, opts=opts)
                for j in won[rel_drop <= opts.sse_rel_tol]:
                    converged_by[j] = Convergence.SSE_TOL
                carry_on[won[rel_drop > opts.sse_rel_tol]] = True

            for j in now[solved & ~accepted & capped]:
                # no descent direction remains at machine precision
                converged_by[j] = Convergence.STALLED
            retry = ~accepted & ~capped
            again = now[retry]
            lam[again] = _next_damping(lam[again], accepted=False, opts=opts)
            rejections[again] += 1
            pending = pending[retry]
        active = np.flatnonzero(carry_on)

    return [
        out[j] if out[j] is not None else LmResult(
            theta=theta[j],
            final_sse=float(sse[j]),
            iterations=int(iterations[j]),
            converged_by=converged_by[j],
            trace=traces[j],
            rejections=int(rejections[j]),
            damping=float(lam[j]),
        )
        for j in range(m)
    ]


def levenberg_marquardt(system, theta0, opts=None):
    """Minimize the (weighted) sum of squared residuals from ``theta0``.

    The one-problem call of :func:`lm_batch`.  Returns an :class:`LmResult`
    whose trace of accepted steps has non-increasing SSE.  Stops when the
    gradient infinity norm falls below ``grad_inf_tol``, the relative SSE
    decrease of an accepted step falls below ``sse_rel_tol``,
    ``max_iterations`` is reached, or no step lowers the SSE even at
    ``MAX_DAMPING`` (stalled).

    Raises
    ------
    NonFiniteResidual
        If the residual or Jacobian is non-finite at the starting point or
        at an accepted point.
    SingularNormalEquations
        If the damped system cannot be solved even at maximum damping.
    """
    system = apply_weights(system)

    def residuals(theta, rows):
        r = system.residual_fn(theta[0])
        return r[None], np.array([float(r @ r) if np.all(np.isfinite(r)) else np.nan])

    def normal_equations(theta, r, rows):
        J = system.jacobian_fn(theta[0])
        if not np.all(np.isfinite(J)):
            n_params = theta.shape[1]
            return np.zeros((1, n_params, n_params)), np.zeros((1, n_params)), np.array([False])
        return (J.T @ J)[None], (J.T @ r[0])[None], np.array([True])

    theta = np.asarray(theta0, dtype=np.float64)
    outcome, = lm_batch(residuals, normal_equations, theta[None], opts)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
