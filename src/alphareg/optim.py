"""Self-contained Levenberg-Marquardt solver for stacked residual systems.

The solver minimizes ``sum_k w_k * r_k(theta)**2`` given callables for the
residual vector and its Jacobian.  Damping uses Marquardt scaling,

    (J'WJ + lam * diag(J'WJ)) delta = J'W r,      theta <- theta - delta,

with ``lam`` decreased after an accepted step and increased after a
rejection.  The damped equations of a stack of problems are solved by one
batched LU solve, with a pseudo-inverse for a damped matrix that is exactly
singular.

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
m independent problems, each with its own damping, acceptance test, stopping
reason, iteration and rejection counts, kept in arrays.  The problems advance
independently: a problem forms ``J'J`` only at a newly accepted point and
reuses it across its rejections, and never waits for another problem's.  A
problem whose residuals or Jacobian turn non-finite, or whose damped
equations cannot be solved, leaves the stack failed and the others go on.
Every fit of the package (``regression.fit_alpha_batch``) hands that loop
its normal equations in closed form.  :func:`levenberg_marquardt` is the
one-problem call of the same loop on a generic :class:`ResidualSystem`: it
folds in the weights and forms ``J'J`` from the stacked Jacobian, as the
reference for the closed forms and the damping schedule.
"""

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .exceptions import (NegativeWeight, NonFiniteResidual, SingularNormalEquations,
                         check_integer, check_real)

MAX_DAMPING = 1e12
TINY = np.finfo(float).tiny


class Convergence(Enum):
    SSE_TOL = "sse_tol"
    GRAD_TOL = "grad_tol"
    MAX_ITER = "max_iter"
    STALLED = "stalled"  # no step lowers the SSE, even at MAX_DAMPING


# lm_batch keeps a problem's stopping reason as an index into REASONS, and a
# failure as one of these codes (0: none)
REASONS = tuple(Convergence)
BAD_RESIDUAL, BAD_JACOBIAN, SINGULAR = 1, 2, 3


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
        check_integer("max_iterations", self.max_iterations, 1)
        for name in ("sse_rel_tol", "grad_inf_tol", "initial_damping_scale"):
            check_real(name, getattr(self, name), "(0, inf)")
        check_real("damping_increase", self.damping_increase, "(1, inf)")
        check_real("damping_decrease", self.damping_decrease, "(0, 1)")


@dataclass
class LmResult:
    theta: np.ndarray
    final_sse: float
    iterations: int
    converged_by: Convergence
    rejections: int = 0
    damping: float = 0.0  # the damping a further step would use; 0 if none was set


def solver_diagnostics(outcomes):
    """JSON-ready record of a set of solves, each outcome an :class:`LmResult`
    or the exception that failed it: the count per convergence reason, a
    histogram of LM iterations (keyed by the count, ascending), and the
    failures by exception type.  Counts only, so it is deterministic."""
    lms = [o for o in outcomes if isinstance(o, LmResult)]
    iterations = Counter(lm.iterations for lm in lms)
    failed = Counter(type(o).__name__ for o in outcomes if not isinstance(o, LmResult))
    return {
        "converged_by": {c.value: sum(lm.converged_by is c for lm in lms)
                         for c in Convergence},
        "iterations": {str(i): iterations[i] for i in sorted(iterations)},
        "failed": dict(sorted(failed.items())),
    }


def _next_damping(lam, accepted, opts):
    """Damping schedule: shrink after acceptance, grow after rejection."""
    return lam * (opts.damping_decrease if accepted else opts.damping_increase)


def _solve_damped(JtJ, g, lam):
    """Solve (JtJ + lam*diag(JtJ)) delta = g for every problem of a stack.

    ``JtJ`` is (m, P, P), ``g`` (m, P) and ``lam`` (m,).  A C-contiguous
    ``JtJ`` is damped in place, through a strided view of its diagonal, so
    the caller passes a copy (:func:`lm_batch` passes the rows it takes of
    its stack).  A nonpositive diagonal entry is damped by ``lam * TINY``
    and keeps its own value.
    """
    m, P = g.shape
    M = JtJ.reshape(m, P * P)
    diag = M[:, ::P + 1]
    diag += lam[:, None] * np.where(diag > 0, diag, TINY)
    return _solve(M.reshape(m, P, P), g)


def _solve(M, g):
    """``M^-1 g`` for every problem of a stack, as one batched LU solve,
    which solves each problem on its own.  If some M is exactly singular,
    the problems are solved one at a time, and a singular one gets
    ``pinv(M) @ g``; a problem that even the pseudo-inverse cannot solve
    gets a NaN row."""
    try:
        return np.linalg.solve(M, g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # some matrix is exactly singular
        pass
    if len(M) > 1:  # solve the problems one at a time
        return np.concatenate([_solve(M[j:j + 1], g[j:j + 1]) for j in range(len(M))])
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
    rows ``theta`` and returns their residuals, in a layout of its own, and
    their SSEs, NaN where a residual is non-finite; ``lm_batch`` reads only
    the SSEs.  ``normal_equations(theta, at, rows, JtJ, g)`` forms, for
    problems ``rows`` at the points ``theta``, whose residuals were entries
    ``at`` of the last ``residuals`` call, ``J'J`` and ``J'r``, writes them
    to rows ``rows`` of the stacks ``JtJ`` (m, P, P) and ``g`` (m, P) that
    ``lm_batch`` keeps, and returns whether each Jacobian is finite.  Every
    problem of a ``normal_equations`` call was in the last ``residuals``
    call, so ``residuals`` may keep its residuals, and write every call into
    the same storage.

    Every problem runs the schedule of :func:`levenberg_marquardt` with its
    own damping, acceptance test, stopping reason and counts, and advances
    on its own: each pass of the loop tries one damped step for every live
    problem, and forms ``J'J`` and ``J'r`` only for the problems whose last
    step was accepted, so a rejected step is retried on the ``J'J`` kept for
    its point.  The stack only shares the numpy calls.  Returns one outcome
    per problem, in order: its :class:`LmResult`, or the
    :class:`NonFiniteResidual` or :class:`SingularNormalEquations` that
    failed it.

    ``damping0`` (m,), when given, is the damping each problem's start fit
    ended with (:attr:`LmResult.damping`), and sets its starting damping by
    the warm rule of :func:`_initial_damping`; ``None`` keeps the cold rule.
    """
    opts = opts or LmOptions()
    theta = np.array(theta0, dtype=np.float64)
    m, n_params = theta.shape
    rows = np.arange(m)  # the problems of the last residuals call, sorted
    _, sse = residuals(theta, rows)
    failed = np.where(np.isnan(sse), BAD_RESIDUAL, 0)
    reason = np.full(m, REASONS.index(Convergence.MAX_ITER))
    lam = np.zeros(m)
    iterations = np.zeros(m, dtype=int)
    rejections = np.zeros(m, dtype=int)
    JtJ, g = np.empty((m, n_params, n_params)), np.empty((m, n_params))
    live = failed == 0  # still stepping
    fresh = live.copy()  # at a newly accepted point, its J'J not formed yet

    while True:
        new = np.flatnonzero(fresh)
        if new.size:
            # every new problem had its residuals in the last call, at this
            # point; its J'J is kept for the retries there
            finite = normal_equations(theta[new], np.searchsorted(rows, new), new, JtJ, g)
            failed[new[~finite]] = BAD_JACOBIAN
            small = finite & (np.abs(g[new]).max(axis=1, initial=0.0) <= opts.grad_inf_tol)
            reason[new[small]] = REASONS.index(Convergence.GRAD_TOL)
            live[new[~finite | small]] = False
            new = new[finite & ~small]
            iterations[new] += 1
            first = new[iterations[new] == 1]
            lam[first] = _initial_damping(
                JtJ[first], None if damping0 is None else damping0[first], opts)
        now = np.flatnonzero(live)
        if now.size == 0:
            break

        delta = _solve_damped(JtJ[now], g[now], lam[now])
        solved = np.isfinite(delta).all(axis=1)
        capped = lam[now] >= MAX_DAMPING
        failed[now[~solved & capped]] = SINGULAR
        accepted = np.zeros(now.size, dtype=bool)
        fresh[:] = False
        tried = now[solved]
        if tried.size:
            candidate = theta[tried] - delta[solved]
            rows = tried
            _, sse_new = residuals(candidate, tried)
            better = sse_new <= sse[tried]  # never at a non-finite (NaN) residual
            accepted[solved] = better
            won, new_sse = tried[better], sse_new[better]
            old = sse[won]
            rel_drop = (old - new_sse) / np.maximum(old, TINY)
            theta[won] = candidate[better]
            sse[won] = new_sse
            lam[won] = _next_damping(lam[won], accepted=True, opts=opts)
            reason[won[rel_drop <= opts.sse_rel_tol]] = REASONS.index(Convergence.SSE_TOL)
            fresh[won[(rel_drop > opts.sse_rel_tol)
                      & (iterations[won] < opts.max_iterations)]] = True

        # no descent direction remains at machine precision
        reason[now[solved & ~accepted & capped]] = REASONS.index(Convergence.STALLED)
        retry = ~accepted & ~capped
        again = now[retry]
        lam[again] = _next_damping(lam[again], accepted=False, opts=opts)
        rejections[again] += 1
        done = now[~retry]  # accepted, stalled or singular
        live[done] = fresh[done]  # an accepted step short of convergence goes on

    # a failed problem left the stack at once, so its theta and damping are
    # still those it failed at
    return [
        _failure(failed[j], theta[j], lam[j]) if failed[j] else LmResult(
            theta=theta[j],
            final_sse=float(sse[j]),
            iterations=int(iterations[j]),
            converged_by=REASONS[reason[j]],
            rejections=int(rejections[j]),
            damping=float(lam[j]),
        )
        for j in range(m)
    ]


def _failure(code, theta, lam):
    """The exception of a problem that failed with ``code`` at ``theta``, ``lam``."""
    if code == SINGULAR:
        return SingularNormalEquations(f"damped normal equations unsolvable at damping {lam:.3e}")
    return NonFiniteResidual(f"{'residual' if code == BAD_RESIDUAL else 'Jacobian'} "
                             f"is non-finite at theta={theta!r}")


def levenberg_marquardt(system, theta0, opts=None):
    """Minimize the (weighted) sum of squared residuals from ``theta0``.

    The one-problem call of :func:`lm_batch`.  The system's weights are
    folded in: residuals and Jacobian rows are scaled by ``sqrt(w_k)``, so
    the unweighted loop minimizes ``sum w_k r_k**2`` exactly.  Returns an
    :class:`LmResult`.  Stops when the gradient infinity norm falls below
    ``grad_inf_tol``, the relative SSE decrease of an accepted step falls
    below ``sse_rel_tol``, ``max_iterations`` is reached, or no step lowers
    the SSE even at ``MAX_DAMPING`` (stalled).

    Raises
    ------
    NegativeWeight
        If a residual weight is negative.
    NonFiniteResidual
        If the residual or Jacobian is non-finite at the starting point or
        at an accepted point.
    SingularNormalEquations
        If the damped system cannot be solved even at maximum damping.
    """
    sw = 1.0  # sqrt of the weights; multiplying by 1.0 changes no value
    if system.weights is not None:
        w = np.asarray(system.weights, dtype=np.float64)
        if np.any(w < 0):
            raise NegativeWeight("residual weights must be nonnegative")
        sw = np.sqrt(w)

    r = None  # the residuals of the last call

    def residuals(theta, rows):
        nonlocal r
        r = sw * system.residual_fn(theta[0])
        return r[None], np.array([float(r @ r) if np.all(np.isfinite(r)) else np.nan])

    def normal_equations(theta, at, rows, JtJ, g):
        J = (sw * system.jacobian_fn(theta[0]).T).T  # row k scaled by sw[k]
        if not np.all(np.isfinite(J)):
            return np.array([False])
        JtJ[rows], g[rows] = J.T @ J, J.T @ r
        return np.array([True])

    theta = np.asarray(theta0, dtype=np.float64)
    outcome, = lm_batch(residuals, normal_equations, theta[None], opts)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
