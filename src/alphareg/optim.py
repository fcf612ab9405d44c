"""Self-contained Levenberg-Marquardt solver for stacked residual systems.

The solver minimizes ``sum_k w_k * r_k(theta)**2`` given callables for the
residual vector and its Jacobian.  Damping uses Marquardt scaling,

    (J'WJ + lam * diag(J'WJ)) delta = J'W r,      theta <- theta - delta,

with ``lam`` decreased after an accepted step and increased after a
rejection.  The normal equations are solved by Cholesky factorization with a
pseudo-inverse fallback when the damped matrix is not positive definite.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .exceptions import NegativeWeight, NonFiniteResidual, SingularNormalEquations

MAX_DAMPING = 1e12


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
    """Solve (JtJ + lam*diag(JtJ)) delta = g; None if the factorization fails."""
    diag = np.diag(JtJ).copy()
    diag[diag <= 0] = np.finfo(float).tiny
    M = JtJ + lam * np.diag(diag)
    try:
        L = np.linalg.cholesky(M)
        return np.linalg.solve(L.T, np.linalg.solve(L, g))
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.pinv(M) @ g
    except np.linalg.LinAlgError:
        return None


def levenberg_marquardt(system, theta0, opts=None):
    """Minimize the (weighted) sum of squared residuals from ``theta0``.

    Returns an :class:`LmResult` whose trace of accepted steps has
    non-increasing SSE.  Stops when the gradient infinity norm falls below
    ``grad_inf_tol``, the relative SSE decrease of an accepted step falls
    below ``sse_rel_tol``, ``max_iterations`` is reached, or no step lowers
    the SSE even at ``MAX_DAMPING`` (stalled).

    Raises
    ------
    NonFiniteResidual
        If the residual or Jacobian is non-finite at the starting point or
        at an accepted point.
    SingularNormalEquations
        If the damped system cannot be solved even at maximum damping.
    """
    opts = opts or LmOptions()
    system = apply_weights(system)
    theta = np.asarray(theta0, dtype=np.float64).copy()

    r = system.residual_fn(theta)
    if not np.all(np.isfinite(r)):
        raise NonFiniteResidual(f"residual is non-finite at theta={theta!r}")
    sse = float(r @ r)
    lam = None
    trace = []
    rejections = 0
    converged_by = Convergence.MAX_ITER
    iterations = 0

    for iterations in range(1, opts.max_iterations + 1):
        J = system.jacobian_fn(theta)
        if not np.all(np.isfinite(J)):
            raise NonFiniteResidual(f"Jacobian is non-finite at theta={theta!r}")
        g = J.T @ r
        if np.max(np.abs(g), initial=0.0) <= opts.grad_inf_tol:
            converged_by = Convergence.GRAD_TOL
            iterations -= 1
            break
        JtJ = J.T @ J
        if lam is None:
            lam = opts.initial_damping_scale * max(np.max(np.diag(JtJ)), np.finfo(float).tiny)

        accepted = False
        while not accepted:
            delta = _solve_damped(JtJ, g, lam)
            if delta is None or not np.all(np.isfinite(delta)):
                if lam >= MAX_DAMPING:
                    raise SingularNormalEquations(
                        f"damped normal equations unsolvable at damping {lam:.3e}"
                    )
                lam = _next_damping(lam, accepted=False, opts=opts)
                rejections += 1
                continue
            candidate = theta - delta
            r_new = system.residual_fn(candidate)
            sse_new = float(r_new @ r_new) if np.all(np.isfinite(r_new)) else np.inf
            if sse_new <= sse:
                accepted = True
                theta, r = candidate, r_new
                rel_drop = (sse - sse_new) / max(sse, np.finfo(float).tiny)
                sse = sse_new
                trace.append((sse, lam))
                lam = _next_damping(lam, accepted=True, opts=opts)
                if rel_drop <= opts.sse_rel_tol:
                    converged_by = Convergence.SSE_TOL
            else:
                if lam >= MAX_DAMPING:
                    # No descent direction remains at machine precision.
                    converged_by = Convergence.STALLED
                    break
                lam = _next_damping(lam, accepted=False, opts=opts)
                rejections += 1
        if converged_by is not Convergence.MAX_ITER:
            break

    return LmResult(
        theta=theta,
        final_sse=sse,
        iterations=iterations,
        converged_by=converged_by,
        trace=trace,
        rejections=rejections,
    )
