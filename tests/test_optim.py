"""Solver contracts: exactness on linear systems, a standard curved
benchmark, weighting semantics, damping behavior, and failure modes."""

import numpy as np
import pytest

from alphareg import (
    Convergence,
    InvalidParameters,
    LmOptions,
    NegativeWeight,
    NonFiniteResidual,
    ResidualSystem,
    SingularNormalEquations,
    levenberg_marquardt,
)
from alphareg import optim


def linear_system(A, b, weights=None):
    return ResidualSystem(
        residual_fn=lambda t: A @ t - b,
        jacobian_fn=lambda t: A,
        n_params=A.shape[1],
        n_residuals=A.shape[0],
        weights=weights,
    )


def rosenbrock_system():
    def res(t):
        return np.array([1.0 - t[0], 10.0 * (t[1] - t[0] ** 2)])

    def jac(t):
        return np.array([[-1.0, 0.0], [-20.0 * t[0], 10.0]])

    return ResidualSystem(res, jac, n_params=2, n_residuals=2)


class TestSolver:
    def test_linear_matches_normal_equations(self, rng):
        A = rng.normal(size=(25, 4))
        b = rng.normal(size=25)
        result = levenberg_marquardt(linear_system(A, b), np.zeros(4))
        oracle = np.linalg.lstsq(A, b, rcond=None)[0]
        np.testing.assert_allclose(result.theta, oracle, atol=1e-8)

    def test_rosenbrock_global_minimum(self):
        result = levenberg_marquardt(rosenbrock_system(), np.array([-1.2, 1.0]))
        np.testing.assert_allclose(result.theta, [1.0, 1.0], atol=1e-6)
        assert result.rejections > 0  # the curved valley forces damping up

    def test_weighted_objective_value(self, rng):
        A = rng.normal(size=(10, 3))
        b = rng.normal(size=10)
        w = rng.uniform(0.5, 3.0, size=10)
        result = levenberg_marquardt(linear_system(A, b, weights=w), np.zeros(3))
        direct = float(w @ (A @ result.theta - b) ** 2)
        assert abs(result.final_sse - direct) < 1e-12

    def test_trace_sse_non_increasing(self):
        # a solve cut at i iterations is the full solve's first i steps
        start = np.array([-1.2, 1.0])
        full = levenberg_marquardt(rosenbrock_system(), start)
        sses = [levenberg_marquardt(rosenbrock_system(), start,
                                    LmOptions(max_iterations=i)).final_sse
                for i in range(1, full.iterations + 1)]
        assert all(b <= a for a, b in zip(sses, sses[1:]))
        assert sses[-1] == full.final_sse

    def test_converges_by_reported(self, rng):
        A = rng.normal(size=(8, 2))
        b = rng.normal(size=8)
        result = levenberg_marquardt(linear_system(A, b), np.zeros(2))
        assert result.converged_by in (Convergence.SSE_TOL, Convergence.GRAD_TOL)
        assert result.final_sse <= float(b @ b)

    def test_max_iterations(self):
        opts = LmOptions(max_iterations=2)
        result = levenberg_marquardt(rosenbrock_system(), np.array([-1.2, 1.0]), opts)
        assert result.converged_by is Convergence.MAX_ITER
        assert result.iterations == 2

    def test_no_descent_direction_stalls(self):
        # |t| + 1 has its minimum at the kink t = 0, where the one-sided
        # slope keeps the gradient nonzero: every step is rejected until the
        # damping cap, which must read as a stall, not SSE convergence.
        kink = ResidualSystem(
            residual_fn=lambda t: np.abs(t) + 1.0,
            jacobian_fn=lambda t: np.array([[1.0]]),
            n_params=1,
            n_residuals=1,
        )
        result = levenberg_marquardt(kink, np.zeros(1))
        assert result.converged_by is Convergence.STALLED
        assert result.theta[0] == 0.0
        assert result.final_sse == 1.0
        assert result.rejections > 0 and result.iterations == 1

    def test_non_finite_residual_at_start(self):
        bad = ResidualSystem(
            residual_fn=lambda t: np.array([np.nan]),
            jacobian_fn=lambda t: np.array([[1.0]]),
            n_params=1,
            n_residuals=1,
        )
        with pytest.raises(NonFiniteResidual):
            levenberg_marquardt(bad, np.zeros(1))

    def test_singular_at_max_damping(self, monkeypatch):
        monkeypatch.setattr(optim, "_solve_damped",
                            lambda JtJ, g, lam: np.full_like(g, np.nan))
        sys_ = rosenbrock_system()
        with pytest.raises(SingularNormalEquations):
            levenberg_marquardt(sys_, np.array([-1.2, 1.0]))


def stacked(systems):
    """:func:`optim.lm_batch` callbacks for same-shaped systems, one per row,
    with the arithmetic of :func:`levenberg_marquardt`."""

    last = {}  # the residuals of the last call

    def residuals(theta, rows):
        r = last["r"] = np.array([systems[j].residual_fn(t) for t, j in zip(theta, rows)])
        sse = [float(x @ x) if np.all(np.isfinite(x)) else np.nan for x in r]
        return r, np.array(sse)

    def normal_equations(theta, at, rows, JtJ, g):
        J = np.array([systems[j].jacobian_fn(t) for t, j in zip(theta, rows)])
        JtJ[rows] = [j.T @ j for j in J]
        g[rows] = [j.T @ x for j, x in zip(J, last["r"][at])]
        return np.all(np.isfinite(J), axis=(1, 2))

    return residuals, normal_equations


class TestBatch:
    def test_each_problem_runs_its_own_schedule(self, rng):
        A = rng.normal(size=(2, 2))
        kink = ResidualSystem(lambda t: np.abs(t) + 1.0, lambda t: np.eye(2), 2, 2)
        systems = [rosenbrock_system(), kink, linear_system(A, np.ones(2)),
                   rosenbrock_system(), rosenbrock_system()]
        theta0 = np.array([[-1.2, 1.0], [0.0, 0.0], [0.0, 0.0], [np.nan, 1.0], [2.0, 2.0]])
        outcomes = optim.lm_batch(*stacked(systems), theta0)
        assert isinstance(outcomes[3], NonFiniteResidual)  # fails alone
        reasons = set()
        for system, start, got in zip(systems, theta0, outcomes):
            if got is outcomes[3]:
                continue
            want = levenberg_marquardt(system, start)
            np.testing.assert_array_equal(got.theta, want.theta)
            assert (got.iterations, got.rejections, got.converged_by, got.damping) == \
                (want.iterations, want.rejections, want.converged_by, want.damping)
            assert got.final_sse == want.final_sse
            reasons.add(got.converged_by)
        assert Convergence.STALLED in reasons and outcomes[0].rejections > 0

    def test_no_lockstep(self, monkeypatch):
        # each pass takes one damped step for every live problem, so the
        # stack makes as many solves as its longest problem, no more
        calls = []
        real = optim._solve_damped

        def counted(JtJ, g, lam):
            calls.append(len(g))
            return real(JtJ, g, lam)

        monkeypatch.setattr(optim, "_solve_damped", counted)
        theta0 = np.array([[-1.2, 1.0], [2.0, 2.0], [-2.0, 3.0]])
        outcomes = optim.lm_batch(*stacked([rosenbrock_system()] * 3), theta0)
        longest = max(o.iterations + o.rejections for o in outcomes)
        assert len(calls) == longest == 47
        assert sum(calls) == sum(o.iterations + o.rejections for o in outcomes)

    def test_singular_problem_fails_alone(self, monkeypatch):
        real = optim._solve_damped

        def second_unsolvable(JtJ, g, lam):
            identity = np.isclose(JtJ[:, 0, 0], 1.0)  # the problem with J = I
            delta = real(JtJ, g, lam)  # damps JtJ in place
            delta[identity] = np.nan
            return delta

        monkeypatch.setattr(optim, "_solve_damped", second_unsolvable)
        systems = [rosenbrock_system(), linear_system(np.eye(2), np.ones(2))]
        outcomes = optim.lm_batch(*stacked(systems), np.array([[-1.2, 1.0], [0.0, 0.0]]))
        assert isinstance(outcomes[1], SingularNormalEquations)
        np.testing.assert_allclose(outcomes[0].theta, [1.0, 1.0], atol=1e-6)


class TestSolveDamped:
    def test_exactly_singular_problem_gets_the_pseudo_inverse_step(self, rng):
        # at damping 0 the matrix [[1, 1], [1, 1]] is exactly singular, so
        # the stack's LU solve fails and every problem is solved alone
        A = rng.normal(size=(4, 6, 2))
        JtJ = A.transpose(0, 2, 1) @ A
        JtJ[2] = [[1.0, 1.0], [1.0, 1.0]]
        g = rng.normal(size=(4, 2))
        lam = np.array([1e-3, 0.5, 0.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(JtJ[2], g[2])
        delta = optim._solve_damped(JtJ.copy(), g, lam)  # damps its JtJ in place
        np.testing.assert_array_equal(delta[2], np.linalg.pinv(JtJ[2]) @ g[2])
        for j in (0, 1, 3):
            alone = optim._solve_damped(JtJ[j:j + 1].copy(), g[j:j + 1], lam[j:j + 1])
            np.testing.assert_array_equal(delta[j], alone[0])

    def test_zero_column_is_damped_by_tiny(self, rng):
        # a parameter no residual depends on leaves a zero row and column in
        # J'J; its diagonal is damped by lam * TINY, and the step equals bit
        # for bit that of the formula of fancy-index gets and sets
        m, P = 5, 4
        A = rng.normal(size=(m, 8, P))
        A[:, :, 2] = 0.0
        JtJ = A.transpose(0, 2, 1) @ A
        g = rng.normal(size=(m, P))
        g[:, 2] = 0.0
        lam = 10.0 ** rng.uniform(-6, 1, size=m)
        on_diag = (slice(None),) + np.diag_indices(P)
        diag = JtJ[on_diag]
        diag[diag <= 0] = optim.TINY
        M = JtJ.copy()
        M[on_diag] += lam[:, None] * diag
        want = np.linalg.solve(M, g[:, :, None])[:, :, 0]
        delta = optim._solve_damped(JtJ, g, lam)
        np.testing.assert_array_equal(delta, want)
        assert np.all(np.isfinite(delta)) and np.all(delta[:, 2] == 0.0)
        np.testing.assert_array_equal(JtJ, M)  # damped in place

    def test_stack_solve_matches_least_squares(self, rng):
        m, P = 25, 6
        A = rng.normal(size=(m, 10, P))
        JtJ = A.transpose(0, 2, 1) @ A  # symmetric positive definite
        g = rng.normal(size=(m, P))
        lam = 10.0 ** rng.uniform(-8, 2, size=m)
        delta = optim._solve_damped(JtJ.copy(), g, lam)
        for j in range(m):
            M = JtJ[j] + lam[j] * np.diag(np.diag(JtJ[j]))
            want = np.linalg.lstsq(M, g[j], rcond=None)[0]
            assert np.linalg.norm(delta[j] - want) <= 1e-12 * np.linalg.norm(want)


class TestWeights:
    def test_unit_weights_change_nothing(self, rng):
        A = rng.normal(size=(6, 2))
        b = rng.normal(size=6)
        same_outcome(levenberg_marquardt(linear_system(A, b, weights=np.ones(6)),
                                         np.zeros(2)),
                     levenberg_marquardt(linear_system(A, b), np.zeros(2)))

    def test_zero_weight_removes_influence(self, rng):
        A = rng.normal(size=(7, 2))
        b = rng.normal(size=7)
        w = np.ones(7)
        w[3] = 0.0
        with_zero = levenberg_marquardt(linear_system(A, b, weights=w), np.zeros(2))
        dropped = levenberg_marquardt(
            linear_system(np.delete(A, 3, axis=0), np.delete(b, 3)), np.zeros(2)
        )
        np.testing.assert_allclose(with_zero.theta, dropped.theta, atol=1e-8)

    def test_weighted_matches_closed_form(self):
        A = np.array([[1.0, 0.5], [0.3, -1.0]])
        b = np.array([1.0, 2.0])
        w = np.array([4.0, 1.0])
        result = levenberg_marquardt(linear_system(A, b, weights=w), np.zeros(2))
        Wm = np.diag(w)
        oracle = np.linalg.solve(A.T @ Wm @ A, A.T @ Wm @ b)
        np.testing.assert_allclose(result.theta, oracle, atol=1e-10)

    def test_negative_weight_rejected(self):
        A = np.eye(2)
        with pytest.raises(NegativeWeight):
            levenberg_marquardt(
                linear_system(A, np.ones(2), weights=np.array([1.0, -1.0])), np.zeros(2))


class TestDamping:
    def test_rejection_increases(self):
        opts = LmOptions()
        assert optim._next_damping(1.0, accepted=False, opts=opts) > 1.0

    def test_acceptance_decreases(self):
        opts = LmOptions()
        assert optim._next_damping(1.0, accepted=True, opts=opts) < 1.0

    def test_options_validated(self):
        with pytest.raises(InvalidParameters):
            LmOptions(max_iterations=0)
        with pytest.raises(InvalidParameters):
            LmOptions(damping_decrease=1.5)

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", -1), ("max_iterations", 2.5),
        ("sse_rel_tol", -1.0), ("sse_rel_tol", np.nan), ("sse_rel_tol", np.inf),
        ("grad_inf_tol", 0.0), ("grad_inf_tol", np.nan), ("grad_inf_tol", np.inf),
        ("initial_damping_scale", np.nan), ("initial_damping_scale", np.inf),
        ("damping_increase", 1.0), ("damping_increase", np.nan),
        ("damping_increase", np.inf),
        ("damping_decrease", 0.0), ("damping_decrease", np.nan),
    ])
    def test_out_of_range_or_non_finite_option_rejected(self, field, value):
        # an infinite sse_rel_tol used to stop every solve after its first step
        with pytest.raises(InvalidParameters, match=field.split("_")[0]):
            LmOptions(**{field: value})


def same_outcome(got, want):
    np.testing.assert_array_equal(got.theta, want.theta)
    assert (got.iterations, got.rejections, got.converged_by,
            got.final_sse, got.damping) == \
        (want.iterations, want.rejections, want.converged_by,
         want.final_sse, want.damping)


class TestWarmDamping:
    """The starting damping: the cold rule by default, the warm rule
    ``min(lam0, inherited)`` when a start fit's final damping is passed."""

    def problems(self, rng):
        systems = [rosenbrock_system(), linear_system(rng.normal(size=(2, 2)), np.ones(2))]
        return systems, np.array([[-1.2, 1.0], [0.0, 0.0]])

    def test_no_inherited_damping_is_the_cold_rule_bitwise(self, rng):
        systems, theta0 = self.problems(rng)
        cold = optim.lm_batch(*stacked(systems), theta0)
        # min(lam0, inf) = lam0: an infinite inheritance takes the same path
        for got, want in zip(optim.lm_batch(*stacked(systems), theta0,
                                            damping0=np.full(2, np.inf)), cold):
            same_outcome(got, want)
        A = systems[1].jacobian_fn(theta0[1])
        lam0 = LmOptions().initial_damping_scale * np.max(np.diag(A.T @ A))
        # the first step of the linear problem is accepted at lam0
        first, = optim.lm_batch(*stacked(systems[1:]), theta0[1:],
                                LmOptions(max_iterations=1))
        assert first.rejections == 0
        assert first.damping == lam0 * LmOptions().damping_decrease

    def test_small_inherited_damping_starts_the_first_step(self, rng):
        systems, theta0 = self.problems(rng)
        got = optim.lm_batch(*stacked(systems), theta0, damping0=np.full(2, 1e-9))
        np.testing.assert_allclose(got[0].theta, [1.0, 1.0], atol=1e-6)
        first, = optim.lm_batch(*stacked(systems[1:]), theta0[1:],
                                LmOptions(max_iterations=1), damping0=np.full(1, 1e-9))
        assert first.rejections == 0
        assert first.damping == 1e-9 * LmOptions().damping_decrease

    def test_final_damping_is_the_next_steps(self, rng):
        systems, theta0 = self.problems(rng)
        opts = LmOptions()
        for system, start, got in zip(systems, theta0, optim.lm_batch(*stacked(systems),
                                                                      theta0)):
            # one accepted step per iteration, and the rejections between them
            J = system.jacobian_fn(start)
            lam0 = opts.initial_damping_scale * np.max(np.diag(J.T @ J))
            expected = (lam0 * opts.damping_decrease ** got.iterations
                        * opts.damping_increase ** got.rejections)
            np.testing.assert_allclose(got.damping, expected, rtol=1e-14)

    def test_warm_rule_takes_the_smaller_positive_damping(self):
        JtJ = np.stack([np.diag([4.0, 2.0])] * 5)
        inherited = np.array([0.0, -1.0, np.nan, 1e-9, 1.0])
        lam = optim._initial_damping(JtJ, inherited, LmOptions())
        np.testing.assert_array_equal(lam, [4e-3, 4e-3, 4e-3, 1e-9, 4e-3])

    @pytest.mark.parametrize("inherited", [0.0, -1.0, np.nan])
    def test_nonpositive_inherited_damping_falls_back_to_cold(self, inherited):
        # a fit that meets grad_inf_tol before its first step ends at damping 0;
        # continuing from it must not retry rejected steps at 0 * 2 = 0 forever
        at_optimum = levenberg_marquardt(rosenbrock_system(), np.array([1.0, 1.0]))
        assert at_optimum.converged_by is Convergence.GRAD_TOL
        assert at_optimum.iterations == 0 and at_optimum.damping == 0.0
        start = np.array([[-1.2, 1.0]])
        cold, = optim.lm_batch(*stacked([rosenbrock_system()]), start)
        warm, = optim.lm_batch(*stacked([rosenbrock_system()]), start,
                               damping0=np.array([at_optimum.damping if inherited == 0
                                                  else inherited]))
        assert cold.rejections > 0
        same_outcome(warm, cold)
