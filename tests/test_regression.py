"""Model core: mean map, collapsed transform identity, objective, analytic
derivatives against finite differences, and the fit itself."""

import tracemalloc

import numpy as np
import pytest

from alphareg import (
    DegenerateWeights,
    DimensionMismatch,
    InvalidParameters,
    NegativeWeight,
    NonFiniteResidual,
    alpha_transform,
    fit_alpha_regression,
    fitted_mean,
    gradient,
    hessian_exact,
    hessian_gauss_newton,
    kld,
    levenberg_marquardt,
    predict,
    residual_system,
    sse,
    transformed_mean,
)
from alphareg import regression
from alphareg.optim import lm_batch
from alphareg.regression import RowBlocks, coef_to_theta, fit_alpha_batch
from conftest import fd_gradient, fd_hessian, patched_designs, random_instance, rel_err


class TestFittedMean:
    def test_zero_coefficients_give_uniform(self, rng):
        X = np.hstack([np.ones((5, 1)), rng.normal(size=(5, 2))])
        mu = fitted_mean(X, np.zeros((3, 3)))
        np.testing.assert_allclose(mu, 0.25, atol=1e-15)

    def test_logit_closed_form(self):
        # one observation, x = (1), coefficient log 3: mu = (1/4, 3/4)
        mu = fitted_mean(np.array([[1.0]]), np.array([[np.log(3.0)]]))
        np.testing.assert_allclose(mu, [[0.25, 0.75]], atol=1e-14)

    def test_rows_sum_to_one(self, rng):
        Y, X, B = random_instance(rng, n=40, D=5, p=3)
        mu = fitted_mean(X, B * 10)
        np.testing.assert_allclose(mu.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(mu > 0) and np.all(mu < 1)

    def test_huge_predictors_clamped(self):
        X = np.array([[1.0, 5000.0]])
        mu = fitted_mean(X, np.array([[1.0], [1.0]]))
        assert np.all(np.isfinite(mu))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fitted_mean(np.ones((3, 2)), np.zeros((3, 1)))


class TestTransformedMean:
    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.25, 0.5, 1.0])
    def test_matches_two_step_path(self, alpha, rng):
        Y, X, B = random_instance(rng, n=25, D=4, p=2)
        direct = transformed_mean(X, B, alpha)
        two_step = alpha_transform(fitted_mean(X, B), alpha)
        np.testing.assert_allclose(direct, two_step, atol=1e-12)

    def test_zero_coefficients_give_zero_scores(self):
        X = np.ones((4, 1))
        np.testing.assert_allclose(
            transformed_mean(X, np.zeros((1, 2)), 0.5), 0.0, atol=1e-15
        )

    def test_alpha_one_against_direct_formula(self, rng):
        Y, X, B = random_instance(rng, n=10, D=3, p=1)
        mu = fitted_mean(X, B)
        from alphareg import helmert_submatrix

        expected = (3 * mu - 1.0) @ helmert_submatrix(3).T  # power at 1 is identity
        np.testing.assert_allclose(transformed_mean(X, B, 1.0), expected, atol=1e-13)


class TestSse:
    def test_zero_at_exact_fit(self, rng):
        Y, X, B = random_instance(rng, n=20, D=3, p=2)
        Y = fitted_mean(X, B)
        assert sse(Y, X, 0.5, B) < 1e-24

    def test_hand_computed_scalar(self):
        # single observation, D=2, alpha=1, B=0: 2*(y1 - y2 - 0)^2 / 2 parts
        Y = np.array([[0.3, 0.7]])
        X = np.array([[1.0]])
        value = sse(Y, X, 1.0, np.zeros((1, 1)))
        assert abs(value - 0.32) < 1e-14

    def test_permutation_invariant(self, rng):
        Y, X, B = random_instance(rng, n=30, D=4, p=2)
        perm = rng.permutation(30)
        assert abs(sse(Y, X, 0.5, B) - sse(Y[perm], X[perm], 0.5, B)) < 1e-12


class TestGradient:
    def test_finite_difference_agreement(self, rng):
        for _ in range(6):
            Y, X, B = random_instance(rng)
            alpha = float(rng.choice([-1.0, -0.5, 0.25, 0.5, 1.0]))
            assert rel_err(gradient(Y, X, alpha, B), fd_gradient(Y, X, alpha, B)) < 1e-5

    def test_stationary_at_noiseless_optimum(self, rng):
        Y, X, B = random_instance(rng, n=100, D=3, p=2)
        Y = fitted_mean(X, B)
        assert np.max(np.abs(gradient(Y, X, 0.5, B))) < 1e-6

    def test_component_symmetry_at_zero(self, rng):
        # duplicated response columns make the two component blocks equal
        n = 20
        X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 1))])
        half = rng.uniform(0.1, 0.4, size=n)
        Y = np.column_stack([1.0 - 2 * half, half, half])
        g = gradient(Y, X, 0.5, np.zeros((2, 2))).reshape(2, 2, order="F")
        np.testing.assert_allclose(g[:, 0], g[:, 1], atol=1e-12)


class TestHessians:
    def test_gauss_newton_symmetric_and_nsd(self, rng):
        Y, X, B = random_instance(rng, n=20, D=4, p=2)
        H = hessian_gauss_newton(Y, X, 0.5, B)
        assert np.max(np.abs(H - H.T)) < 1e-12
        assert np.max(np.linalg.eigvalsh(H)) <= 1e-10

    def test_gauss_newton_equals_solver_jacobian_gram(self, rng):
        Y, X, B = random_instance(rng, n=15, D=3, p=2)
        system = residual_system(Y, X, 0.5)
        J = system.jacobian_fn(coef_to_theta(B))
        np.testing.assert_allclose(
            hessian_gauss_newton(Y, X, 0.5, B), -(J.T @ J), atol=1e-10
        )

    def test_exact_equals_gn_at_zero_residual(self, rng):
        Y, X, B = random_instance(rng, n=15, D=3, p=1)
        Y = fitted_mean(X, B)
        gn = hessian_gauss_newton(Y, X, 0.5, B)
        np.testing.assert_allclose(hessian_exact(Y, X, 0.5, B), gn, atol=1e-10)

    def test_exact_matches_finite_differences(self, rng):
        Y, X, B = random_instance(rng, n=15, D=3, p=1)
        He = hessian_exact(Y, X, 0.5, B)
        assert rel_err(He, fd_hessian(Y, X, 0.5, B)) < 1e-4

    def test_exact_symmetric(self, rng):
        Y, X, B = random_instance(rng, n=12, D=4, p=2)
        He = hessian_exact(Y, X, -0.5, B)
        assert np.max(np.abs(He - He.T)) < 1e-10


class TestFit:
    def test_noiseless_recovery(self, rng):
        n, D, p = 500, 3, 2
        X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, p))])
        B_star = np.array([[0.2, -0.4], [0.6, 0.3], [-0.5, 0.25]])
        Y = fitted_mean(X, B_star)
        fit = fit_alpha_regression(Y, X, 0.5)
        assert np.max(np.abs(fit.coefficients - B_star)) < 1e-4
        assert fit.sse < 1e-12
        np.testing.assert_allclose(fit.fitted.sum(axis=1), 1.0, atol=1e-12)

    def test_small_alpha_matches_alr_ols(self, rng):
        n, D, p = 200, 3, 2
        X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, p))])
        B_star = rng.uniform(-0.6, 0.6, size=(p + 1, D - 1))
        mu = fitted_mean(X, B_star)
        from alphareg import alpha_transform_inverse

        z = alpha_transform(mu, 0.5) + 0.05 * rng.standard_normal((n, D - 1))
        Y = alpha_transform_inverse(z, 0.5)
        fit = fit_alpha_regression(Y, X, 1e-4)
        oracle = np.linalg.lstsq(X, np.log(Y[:, 1:] / Y[:, [0]]), rcond=None)[0]
        assert np.max(np.abs(fit.coefficients - oracle)) < 1e-2

    def test_alpha_zero_is_exactly_alr_ols(self, rng):
        Y, X, B = random_instance(rng, n=60, D=3, p=2)
        fit = fit_alpha_regression(Y, X, 0.0)
        oracle = np.linalg.lstsq(X, np.log(Y[:, 1:] / Y[:, [0]]), rcond=None)[0]
        np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-7)

    def test_duplicated_observations_same_estimate(self, rng):
        from alphareg import LmOptions

        Y, X, B = random_instance(rng, n=40, D=3, p=2)
        tight = LmOptions(sse_rel_tol=1e-15, grad_inf_tol=1e-11)
        fit1 = fit_alpha_regression(Y, X, 0.5, opts=tight)
        fit2 = fit_alpha_regression(
            np.vstack([Y, Y]), np.vstack([X, X]), 0.5, opts=tight
        )
        np.testing.assert_allclose(fit1.coefficients, fit2.coefficients, atol=1e-8)

    def test_sse_field_consistent(self, rng):
        Y, X, _ = random_instance(rng, n=30, D=3, p=1)
        fit = fit_alpha_regression(Y, X, 0.25)
        assert abs(fit.sse - sse(Y, X, 0.25, fit.coefficients)) < 1e-10

    def test_weighted_fit_reports_unweighted_sse(self, rng):
        Y, X, _ = random_instance(rng, n=30, D=3, p=1)
        w = rng.uniform(0.1, 2.0, size=30)
        fit = fit_alpha_regression(Y, X, 0.5, weights=w)
        assert abs(fit.sse - sse(Y, X, 0.5, fit.coefficients)) < 1e-10
        assert abs(fit.lm.final_sse - fit.sse) > 1e-6  # the solver's is weighted

    def test_response_transformed_once_per_fit(self, rng, monkeypatch):
        from alphareg import regression

        calls = []
        original = regression.alpha_transform
        monkeypatch.setattr(regression, "alpha_transform",
                            lambda *a: calls.append(1) or original(*a))
        Y, X, _ = random_instance(rng, n=30, D=3, p=1)
        fit_alpha_regression(Y, X, 0.5)
        assert len(calls) == 1
        fit_alpha_regression(Y, X, 0.5, weights=np.linspace(0.5, 1.5, 30))
        assert len(calls) == 2

    def test_deterministic(self, rng):
        Y, X, _ = random_instance(rng, n=30, D=3, p=1)
        f1 = fit_alpha_regression(Y, X, 0.5)
        f2 = fit_alpha_regression(Y, X, 0.5)
        np.testing.assert_array_equal(f1.coefficients, f2.coefficients)


class TestResidualSystem:
    def test_jacobian_matches_finite_differences(self, rng):
        Y, X, B = random_instance(rng, n=12, D=3, p=2)
        system = residual_system(Y, X, 0.5)
        theta = coef_to_theta(B)
        J = system.jacobian_fn(theta)
        step = 1e-6
        J_fd = np.empty_like(J)
        for j in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += step
            tm[j] -= step
            J_fd[:, j] = (system.residual_fn(tp) - system.residual_fn(tm)) / (2 * step)
        assert rel_err(J, J_fd) < 1e-5

    @staticmethod
    def _central_differences(system, theta, step=1e-6):
        J_fd = np.empty((system.n_residuals, theta.size))
        for j in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += step
            tm[j] -= step
            J_fd[:, j] = (system.residual_fn(tp) - system.residual_fn(tm)) / (2 * step)
        return J_fd

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1, 0.0, -0.5])
    def test_jacobian_matches_finite_differences_over_alpha(self, alpha, rng):
        Y, X, B = random_instance(rng, n=15, D=4, p=2)
        system = residual_system(Y, X, alpha)
        theta = coef_to_theta(B)
        J = system.jacobian_fn(theta)
        assert rel_err(J, self._central_differences(system, theta)) < 1e-5

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1, 0.0, -0.5])
    def test_jacobian_finite_at_tiny_fitted_means(self, alpha, rng):
        # |eta| reaches 600 on the outer rows, so fitted means there are
        # ~1e-260 (or underflow to 0); the inner rows keep O(1) derivatives.
        n = 12
        t = np.concatenate([np.linspace(-1.0, 1.0, 7), np.linspace(-0.005, 0.005, 5)])
        X = np.column_stack([np.ones(n), t])
        B = np.array([[0.0, 0.0], [600.0, -300.0]])
        Y = rng.dirichlet(np.full(3, 2.0), size=n)
        assert fitted_mean(X, B).min() < 1e-250
        system = residual_system(Y, X, alpha)
        theta = coef_to_theta(B)
        J = system.jacobian_fn(theta)
        assert np.all(np.isfinite(J))
        assert rel_err(J, self._central_differences(system, theta)) < 1e-5

    def test_mean_jacobian_at_alpha_zero_is_helmert_block(self, rng):
        from alphareg import helmert_submatrix

        Y, X, B = random_instance(rng, n=20, D=4, p=2)
        # the reference's explicit A, read off the intercept columns of
        # J = -A kron x (column k*(p+1) + 0 holds -A[:, :, k] * 1)
        J = residual_system(Y, X, 0.0).jacobian_fn(coef_to_theta(B))
        A = -J[:, ::X.shape[1]].reshape(20, 3, 3)
        H = helmert_submatrix(4)
        np.testing.assert_allclose(A, np.broadcast_to(H[:, 1:], A.shape), atol=1e-15)

    def test_shapes(self, rng):
        Y, X, B = random_instance(rng, n=10, D=4, p=1)
        system = residual_system(Y, X, 1.0)
        assert system.n_residuals == 10 * 3
        assert system.n_params == 2 * 3
        assert system.residual_fn(np.zeros(6)).shape == (30,)
        assert system.jacobian_fn(np.zeros(6)).shape == (30, 6)


class TestClosedFormsAgainstStackedReference:
    """The gradient and the sandwich covariance come from the closed-form
    blocks; the explicit stacked J and residuals of ``residual_system`` give
    the same numbers by the textbook formulas."""

    @staticmethod
    def _reference(Y, X, alpha, B):
        system = residual_system(Y, X, alpha)
        theta = coef_to_theta(B)
        J, r = system.jacobian_fn(theta), system.residual_fn(theta)
        n, d = Y.shape[0], Y.shape[1] - 1
        scores = np.einsum("imp,im->ip", J.reshape(n, d, -1), r.reshape(n, d))
        return J, r, scores

    @staticmethod
    def _close(approx, exact):
        return np.max(np.abs(approx - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("D", [2, 4])
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    def test_gradient_is_minus_jtr(self, D, alpha, rng):
        Y, X, B = random_instance(rng, n=30, D=D, p=2)
        J, r, _ = self._reference(Y, X, alpha, B)
        assert self._close(gradient(Y, X, alpha, B), -(J.T @ r))

    @pytest.mark.parametrize("D", [2, 4])
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    def test_sandwich_is_h_inv_m_h_inv(self, D, alpha, rng):
        from alphareg import sandwich_covariance

        Y, X, B = random_instance(rng, n=30, D=D, p=2)
        J, r, scores = self._reference(Y, X, alpha, B)
        n, P = len(Y), B.size
        H_inv = np.linalg.inv(J.T @ J / n)
        sandwich = H_inv @ (scores.T @ scores / n) @ H_inv / n
        spherical = (r @ r) / (len(r) - P) * H_inv / n
        assert self._close(sandwich_covariance(Y, X, alpha, B).matrix, sandwich)
        assert self._close(
            sandwich_covariance(Y, X, alpha, B, kind="spherical").matrix, spherical)


class TestMinimumComponents:
    """Two-part compositions exercise every d=1 code path."""

    def test_full_stack_at_d_two(self, rng):
        from alphareg import (
            hessian_exact as hess,
            marginal_effects,
            sandwich_covariance,
        )

        n = 60
        X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 2))])
        B_star = np.array([[0.1], [0.5], [-0.4]])
        Y = fitted_mean(X, B_star)
        z = alpha_transform(Y, 0.5) + 0.05 * rng.standard_normal((n, 1))
        from alphareg import alpha_transform_inverse

        Y = alpha_transform_inverse(z, 0.5)
        fit = fit_alpha_regression(Y, X, 0.5)
        assert fit.coefficients.shape == (3, 1)
        assert np.max(np.abs(gradient(Y, X, 0.5, fit.coefficients))) < 1e-6
        H = hess(Y, X, 0.5, fit.coefficients)
        assert H.shape == (3, 3) and np.max(np.abs(H - H.T)) < 1e-10
        eff = marginal_effects(fit.coefficients, fit.fitted, 1)
        np.testing.assert_allclose(eff.sum(axis=1), 0.0, atol=1e-12)
        cov = sandwich_covariance(Y, X, 0.5, fit.coefficients)
        assert cov.matrix.shape == (3, 3)


class TestPredict:
    def test_training_rows_reproduce_fitted(self, rng):
        Y, X, _ = random_instance(rng, n=25, D=3, p=2)
        fit = fit_alpha_regression(Y, X, 1.0)
        np.testing.assert_array_equal(predict(X, fit), fit.fitted)

    def test_intercept_only_constant(self, rng):
        Y, _, _ = random_instance(rng, n=25, D=3, p=1)
        X = np.ones((25, 1))
        fit = fit_alpha_regression(Y, X, 1.0)
        out = predict(np.ones((5, 1)), fit)
        assert np.all(out == out[0])

    def test_rows_sum_to_one(self, rng):
        Y, X, _ = random_instance(rng, n=25, D=4, p=2)
        fit = fit_alpha_regression(Y, X, 0.5)
        np.testing.assert_allclose(
            predict(X[:10], fit).sum(axis=1), 1.0, atol=1e-12
        )


def batch_problems(rng, n=25, D=4, p=2, m=6):
    """Weights with zero and fractional entries (row 0 all ones, row 1 a
    leave-one-out fold), per-problem designs that share the intercept, and
    random parameter rows."""
    Y, X, _ = random_instance(rng, n=n, D=D, p=p)
    W = rng.uniform(0.0, 2.0, size=(m, n))
    W[:, ::4] = 0.0
    W[0], W[1] = 1.0, 1.0
    W[1, 3] = 0.0
    Xs = X + rng.normal(scale=0.2, size=(m, n, p + 1)) * (np.arange(p + 1) > 0)
    theta = rng.normal(scale=0.4, size=(m, (p + 1) * (D - 1)))
    return Y, X, Xs, W, theta


def whole_patches(rng, Xs):
    """Patches of every row, in a random order per problem, that make
    problem j's design ``Xs[j]`` (m, n, q)."""
    m, n, _ = Xs.shape
    rows = np.stack([rng.permutation(n) for _ in range(m)])
    return rows, np.take_along_axis(Xs, rows[:, :, None], axis=1)


class TestFitAlphaBatch:
    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1, 1e-3, 1e-6, 0.0, -1e-6, -0.5])
    @pytest.mark.parametrize("per_problem", [False, True])
    def test_normal_equations_match_residual_system(self, alpha, per_problem, rng):
        # D = 2 sums one residual component (no odd partial sum), D = 5 is
        # the bootstrap benchmark's shape; the centred normal equations
        # against the explicit ilr Jacobian, down to where (D u - 1)/alpha
        # cancels
        # per_problem: a patch of every row gives each problem its own design
        for D in (2, 3, 4, 5):
            Y, X, Xs, W, theta = batch_problems(rng, D=D)
            patches = whole_patches(rng, Xs) if per_problem else None
            residuals, normal_equations = regression._batch_system(
                regression._centred_response(Y, alpha), X, regression._outer_rows(X), W, alpha,
                patches=patches)
            rows = np.arange(len(W))
            _, sse_ = residuals(theta, rows)
            JtJ, g = np.empty((len(W),) + 2 * theta.shape[1:]), np.empty(theta.shape)
            assert normal_equations(theta, rows, rows, JtJ, g).all()
            for j in rows:
                system = residual_system(Y, Xs[j] if per_problem else X, alpha, weights=W[j])
                J, res, w = system.jacobian_fn(theta[j]), system.residual_fn(theta[j]), system.weights
                want_JtJ, want_g = J.T @ (w[:, None] * J), J.T @ (w * res)
                assert np.max(np.abs(JtJ[j] - want_JtJ)) <= 1e-12 * np.max(np.abs(want_JtJ)), D
                assert np.max(np.abs(g[j] - want_g)) <= 1e-12 * np.max(np.abs(want_g)), D
                assert abs(sse_[j] - w @ res ** 2) <= 1e-12 * (w @ res ** 2), D

    @pytest.mark.parametrize("per_problem", [False, True])
    def test_matches_independent_solves(self, per_problem, rng):
        Y, X, Xs, W, _ = batch_problems(rng, n=30, D=3, p=1)
        patches = whole_patches(rng, Xs) if per_problem else None
        W[4] = 0.0  # no data at all
        theta0 = np.tile(fit_alpha_regression(Y, X, 0.5).lm.theta, (len(W), 1))
        theta0[2] = -10.0  # far out: the damping must reject steps
        theta0[3, 0] = np.nan  # fails alone
        outcomes = fit_alpha_batch(Y, X, 0.5, W, theta0, patches=patches)
        assert isinstance(outcomes[3], NonFiniteResidual)
        assert isinstance(outcomes[4], DegenerateWeights)
        assert outcomes[2].rejections > 0
        for j in (0, 1, 2, 5):
            system = residual_system(Y, Xs[j] if per_problem else X, 0.5, weights=W[j])
            want = levenberg_marquardt(system, theta0[j])
            got = outcomes[j]
            assert (got.iterations, got.converged_by) == (want.iterations, want.converged_by)
            np.testing.assert_allclose(got.theta, want.theta, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_infinite_start_is_a_non_finite_residual(self, alpha, rng):
        # the clamp keeps the mean finite at an infinite coefficient, so the
        # start is checked itself: at alpha 0.5 it used to return a fit at inf
        Y, X, _ = random_instance(rng, n=20, D=3, p=1)
        theta0 = np.array([np.inf, 0.0, 0.0, 0.0])
        with pytest.raises(NonFiniteResidual, match="residual is non-finite"):
            fit_alpha_regression(Y, X, alpha, theta0=theta0)

    def test_residuals_carry_the_logit_map(self, rng):
        # normal_equations reads u from the residuals instead of forming it
        Y, X, Xs, W, theta = batch_problems(rng)
        for alpha in (0.5, 0.0):
            residuals, _ = regression._batch_system(
                regression._centred_response(Y, alpha), X, regression._outer_rows(X), W, alpha)
            ru, _ = residuals(theta, np.arange(len(W)))
            B = theta.reshape(len(W), -1, X.shape[1]).transpose(0, 2, 1)
            for j in range(len(W)):
                np.testing.assert_array_equal(ru[Y.shape[1]:, j],
                                              regression._logit_map(X, alpha * B[j]))

    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.5])
    @pytest.mark.parametrize("kind", ["shared", "patches", "kernel"])
    def test_stack_system_is_each_problems_own_bitwise(self, alpha, kind, rng):
        # what keeps results independent of chunking: a problem's SSE, J'WJ
        # and J'Wr in a stack equal bit for bit those of its one-problem
        # system, for residuals of the whole stack or of a proper subset,
        # and for normal equations gathered from part of a residuals call
        Y, X, Xs, W, theta = batch_problems(rng, n=30, D=4, p=2, m=7)
        patches = None
        if kind == "patches":  # 4 rows each, replaced by the problem's own
            rows = np.stack([rng.choice(30, 4, replace=False) for _ in range(7)])
            patches = rows, np.take_along_axis(Xs, rows[:, :, None], axis=1)
        elif kind == "kernel":
            coords = rng.uniform(size=(30, 2))
            W = np.exp(-((coords[:7, None] - coords[None]) ** 2).sum(axis=-1) / 0.1)
        y_c, outer = regression._centred_response(Y, alpha), regression._outer_rows(X)
        m, P = theta.shape
        residuals, normal_equations = regression._batch_system(y_c, X, outer, W, alpha,
                                                               patches=patches)
        for rows in (np.arange(m), np.array([0, 2, 3, 6])):
            _, sse = residuals(theta[rows], rows)
            part = rows[1:]
            JtJ, g = np.full((m, P, P), np.nan), np.full((m, P), np.nan)
            assert normal_equations(theta[part], np.arange(1, len(rows)), part, JtJ, g).all()
            for at, j in enumerate(rows):
                one = np.arange(1)
                residuals1, normal_equations1 = regression._batch_system(
                    y_c, X, outer, W[j:j + 1], alpha,
                    patches=None if patches is None else tuple(a[j:j + 1] for a in patches))
                _, sse1 = residuals1(theta[j:j + 1], one)
                JtJ1, g1 = np.empty((1, P, P)), np.empty((1, P))
                normal_equations1(theta[j:j + 1], one, one, JtJ1, g1)
                assert sse[at] == sse1[0], (rows, j)
                if j in part:
                    np.testing.assert_array_equal(JtJ[j], JtJ1[0])
                    np.testing.assert_array_equal(g[j], g1[0])

    def test_chunks_do_not_change_results(self, rng, monkeypatch):
        # three kinds of stack: one shared design (alpha), patched designs
        # (slx, with weights built lazily) and kernel weights (gwar, built
        # lazily).  Starts near, at zero and far out make the problems stop
        # on different passes, so steps run on proper subsets of a chunk.  7
        # problems in chunks of 3 (the last has 1) or in one chunk match one
        # per chunk.
        Y, X, Xs, W, _ = batch_problems(rng, n=20, D=3, p=1, m=7)
        coords = rng.uniform(size=(20, 2))
        K = np.exp(-((coords[:7, None] - coords[None]) ** 2).sum(axis=-1) / 0.1)
        theta0 = np.tile(fit_alpha_regression(Y, X, 0.5).lm.theta, (7, 1))
        theta0[1::3] = 10.0
        theta0[2::3] = 0.0
        kinds = {
            "alpha": (W, None),
            "slx": (RowBlocks(7, lambda rows: W[rows]), whole_patches(rng, Xs)),
            "gwar": (RowBlocks(7, lambda rows: K[rows]), None),
        }
        monkeypatch.setattr(regression, "CHUNK_DOUBLES", 1)  # one problem per chunk
        assert regression._chunk_size(7, 20, 3, 2, 20) == 1
        for kind, (weights, patches) in kinds.items():
            alone = fit_alpha_batch(Y, X, 0.5, weights, theta0, patches=patches)
            assert len({o.iterations for o in alone}) > 1, kind
            assert any(o.rejections for o in alone), kind
            for size in (3, 7):
                monkeypatch.setattr(regression, "_chunk_size", lambda m, *shape: size)
                chunked = fit_alpha_batch(Y, X, 0.5, weights, theta0, patches=patches)
                for a, b in zip(alone, chunked):
                    np.testing.assert_array_equal(a.theta, b.theta)
                    assert (a.iterations, a.rejections, a.converged_by) == \
                        (b.iterations, b.rejections, b.converged_by), (kind, size)

    @pytest.mark.parametrize("per_problem", [False, True])
    def test_rejected_step_beside_an_accepted_one(self, per_problem, rng):
        # the first problem starts far out, and its steps are rejected on
        # passes where the second's are accepted, so normal_equations reads
        # some of the rows of a trial's residuals; each outcome must still be
        # its one-problem solve
        Y, X, Xs, W, _ = batch_problems(rng, n=20, D=3, p=1, m=2)
        patches = whole_patches(rng, Xs) if per_problem else None
        near = fit_alpha_regression(Y, X, 0.5).lm.theta
        theta0 = np.stack([np.full_like(near, -6.0), near + 0.05])
        y_c, outer = regression._centred_response(Y, 0.5), regression._outer_rows(X)
        residuals, normal_equations = regression._batch_system(
            y_c, X, outer, W, 0.5, patches=patches)
        formed = []

        def spy(theta, at, rows, JtJ, g):
            formed.append(tuple(rows))
            return normal_equations(theta, at, rows, JtJ, g)

        stacked = lm_batch(residuals, spy, theta0)
        assert stacked[0].rejections > 0
        assert (1,) in formed and formed.index((1,)) < max(
            i for i, rows in enumerate(formed) if 0 in rows)
        for j in range(2):
            alone, = lm_batch(*regression._batch_system(
                y_c, X, outer, W[j:j + 1], 0.5,
                patches=None if patches is None else tuple(a[j:j + 1] for a in patches)),
                theta0[j:j + 1])
            np.testing.assert_array_equal(stacked[j].theta, alone.theta)
            assert (stacked[j].iterations, stacked[j].rejections, stacked[j].converged_by) \
                == (alone.iterations, alone.rejections, alone.converged_by)


    def test_padded_patch_solves_as_the_unpadded_one(self, rng):
        # leave-one-out folds that each replace 3 other rows; padding a patch
        # with the fold's own row (weight 0, shared values) changes nothing,
        # and both solve as the fold's own design does
        Y, X, Xs, _, _ = batch_problems(rng, n=20, D=3, p=1, m=5)
        W = np.ones((5, 20))
        W[np.arange(5), np.arange(5)] = 0.0
        rows = np.stack([rng.choice(np.delete(np.arange(20), j), 3, replace=False)
                         for j in range(5)])
        patch = rows, Xs[np.arange(5)[:, None], rows]
        own = np.repeat(np.arange(5)[:, None], 2, axis=1)
        padded = np.hstack([rows, own]), np.concatenate([patch[1], X[own]], axis=1)
        theta0 = fit_alpha_regression(Y, X, 0.5).lm.theta
        narrow = fit_alpha_batch(Y, X, 0.5, W, theta0, patches=patch)
        wide = fit_alpha_batch(Y, X, 0.5, W, theta0, patches=padded)
        for j, (a, b) in enumerate(zip(narrow, wide)):
            np.testing.assert_allclose(a.theta, b.theta, rtol=0, atol=1e-13)
            assert (a.iterations, a.rejections, a.converged_by) == \
                (b.iterations, b.rejections, b.converged_by)
            design = patched_designs(X, patch)[j]
            want = levenberg_marquardt(residual_system(Y, design, 0.5, weights=W[j]), theta0)
            assert (a.iterations, a.converged_by) == (want.iterations, want.converged_by)
            np.testing.assert_allclose(a.theta, want.theta, rtol=0, atol=1e-10)


    def test_empty_patch_is_the_shared_design(self, rng):
        Y, X, _, W, _ = batch_problems(rng, n=20, D=3, p=1, m=3)
        theta0 = np.zeros(4)
        empty = np.zeros((3, 0), int), np.zeros((3, 0, 2))
        for a, b in zip(fit_alpha_batch(Y, X, 0.5, W, theta0),
                        fit_alpha_batch(Y, X, 0.5, W, theta0, patches=empty)):
            np.testing.assert_array_equal(a.theta, b.theta)
            assert (a.iterations, a.rejections) == (b.iterations, b.rejections)


class TestHeapStableSteps:
    """An LM step of a chunk writes its (., k, n) arrays into work arrays
    allocated by the chunk's first step, and the chunk size counts them."""

    N, D, P = 150, 4, 3  # an alpha-cv fold set

    def chunk(self, rng, per_problem=False):
        # per_problem: a patch of every row gives each problem its own design
        Y, X, _ = random_instance(rng, n=self.N, D=self.D, p=self.P)
        q, r = self.P + 1, self.N if per_problem else 0
        k = regression._chunk_size(self.N, self.N, self.D, q, r)
        W = np.ones((k, self.N))
        W[np.arange(k), np.arange(k)] = 0.0  # leave-one-out folds
        patches = whole_patches(rng, X + rng.normal(scale=0.1, size=(k, self.N, q))
                                * (np.arange(q) > 0)) if per_problem else None
        theta = rng.normal(scale=0.3, size=(k, q * (self.D - 1)))
        work = regression._Work(k, regression._work_doubles(self.N, self.D, q, r))
        system = regression._batch_system(regression._centred_response(Y, 0.5), X,
                                          regression._outer_rows(X), W, 0.5, work, patches)
        return system, theta, work, r

    @staticmethod
    def step(system, theta, rows):
        # the residuals of every problem, then the normal equations of rows,
        # gathered from them
        residuals, normal_equations = system
        k, P = theta.shape
        residuals(theta, np.arange(k))
        normal_equations(theta[rows], rows, rows, np.empty((k, P, P)), np.empty((k, P)))

    def test_steady_step_allocates_no_stack_sized_arrays(self, rng):
        system, theta, _, _ = self.chunk(rng)
        k = len(theta)
        every, some = np.arange(k), np.arange(1, k, 2)
        for rows in (every, some):  # the work arrays exist from here on
            self.step(system, theta, rows)
        residuals, normal_equations = system
        JtJ, g = np.empty((k,) + 2 * theta.shape[1:]), np.empty(theta.shape)
        peaks = []

        def peak(name, call, *args):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = call(*args)
            peaks.append((name, tracemalloc.get_traced_memory()[1] - held))
            return out

        tracemalloc.start()
        try:
            for rows in (every, some):
                peak("residuals", residuals, theta[rows] + 0.01, rows)
                peak("normal_equations", normal_equations, theta[rows], np.arange(len(rows)),
                     rows, JtJ, g)
        finally:
            tracemalloc.stop()
        # at most half of what a whole-stack step of 17 problems allocated
        # when every step made its own arrays: 342 KiB in residuals and
        # 643 KiB in normal_equations; and less than one (d+D, k, n) array
        limit = {"residuals": 342 * 1024 // 2, "normal_equations": 643 * 1024 // 2}
        for name, size in peaks:
            assert size <= limit[name], (name, size)
            assert size < k * self.N * (2 * self.D - 1) * 8, (name, size)

    @pytest.mark.parametrize("per_problem", [False, True])
    def test_one_block_holds_the_work_arrays(self, per_problem, rng):
        # after steps on all problems of a chunk and on the most a proper
        # subset has, every float work array is cut from the block, which
        # _work_doubles, and so _chunk_size, sizes exactly
        system, theta, work, r = self.chunk(rng, per_problem)
        k = len(theta)
        self.step(system, theta, np.arange(k))
        self.step(system, theta, np.arange(1, k))
        floats = [a for a in work.arrays.values() if a.dtype == np.float64]
        assert all(np.shares_memory(a, work.block) for a in floats)
        assert work.used == work.block.size == k * regression._work_doubles(
            self.N, self.D, self.P + 1, r)

    def test_block_capped_at_the_chunk_budget(self, rng, monkeypatch):
        # one problem that alone needs more than CHUNK_DOUBLES gets a block of
        # at most CHUNK_DOUBLES; the regions it has no room for are allocated
        # apart, and the fit is the same, bit for bit
        Y, X, _ = random_instance(rng, n=300, D=self.D, p=self.P)
        want = fit_alpha_regression(Y, X, 0.5)
        works = []

        class Recorded(regression._Work):
            def __init__(self, capacity, doubles):
                super().__init__(capacity, doubles)
                works.append(self)

        cap = regression._work_doubles(300, self.D, self.P + 1, 0) // 3
        monkeypatch.setattr(regression, "_Work", Recorded)
        monkeypatch.setattr(regression, "CHUNK_DOUBLES", cap)
        got = fit_alpha_regression(Y, X, 0.5)
        (work,) = works
        assert 0 < work.used <= work.block.size <= cap
        floats = [a for a in work.arrays.values() if a.dtype == np.float64]
        assert not all(np.shares_memory(a, work.block) for a in floats)
        np.testing.assert_array_equal(got.lm.theta, want.lm.theta)
        assert (got.sse, got.lm.iterations) == (want.sse, want.lm.iterations)


class TestOneSolvePath:
    """A plain or weighted fit is the one-problem call of the batch kernel;
    the stacked residual system and its solver are the reference."""

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1, 0.0, -0.5])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_stacked_residual_solve(self, alpha, weighted, rng):
        Y, X, _ = random_instance(rng, n=40, D=4, p=2)
        w = rng.uniform(0.2, 2.0, size=40) if weighted else None
        fit = fit_alpha_regression(Y, X, alpha, weights=w)
        system = residual_system(Y, X, alpha, weights=w)
        want = levenberg_marquardt(system, np.zeros(system.n_params))
        assert (fit.lm.iterations, fit.lm.converged_by) == \
            (want.iterations, want.converged_by)
        np.testing.assert_allclose(fit.lm.theta, want.theta, rtol=0, atol=1e-10)
        r = system.residual_fn(want.theta)  # unweighted
        B = want.theta.reshape(fit.coefficients.shape, order="F")
        np.testing.assert_allclose(fit.sse, r @ r, rtol=1e-12, atol=0)
        np.testing.assert_allclose(fit.kld, kld(Y, fitted_mean(X, B)), rtol=1e-12, atol=0)

    def test_zero_weights_are_degenerate(self, rng):
        Y, X, _ = random_instance(rng, n=20, D=3, p=1)
        with pytest.raises(DegenerateWeights):
            fit_alpha_regression(Y, X, 0.5, weights=np.zeros(20))

    @pytest.mark.parametrize("case", [
        "batch_nan_row", "batch_inf", "batch_minus_inf", "batch_wrong_length",
        "fit_nan", "fit_inf", "fit_wrong_length", "fit_1d_design", "fit_wrong_start",
        "batch_starts_of_other_m", "batch_dampings_of_other_m", "batch_patches_of_other_m",
        "batch_patch_values_shape", "batch_patch_row_outside", "batch_patch_float_rows",
        "batch_patch_row_twice",
    ])
    def test_bad_weights_and_designs_are_data_errors(self, case, rng):
        Y, X, _ = random_instance(rng, n=20, D=3, p=1)

        def one_bad(value):  # weight 1 but at row 3
            return np.where(np.arange(20) == 3, value, 1.0)

        def batch(row, n=20):
            W = np.ones((3, n))
            W[1] = row
            return fit_alpha_batch(Y, X, 0.5, W, np.zeros(4))

        def fit(**kwargs):
            return fit_alpha_regression(Y, kwargs.pop("X", X), 0.5, **kwargs)

        def stack(theta0=np.zeros(4), **kwargs):  # 3 problems
            return fit_alpha_batch(Y, X, 0.5, np.ones((3, 20)), theta0, **kwargs)

        def patched(rows, shape):  # zero values of the given shape
            return stack(patches=(rows, np.zeros(shape)))

        error, call = {
            "batch_nan_row": (NegativeWeight, lambda: batch(np.nan)),
            "batch_inf": (NegativeWeight, lambda: batch(one_bad(np.inf))),
            "batch_minus_inf": (NegativeWeight, lambda: batch(one_bad(-np.inf))),
            "batch_wrong_length": (DimensionMismatch, lambda: batch(1.0, n=19)),
            "fit_nan": (NegativeWeight, lambda: fit(weights=one_bad(np.nan))),
            "fit_inf": (NegativeWeight, lambda: fit(weights=one_bad(np.inf))),
            "fit_wrong_length": (DimensionMismatch, lambda: fit(weights=np.ones(19))),
            "fit_1d_design": (DimensionMismatch, lambda: fit(X=X[:, 1])),
            "fit_wrong_start": (DimensionMismatch, lambda: fit(theta0=np.zeros(3))),
            "batch_starts_of_other_m": (DimensionMismatch, lambda: stack(np.zeros((2, 4)))),
            "batch_dampings_of_other_m": (DimensionMismatch, lambda: stack(damping0=np.ones(2))),
            "batch_patches_of_other_m": (DimensionMismatch,
                                         lambda: patched(np.zeros((2, 1), int), (2, 1, 2))),
            "batch_patch_values_shape": (DimensionMismatch,
                                         lambda: patched(np.zeros((3, 1), int), (3, 2, 2))),
            "batch_patch_row_outside": (DimensionMismatch,
                                        lambda: patched(np.full((3, 1), 20), (3, 1, 2))),
            "batch_patch_float_rows": (DimensionMismatch,
                                       lambda: patched(np.zeros((3, 1)), (3, 1, 2))),
            # row 1 twice, at weight 1
            "batch_patch_row_twice": (InvalidParameters,
                                      lambda: patched(np.ones((3, 2), int), (3, 2, 2))),
        }[case]
        with pytest.raises(error, match="finite and nonnegative" if error is NegativeWeight
                           else None):
            call()
