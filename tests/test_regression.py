"""Model core: mean map, collapsed transform identity, objective, analytic
derivatives against finite differences, and the fit itself."""

import numpy as np
import pytest

from alphareg import (
    DimensionMismatch,
    alpha_transform,
    fit_alpha_regression,
    fitted_mean,
    gradient,
    hessian_exact,
    hessian_gauss_newton,
    predict,
    residual_system,
    sse,
    transformed_mean,
)
from alphareg.regression import coef_to_theta
from conftest import fd_gradient, fd_hessian, random_instance, rel_err


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
        from alphareg.regression import _mean_jacobian

        _, X, B = random_instance(rng, n=20, D=4, p=2)
        A = _mean_jacobian(X, B, 0.0)
        H = helmert_submatrix(4)
        np.testing.assert_allclose(A, np.broadcast_to(H[:, 1:], A.shape), atol=1e-15)

    def test_shapes(self, rng):
        Y, X, B = random_instance(rng, n=10, D=4, p=1)
        system = residual_system(Y, X, 1.0)
        assert system.n_residuals == 10 * 3
        assert system.n_params == 2 * 3
        assert system.residual_fn(np.zeros(6)).shape == (30,)
        assert system.jacobian_fn(np.zeros(6)).shape == (30, 6)


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
