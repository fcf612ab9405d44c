"""Marginal effects (plain, decomposed, location-specific) and the three
covariance estimators, cross-checked against finite differences and each
other on simulated data."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from alphareg import (
    Convergence,
    GwarFit,
    InterceptEffectRequested,
    InvalidParameters,
    LmOptions,
    NumericalError,
    RowBlocks,
    SingularH,
    average_marginal_effects,
    bootstrap_ame_standard_errors,
    bootstrap_covariance,
    fit_alpha_regression,
    fit_alpha_slx,
    fit_gwar,
    fitted_mean,
    gwar_marginal_effects,
    marginal_effects,
    neighbor_lag,
    neighbor_table,
    sandwich_covariance,
    slx_effects,
)
from alphareg import inference, regression
from alphareg.datasets import synthesize
from alphareg.simplex import alpha_transform, alpha_transform_inverse
from conftest import random_instance


def homoskedastic_sim(rng, n, D=3, p=1, alpha=0.5, sigma=0.08):
    """Means from modest coefficients, Gaussian noise in transformed space."""
    X = np.hstack([np.ones((n, 1)), rng.uniform(-1.0, 1.0, size=(n, p))])
    B = rng.uniform(-0.5, 0.5, size=(p + 1, D - 1))
    z = alpha_transform(fitted_mean(X, B), alpha)
    z = z + sigma * rng.standard_normal(z.shape)
    return alpha_transform_inverse(z, alpha), X, B


class TestMarginalEffects:
    def test_zero_coefficient_row_gives_zero(self, rng):
        Y, X, B = random_instance(rng, n=10, D=3, p=2)
        B[1] = 0.0
        eff = marginal_effects(B, fitted_mean(X, B), 1)
        np.testing.assert_allclose(eff, 0.0, atol=1e-15)

    def test_two_part_closed_form(self):
        # mu = (0.5, 0.5) and unit coefficient: effects are -+0.25
        B = np.array([[0.0], [1.0]])
        eff = marginal_effects(B, np.array([[0.5, 0.5]]), 1)
        np.testing.assert_allclose(eff, [[-0.25, 0.25]], atol=1e-15)

    def test_rows_sum_to_zero(self, rng):
        Y, X, B = random_instance(rng, n=30, D=5, p=3)
        mu = fitted_mean(X, B)
        for k in range(1, 4):
            eff = marginal_effects(B, mu, k)
            np.testing.assert_allclose(eff.sum(axis=1), 0.0, atol=1e-12)

    def test_intercept_rejected(self, rng):
        Y, X, B = random_instance(rng, n=5, D=3, p=1)
        with pytest.raises(InterceptEffectRequested):
            marginal_effects(B, fitted_mean(X, B), 0)

    @pytest.mark.parametrize("k", [1.5, np.float64(2.0), "1"],
                             ids=["float", "numpy-float", "string"])
    @pytest.mark.parametrize("entry", ["marginal_effects", "average_marginal_effects",
                                       "slx_effects", "gwar_marginal_effects"])
    def test_non_integer_covariate_index_rejected(self, entry, k, rng):
        # an int or numpy integer, never truncated: 1.5 used to raise a bare
        # IndexError, and "1" a TypeError
        Y, X, B = random_instance(rng, n=6, D=3, p=2)
        mu = fitted_mean(X, B)
        calls = {
            "marginal_effects": lambda k: marginal_effects(B, mu, k),
            "average_marginal_effects": lambda k: average_marginal_effects(
                SimpleNamespace(coefficients=B, fitted=mu), k),
            "slx_effects": lambda k: slx_effects(SimpleNamespace(beta=B, gamma=B, fitted=mu), k).total,
            "gwar_marginal_effects": lambda k: gwar_marginal_effects(
                SimpleNamespace(local_coefficients=np.stack([B] * 6), fitted=mu), k),
        }
        with pytest.raises(InvalidParameters, match="must be an integer"):
            calls[entry](k)
        np.testing.assert_array_equal(calls[entry](np.int64(2)), calls[entry](2))

    def test_matches_finite_difference_of_mean(self, rng):
        Y, X, B = random_instance(rng, n=12, D=4, p=2)
        mu = fitted_mean(X, B)
        k, h = 1, 1e-6
        eff = marginal_effects(B, mu, k)
        Xp, Xm = X.copy(), X.copy()
        Xp[:, k] += h
        Xm[:, k] -= h
        fd = (fitted_mean(Xp, B) - fitted_mean(Xm, B)) / (2 * h)
        assert np.max(np.abs(eff - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-5


class TestAverageEffects:
    def test_single_observation_equals_row(self, rng):
        Y, X, B = random_instance(rng, n=20, D=3, p=1)
        fit = fit_alpha_regression(Y[:1], X[:1], 1.0)
        ame = average_marginal_effects(fit, 1)
        row = marginal_effects(fit.coefficients, fit.fitted, 1)[0]
        np.testing.assert_allclose(ame, row, atol=1e-15)

    def test_zero_sum_and_manual_mean(self, rng):
        Y, X, B = random_instance(rng, n=30, D=4, p=2)
        fit = fit_alpha_regression(Y, X, 0.5)
        ame = average_marginal_effects(fit, 2)
        table = marginal_effects(fit.coefficients, fit.fitted, 2)
        np.testing.assert_allclose(ame, table.mean(axis=0), atol=1e-15)
        assert abs(ame.sum()) < 1e-12


class TestSlxEffects:
    @pytest.fixture
    def slx_fit(self, rng):
        sim = synthesize(n=60, D=3, p=2, alpha=0.5, noise_scale=0.05,
                         spatial_mode="slx", seed=12)
        lag = neighbor_lag(*neighbor_table(sim["coords"], 4), sim["X"])
        return fit_alpha_slx(sim["Y"], sim["X"], lag, 0.5)

    def test_zero_gamma_collapses(self, slx_fit):
        import dataclasses

        fit = dataclasses.replace(slx_fit, gamma=np.zeros_like(slx_fit.gamma))
        eff = slx_effects(fit, 1)
        np.testing.assert_allclose(eff.indirect, 0.0, atol=1e-15)
        np.testing.assert_allclose(eff.total, eff.direct, atol=1e-15)

    def test_equal_coefficients_equal_effects(self, slx_fit):
        import dataclasses

        fit = dataclasses.replace(slx_fit, gamma=slx_fit.beta.copy())
        eff = slx_effects(fit, 2)
        np.testing.assert_allclose(eff.indirect, eff.direct, atol=1e-15)

    def test_additivity_and_zero_sums(self, slx_fit):
        for k in (1, 2):
            eff = slx_effects(slx_fit, k)
            np.testing.assert_allclose(
                eff.total, eff.direct + eff.indirect, atol=1e-12
            )
            for table in (eff.direct, eff.indirect, eff.total):
                np.testing.assert_allclose(table.sum(axis=1), 0.0, atol=1e-12)


class TestGwarEffects:
    def test_flat_kernel_matches_global(self):
        sim = synthesize(n=50, D=3, p=1, alpha=0.5, noise_scale=0.05,
                         spatial_mode="two_cluster", seed=2)
        gfit = fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, 1e6)
        glob = fit_alpha_regression(sim["Y"], sim["X"], 0.5)
        eff_local = gwar_marginal_effects(gfit, 1)
        eff_global = marginal_effects(glob.coefficients, glob.fitted, 1)
        assert np.max(np.abs(eff_local - eff_global)) < 1e-6
        np.testing.assert_allclose(eff_local.sum(axis=1), 0.0, atol=1e-12)

    def test_zero_local_coefficients_zero_effects(self):
        sim = synthesize(n=40, D=3, p=1, alpha=0.5, noise_scale=0.05,
                         spatial_mode="two_cluster", seed=3)
        gfit = fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, 0.02)
        gfit.local_coefficients[7, 1, :] = 0.0
        eff = gwar_marginal_effects(gfit, 1)
        np.testing.assert_allclose(eff[7], 0.0, atol=1e-15)

    def test_batched_rows_match_per_location_loop(self):
        sim = synthesize(n=40, D=4, p=2, alpha=0.5, noise_scale=0.05,
                         spatial_mode="two_cluster", seed=5)
        gfit = fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, 0.02)
        for k in (1, 2):
            loop = np.vstack([
                marginal_effects(gfit.local_coefficients[i], gfit.fitted[i : i + 1], k)
                for i in range(40)
            ])
            np.testing.assert_allclose(gwar_marginal_effects(gfit, k), loop,
                                       rtol=0, atol=1e-14)

    def test_rebuilt_fit_has_the_fitted_fits_effects(self):
        # a fit rebuilt from its coefficients, as run.predict_model builds
        # one, stores no means: they follow from its coefficients
        sim = synthesize(n=40, D=3, p=2, alpha=0.5, noise_scale=0.05,
                         spatial_mode="two_cluster", seed=5)
        gfit = fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, 0.02)
        rebuilt = GwarFit(alpha=gfit.alpha, h=gfit.h, train_Y=sim["Y"], train_X=sim["X"],
                          train_coords=sim["coords"], opts=LmOptions(),
                          local_coefficients=gfit.local_coefficients,
                          global_coefficients=gfit.global_coefficients)
        assert rebuilt.diagnostics is None
        for k in (1, 2):
            np.testing.assert_array_equal(gwar_marginal_effects(rebuilt, k),
                                          gwar_marginal_effects(gfit, k))
        assert rebuilt.kld == gfit.kld


class TestCountWeightedAmes:
    """The vectorised AME pass on one design per fit (k, n_k, q): a locally
    weighted fit is its n one-row fits."""

    @pytest.mark.parametrize("rows", [1, 2, 6])
    def test_per_fit_designs(self, rows, rng):
        k, q, D = 5, 3, 4
        X = np.concatenate([np.ones((k, rows, 1)), rng.normal(size=(k, rows, q - 1))], axis=2)
        B = rng.uniform(-1.0, 1.0, size=(k, q, D - 1))
        c = rng.integers(1, 4, size=(k, rows)).astype(float)
        got = inference._count_weighted_ames(X, B, c)
        assert got.shape == (k, q - 1, D)
        for f in range(k):
            mu = fitted_mean(X[f], B[f])
            want = [c[f] @ marginal_effects(B[f], mu, j) / rows for j in range(1, q)]
            np.testing.assert_allclose(got[f], want, rtol=0, atol=1e-13)

    def test_shared_design_is_the_broadcast_per_fit_design(self, rng):
        k, n, q = 4, 7, 3
        X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, q - 1))])
        B = rng.uniform(-1.0, 1.0, size=(k, q, 3))
        c = rng.integers(0, 3, size=(k, n)).astype(float)
        np.testing.assert_allclose(
            inference._count_weighted_ames(np.broadcast_to(X, (k, n, q)), B, c),
            inference._count_weighted_ames(X, B, c), rtol=0, atol=1e-13)


class TestSandwich:
    def test_symmetry_and_psd(self, rng):
        Y, X, B = homoskedastic_sim(rng, 300)
        fit = fit_alpha_regression(Y, X, 0.5)
        cov = sandwich_covariance(Y, X, 0.5, fit.coefficients)
        assert np.max(np.abs(cov.matrix - cov.matrix.T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(cov.matrix)) >= 0.0
        assert np.all(np.diag(cov.matrix) >= 0)

    def test_spherical_close_on_homoskedastic_data(self, rng):
        Y, X, B = homoskedastic_sim(rng, 2000)
        fit = fit_alpha_regression(Y, X, 0.5)
        sand = sandwich_covariance(Y, X, 0.5, fit.coefficients)
        sph = sandwich_covariance(Y, X, 0.5, fit.coefficients, kind="spherical")
        ratio = np.diag(sand.matrix) / np.diag(sph.matrix)
        assert np.all(ratio > 0.75) and np.all(ratio < 1.25)

    def test_residual_scaling_scales_covariance(self, rng):
        Y, X, B = homoskedastic_sim(rng, 200, sigma=0.05)
        fit = fit_alpha_regression(Y, X, 0.5)
        Bh = fit.coefficients
        c = 3.0
        m = alpha_transform(fitted_mean(X, Bh), 0.5)
        z_scaled = m + c * (alpha_transform(Y, 0.5) - m)
        Y_scaled = alpha_transform_inverse(z_scaled, 0.5)
        cov1 = sandwich_covariance(Y, X, 0.5, Bh)
        cov2 = sandwich_covariance(Y_scaled, X, 0.5, Bh)
        np.testing.assert_allclose(cov2.matrix, c**2 * cov1.matrix, rtol=1e-9)

    def test_singular_design_detected(self, rng):
        Y, _, _ = random_instance(rng, n=40, D=3, p=1)
        x = rng.normal(size=40)
        X = np.column_stack([np.ones(40), x, x])  # duplicated covariate
        for kind in ("sandwich", "spherical"):
            with pytest.raises(SingularH):
                sandwich_covariance(Y, X, 0.5, np.zeros((3, 2)), kind)
            with pytest.raises(SingularH):  # fewer rows than design columns
                sandwich_covariance(Y[:2], rng.normal(size=(2, 4)), 0.5, np.zeros((4, 2)), kind)

    @pytest.mark.parametrize("kind", ["sandwich", "spherical"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_covariate_offset_and_units_keep_the_standard_errors(self, seed, kind):
        # x1 + c with the intercept less c times x1's row, and x1 * s with x1's
        # row over s, are the same model: the slopes' SEs stay, x1's over s
        ds = synthesize(200, 4, 3, 0.5, 0.05, seed=seed)
        Y, X = ds["Y"], ds["X"]
        B = fit_alpha_regression(Y, X, 0.5).coefficients

        def se(X_moved, B_moved):
            cov = sandwich_covariance(Y, X_moved, 0.5, B_moved, kind).matrix
            return regression.theta_to_coef(np.sqrt(np.diag(cov)), 4, 3)

        base = se(X, B)
        for c in (1e3, 1e4, 1e5):
            X_c, B_c = X.copy(), B.copy()
            X_c[:, 1] += c
            B_c[0] -= c * B[1]
            np.testing.assert_allclose(se(X_c, B_c)[1:], base[1:], rtol=1e-9, atol=0)
        for s in (1e3, 1e-3):
            X_s, B_s, expected = X.copy(), B.copy(), base.copy()
            X_s[:, 1] *= s
            B_s[1] /= s
            expected[1] /= s
            np.testing.assert_allclose(se(X_s, B_s), expected, rtol=1e-12, atol=0)


class TestBootstrap:
    def test_deterministic_given_seed(self, rng):
        Y, X, B = homoskedastic_sim(rng, 80)
        cov1 = bootstrap_covariance(Y, X, 0.5, replicates=20, seed=42)
        cov2 = bootstrap_covariance(Y, X, 0.5, replicates=20, seed=42)
        np.testing.assert_array_equal(cov1.matrix, cov2.matrix)
        assert cov1.replicates == 20

    @pytest.mark.parametrize("settings", [
        {"replicates": 2.5}, {"replicates": "5"}, {"seed": -1}, {"seed": 1.5},
    ], ids=["replicates-fraction", "replicates-text", "seed-negative", "seed-fraction"])
    def test_bad_setting_rejected(self, rng, settings):
        Y, X, _ = homoskedastic_sim(rng, 20)
        with pytest.raises(InvalidParameters, match=next(iter(settings))):
            bootstrap_covariance(Y, X, 0.5, **settings)

    def test_zero_noise_collapses(self, rng):
        n, p = 150, 1
        X = np.hstack([np.ones((n, 1)), rng.uniform(-1, 1, size=(n, p))])
        B = np.array([[0.2, -0.1], [0.4, 0.3]])
        Y = fitted_mean(X, B)
        cov = bootstrap_covariance(Y, X, 0.5, replicates=20, seed=0)
        assert np.max(np.diag(cov.matrix)) < 1e-6

    def test_close_to_sandwich_on_simulated_data(self, rng):
        Y, X, B = homoskedastic_sim(rng, 500)
        fit = fit_alpha_regression(Y, X, 0.5)
        sand = sandwich_covariance(Y, X, 0.5, fit.coefficients)
        boot = bootstrap_covariance(Y, X, 0.5, replicates=300, seed=11)
        se_s = np.sqrt(np.diag(sand.matrix))
        se_b = np.sqrt(np.diag(boot.matrix))
        assert np.all(np.abs(se_b / se_s - 1.0) < 0.25)

    def test_failed_replicates_counted_and_bounded(self, rng, monkeypatch):
        from alphareg import NumericalError, exceptions

        Y, X, B = homoskedastic_sim(rng, 50)
        fail_replicates(monkeypatch, {rep: exceptions.SingularNormalEquations("forced")
                                      for rep in (9, 19)})
        cov = bootstrap_covariance(Y, X, 0.5, replicates=20, seed=1)
        assert cov.failed_replicates == 2
        assert cov.replicates + cov.failed_replicates == 20

        fail_replicates(monkeypatch, {rep: exceptions.SingularNormalEquations("forced")
                                      for rep in range(20)})
        with pytest.raises(NumericalError):
            bootstrap_covariance(Y, X, 0.5, replicates=20, seed=1)


def fail_replicates(monkeypatch, failures):
    """Make the bootstrap's batch return ``failures[rep]``, an exception, as
    the outcome of each replicate ``rep`` it names."""
    real_batch = inference.fit_alpha_batch

    def batch(*args, **kwargs):
        return [failures.get(rep, outcome)
                for rep, outcome in enumerate(real_batch(*args, **kwargs))]

    monkeypatch.setattr(inference, "fit_alpha_batch", batch)


def resample(seed, rep, n):
    """Replicate ``rep``'s draw of row indices, as the bootstrap makes it."""
    return np.random.default_rng([seed, rep]).integers(0, n, size=n)


def draw_counts(seed, rep, n):
    """How often replicate ``rep`` drew each of the n rows (0 if never)."""
    return np.bincount(resample(seed, rep, n), minlength=n)


def two_pass_oracle(Y, X, alpha, replicates, seed, skip=()):
    """The bootstrap as two loops over the same resamples, each refit on all
    rows weighted by their draw counts, from the full-data fit's parameters
    and final damping: coefficient draws for the covariance, count-weighted
    AME draws for the SEs."""
    n, p = len(Y), X.shape[1] - 1
    start = fit_alpha_regression(Y, X, alpha).lm
    warm = {"theta0": start.theta, "damping0": start.damping}
    resamples = [draw_counts(seed, rep, n) for rep in range(replicates) if rep not in skip]
    thetas = [fit_alpha_regression(Y, X, alpha, weights=counts, **warm).lm.theta
              for counts in resamples]
    ames = []
    for counts in resamples:
        fit = fit_alpha_regression(Y, X, alpha, weights=counts, **warm)
        ames.append([counts @ marginal_effects(fit.coefficients, fit.fitted, k) / n
                     for k in range(1, p + 1)])
    cov = np.cov(np.vstack(thetas), rowvar=False, ddof=1)
    return cov, np.std(np.array(ames), axis=0, ddof=1)


class TestBootstrapSinglePass:
    @pytest.mark.parametrize("failing_rep", [None, 3])
    def test_matches_two_pass_oracle(self, rng, monkeypatch, failing_rep):
        Y, X, _ = homoskedastic_sim(rng, 60, D=4, p=2)
        R, seed = 12, 9
        oracle_cov, oracle_se = two_pass_oracle(
            Y, X, 0.5, R, seed, skip=() if failing_rep is None else (failing_rep,))
        if failing_rep is not None:
            fail_replicates(monkeypatch, {failing_rep: NumericalError("forced")})
        cov = bootstrap_covariance(Y, X, 0.5, replicates=R, seed=seed)
        np.testing.assert_array_equal(cov.matrix, oracle_cov)
        # the AME pass sums over rows and covariates in another order than
        # marginal_effects does, so the effects move at rounding level
        np.testing.assert_allclose(cov.ame_standard_errors, oracle_se, rtol=1e-13, atol=0)
        assert cov.failed_replicates == (0 if failing_rep is None else 1)
        assert cov.replicates + cov.failed_replicates == R

    def test_one_refit_per_replicate_from_theta0(self, rng, monkeypatch):
        Y, X, _ = homoskedastic_sim(rng, 50)
        start = fit_alpha_regression(Y, X, 0.5).lm
        assert start.damping > 0
        real_fit, real_batch = inference.fit_alpha_regression, inference.fit_alpha_batch
        fits, batches = [], []

        def fit(*args, **kwargs):
            fits.append(kwargs.get("theta0"))
            return real_fit(*args, **kwargs)

        def batch(Y, X, alpha, weights, theta0, opts=None, damping0=None):
            batches.append((weights, theta0, damping0))
            return real_batch(Y, X, alpha, weights, theta0, opts, damping0)

        monkeypatch.setattr(inference, "fit_alpha_regression", fit)
        monkeypatch.setattr(inference, "fit_alpha_batch", batch)
        warm = bootstrap_covariance(Y, X, 0.5, replicates=8, seed=2, start=start)
        assert fits == [] and len(batches) == 1
        weights, theta0, damping0 = batches[0]
        assert isinstance(weights, RowBlocks) and len(weights) == 8
        assert theta0 is start.theta and damping0 == start.damping
        cold = bootstrap_covariance(Y, X, 0.5, replicates=8, seed=2)
        assert fits == [None] and len(batches) == 2  # the full-data fit, from B = 0
        np.testing.assert_array_equal(warm.matrix, cold.matrix)
        np.testing.assert_array_equal(warm.ame_standard_errors,
                                      cold.ame_standard_errors)

    def test_ame_wrapper_returns_the_field(self, rng):
        Y, X, _ = homoskedastic_sim(rng, 40)
        cov = bootstrap_covariance(Y, X, 0.5, replicates=6, seed=1)
        se = bootstrap_ame_standard_errors(Y, X, 0.5, replicates=6, seed=1)
        np.testing.assert_array_equal(se, cov.ame_standard_errors)

    def test_intercept_only_has_empty_ame_table(self, rng):
        Y = rng.dirichlet(np.array([3.0, 2.0, 1.0]), size=40)
        cov = bootstrap_covariance(Y, np.ones((40, 1)), 0.5, replicates=6, seed=0)
        assert cov.matrix.shape == (2, 2)
        assert cov.ame_standard_errors.shape == (0, 3)

    def test_analytic_estimators_have_no_ame_errors(self, rng):
        Y, X, _ = homoskedastic_sim(rng, 40)
        fit = fit_alpha_regression(Y, X, 0.5)
        for kind in ("sandwich", "spherical"):
            cov = sandwich_covariance(Y, X, 0.5, fit.coefficients, kind=kind)
            assert cov.ame_standard_errors is None


class TestCountWeightedReplicates:
    """A replicate weights every row by its draw count, 0 if never drawn."""

    def test_matches_the_fit_on_the_resampled_rows(self, rng):
        n, R, seed = 200, 8, 4
        Y, X, _ = homoskedastic_sim(rng, n, D=4, p=2)
        start = fit_alpha_regression(Y, X, 0.5).lm
        cov = bootstrap_covariance(Y, X, 0.5, replicates=R, seed=seed, start=start)

        def assert_close(got, want):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

        thetas, ames = [], []
        for rep in range(R):
            idx = resample(seed, rep, n)
            assert len(np.unique(idx)) < n  # so some rows have weight 0
            full = fit_alpha_regression(Y[idx], X[idx], 0.5, theta0=start.theta,
                                        damping0=start.damping)
            thetas.append(full.lm.theta)
            ames.append([average_marginal_effects(full, k) for k in (1, 2)])
        assert_close(cov.matrix, np.cov(np.vstack(thetas), rowvar=False, ddof=1))
        assert_close(cov.ame_standard_errors, np.std(np.array(ames), axis=0, ddof=1))


def mean_iterations(cov):
    histogram = cov.diagnostics["iterations"]
    return sum(int(i) * count for i, count in histogram.items()) / cov.replicates


class TestWarmBootstrap:
    """Replicates continue from the full-data fit's final damping."""

    @pytest.fixture
    def data(self, rng):
        Y, X, _ = homoskedastic_sim(rng, 500, D=4, p=2)
        return Y, X, fit_alpha_regression(Y, X, 0.5).lm

    def test_zero_damping_start_uses_the_cold_rule(self, rng):
        Y, X, _ = homoskedastic_sim(rng, 80, D=3, p=1)
        full = fit_alpha_regression(Y, X, 0.5).lm
        # refit at the optimum with a loose gradient test: stops before a step
        start = fit_alpha_regression(Y, X, 0.5, opts=LmOptions(grad_inf_tol=1e3),
                                     theta0=full.theta).lm
        assert start.converged_by is Convergence.GRAD_TOL
        assert start.iterations == 0 and start.damping == 0.0
        cov = bootstrap_covariance(Y, X, 0.5, replicates=6, seed=5, start=start)
        cold = [fit_alpha_regression(Y, X, 0.5, theta0=start.theta,
                                     weights=draw_counts(5, rep, 80)).lm.theta
                for rep in range(6)]
        np.testing.assert_array_equal(cov.matrix, np.cov(np.vstack(cold), rowvar=False))

    def test_fewer_iterations_than_the_cold_rule(self, data):
        Y, X, full = data
        warm = bootstrap_covariance(Y, X, 0.5, replicates=12, seed=1, start=full)
        cold = bootstrap_covariance(Y, X, 0.5, replicates=12, seed=1,
                                    start=dataclasses.replace(full, damping=0.0))
        assert mean_iterations(warm) < mean_iterations(cold)
        # a fresh bootstrap fits its own start and continues from it too
        fresh = bootstrap_covariance(Y, X, 0.5, replicates=12, seed=1)
        np.testing.assert_array_equal(fresh.matrix, warm.matrix)

    def test_no_farther_from_a_tight_oracle_than_the_cold_rule(self, rng):
        # the worst error over three data sets; on a single one the cold rule
        # can come out slightly closer (2.2e-8 against 2.5e-8 on the first)
        tight = LmOptions(sse_rel_tol=1e-15)
        worst = {"warm": np.zeros(2), "cold": np.zeros(2)}
        for _ in range(3):
            Y, X, _ = homoskedastic_sim(rng, 500, D=4, p=2)
            full = fit_alpha_regression(Y, X, 0.5).lm
            oracle = bootstrap_covariance(Y, X, 0.5, opts=tight, replicates=12, seed=2)
            se_o = np.sqrt(np.diag(oracle.matrix))
            for rule, damping in (("warm", full.damping), ("cold", 0.0)):
                cov = bootstrap_covariance(Y, X, 0.5, replicates=12, seed=2,
                                           start=dataclasses.replace(full, damping=damping))
                errors = (np.max(np.abs(np.sqrt(np.diag(cov.matrix)) - se_o)) / np.max(se_o),
                          np.max(np.abs(cov.ame_standard_errors - oracle.ame_standard_errors))
                          / np.max(oracle.ame_standard_errors))
                worst[rule] = np.maximum(worst[rule], errors)
        assert np.all(worst["warm"] <= worst["cold"])


class TestBootstrapChunks:
    @pytest.mark.parametrize("size", [1, 3])
    def test_chunks_do_not_change_the_estimate(self, size, rng, monkeypatch):
        # count weights, drawn again for each chunk, warm damping, and one
        # start shared by every replicate: 7 replicates in chunks of 1 or 3
        # give what one chunk of all 7 gives, bit for bit
        Y, X, _ = homoskedastic_sim(rng, 120, D=4, p=2)
        start = fit_alpha_regression(Y, X, 0.5).lm
        assert start.damping > 0
        covs = []
        for chunk in (7, size):
            monkeypatch.setattr(regression, "_chunk_size", lambda m, *shape: chunk)
            covs.append(bootstrap_covariance(Y, X, 0.5, replicates=7, seed=3, start=start))
        whole, chunked = covs
        np.testing.assert_array_equal(chunked.matrix, whole.matrix)
        np.testing.assert_array_equal(chunked.ame_standard_errors, whole.ame_standard_errors)
        assert chunked.diagnostics == whole.diagnostics
        assert chunked.replicates == 7

    def test_ame_blocks_do_not_change_the_effects(self, rng, monkeypatch):
        # the AME pass over blocks of one replicate gives what one block of
        # every solved replicate gives, bit for bit, with a failed replicate
        # dropped from both
        Y, X, _ = homoskedastic_sim(rng, 120, D=4, p=2)
        start = fit_alpha_regression(Y, X, 0.5).lm
        fail_replicates(monkeypatch, {2: NumericalError("forced")})
        real_ames, blocks, covs = inference._count_weighted_ames, [], []

        def ames(X, B, c):
            blocks.append(len(B))
            return real_ames(X, B, c)

        monkeypatch.setattr(inference, "_count_weighted_ames", ames)
        for doubles in (1 << 40, 1):
            monkeypatch.setattr(inference, "AME_DOUBLES", doubles)
            covs.append(bootstrap_covariance(Y, X, 0.5, replicates=7, seed=3, start=start))
        assert blocks == [6] + [1] * 6
        whole, single = covs
        np.testing.assert_array_equal(single.ame_standard_errors, whole.ame_standard_errors)


class TestBootstrapDiagnostics:
    def test_counts_cover_every_replicate(self, rng):
        Y, X, _ = homoskedastic_sim(rng, 60)
        cov = bootstrap_covariance(Y, X, 0.5, replicates=9, seed=6)
        diag = cov.diagnostics
        assert list(diag["converged_by"]) == [c.value for c in Convergence]
        assert sum(diag["converged_by"].values()) == 9
        assert sum(diag["iterations"].values()) == 9
        keys = [int(i) for i in diag["iterations"]]
        assert keys == sorted(keys) and min(keys) >= 0
        assert diag["failed"] == {}

    def test_failed_replicates_by_exception_type(self, rng, monkeypatch):
        from alphareg import exceptions

        Y, X, _ = homoskedastic_sim(rng, 50)
        fail_replicates(monkeypatch, {2: exceptions.SingularNormalEquations("forced"),
                                      4: exceptions.NonFiniteResidual("forced"),
                                      6: exceptions.SingularNormalEquations("forced")})
        start = fit_alpha_regression(Y, X, 0.5).lm
        cov = bootstrap_covariance(Y, X, 0.5, replicates=20, seed=1, start=start)
        assert cov.failed_replicates == 3
        assert cov.diagnostics["failed"] == {"NonFiniteResidual": 1,
                                             "SingularNormalEquations": 2}
        assert sum(cov.diagnostics["converged_by"].values()) == 17
        assert sum(cov.diagnostics["iterations"].values()) == 17

    def test_failures_recorded_exactly_on_every_run(self, rng, monkeypatch):
        from alphareg import exceptions

        Y, X, _ = homoskedastic_sim(rng, 40)
        R, seed, failing = 24, 7, (2, 9, 15, 20)
        fail_replicates(monkeypatch, {rep: exceptions.SingularNormalEquations("forced")
                                      for rep in failing})
        results = [bootstrap_covariance(Y, X, 0.5, replicates=R, seed=seed)
                   for _ in range(3)]
        for cov in results:
            assert cov.failed_replicates == len(failing)
            assert cov.diagnostics == results[0].diagnostics
            assert cov.diagnostics["failed"] == {"SingularNormalEquations": len(failing)}

    def test_analytic_estimators_have_no_diagnostics(self, rng):
        Y, X, _ = homoskedastic_sim(rng, 40)
        fit = fit_alpha_regression(Y, X, 0.5)
        assert sandwich_covariance(Y, X, 0.5, fit.coefficients).diagnostics is None


class TestSolverDiagnostics:
    def test_counts_reasons_iterations_and_failures(self):
        from alphareg import LmResult, NonFiniteResidual, SingularNormalEquations

        lm = [LmResult(theta=np.zeros(1), final_sse=0.0, iterations=i, converged_by=c)
              for i, c in [(3, Convergence.SSE_TOL), (2, Convergence.GRAD_TOL),
                           (3, Convergence.SSE_TOL), (10, Convergence.MAX_ITER)]]
        outcomes = [lm[0], NonFiniteResidual("x"), lm[1], lm[2],
                    SingularNormalEquations("y"), lm[3], NonFiniteResidual("z")]
        assert inference.solver_diagnostics(outcomes) == {
            "converged_by": {"sse_tol": 2, "grad_tol": 1, "max_iter": 1, "stalled": 0},
            "iterations": {"2": 1, "3": 2, "10": 1},
            "failed": {"NonFiniteResidual": 2, "SingularNormalEquations": 1},
        }

    def test_empty(self):
        assert inference.solver_diagnostics([]) == {
            "converged_by": {c.value: 0 for c in Convergence},
            "iterations": {}, "failed": {}}
