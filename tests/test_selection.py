"""Divergence scoring, the bandwidth heuristic, and the three leave-one-out
searches, including their determinism and failure conventions."""

import numpy as np
import pytest

from alphareg import (
    AllCoincident,
    CvGrid,
    GeoCoordinates,
    InvalidParameters,
    NonpositiveFitted,
    NumericalError,
    ShapeMismatch,
    ZeroWithNonpositiveAlpha,
    closure,
    default_h_grid,
    default_k_grid,
    fit_alpha_regression,
    kld,
    loocv_alpha,
    loocv_gwar,
    loocv_slx,
    median_heuristic_bandwidth,
)
from alphareg.datasets import synthesize
from alphareg.spatial import pairwise_chordal_sq


class TestKld:
    def test_identical_is_zero(self, rng):
        y = rng.dirichlet(np.ones(3), size=10)
        assert kld(y, y) == 0.0

    def test_zero_cell_closed_form(self):
        # (1, 0) against (0.5, 0.5): only the support contributes, log 2
        assert abs(kld([[1.0, 0.0]], [[0.5, 0.5]]) - np.log(2.0)) < 1e-14

    def test_nonnegative_random(self, rng):
        y = rng.dirichlet(np.ones(4), size=30)
        m = rng.dirichlet(np.ones(4), size=30)
        assert kld(y, m) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            kld(np.ones((2, 3)) / 3, np.ones((3, 3)) / 3)

    def test_nonpositive_fitted(self):
        with pytest.raises(NonpositiveFitted):
            kld([[0.5, 0.5]], [[1.0, 0.0]])


class TestMedianHeuristic:
    def test_two_points_single_distance(self):
        coords = GeoCoordinates.from_degrees([10.0, 11.0], [20.0, 20.0])
        d = np.sqrt(pairwise_chordal_sq(coords.cart)[0, 1])
        assert abs(median_heuristic_bandwidth(coords) - d) < 1e-15

    def test_all_coincident(self):
        coords = GeoCoordinates.from_degrees([10.0] * 4, [20.0] * 4)
        with pytest.raises(AllCoincident):
            median_heuristic_bandwidth(coords)

    def test_matches_brute_force_sort(self, rng):
        coords = GeoCoordinates.from_degrees(
            rng.uniform(30, 40, 25), rng.uniform(10, 20, 25)
        )
        dists = []
        for i in range(25):
            for j in range(i + 1, 25):
                dists.append(np.sqrt(
                    pairwise_chordal_sq(coords.cart)[i, j]
                ))
        oracle = float(np.median(sorted(dists)))
        assert abs(median_heuristic_bandwidth(coords) - oracle) < 1e-15


class TestDefaultHGrid:
    def test_increasing_and_spans_median(self, rng):
        coords = GeoCoordinates.from_degrees(
            rng.uniform(30, 40, 15), rng.uniform(10, 20, 15)
        )
        grid = default_h_grid(coords)
        med = median_heuristic_bandwidth(coords)
        assert np.all(np.diff(grid) > 0)
        assert grid[0] < med < grid[-1]
        np.testing.assert_allclose(grid[0], med / 16.0, rtol=1e-12)
        np.testing.assert_allclose(grid[-1], 4.0 * med, rtol=1e-12)
        assert len(grid) == 10


class TestLoocvAlpha:
    def test_single_grid_point(self, rng):
        sim = synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=0.05, seed=0)
        cv = loocv_alpha(sim["Y"], sim["X"], CvGrid(alphas=(0.5,)))
        assert cv.best == (0.5,)
        assert cv.scores.shape == (1,)

    def test_best_attains_minimum(self, rng):
        sim = synthesize(n=30, D=3, p=1, alpha=0.5, noise_scale=0.1, seed=1)
        cv = loocv_alpha(sim["Y"], sim["X"], CvGrid(alphas=(0.25, 0.5, 1.0)))
        assert cv.scores.min() == cv.scores[list(cv.alphas).index(cv.best[0])]
        assert np.all(cv.scores >= 0)

    def test_parallel_equals_serial(self, rng):
        sim = synthesize(n=24, D=3, p=1, alpha=0.5, noise_scale=0.1, seed=2)
        grid = CvGrid(alphas=(0.5, 1.0))
        cv1 = loocv_alpha(sim["Y"], sim["X"], grid, threads=1)
        cv4 = loocv_alpha(sim["Y"], sim["X"], grid, threads=4)
        np.testing.assert_array_equal(cv1.scores, cv4.scores)

    def test_zeros_with_nonpositive_alpha_rejected(self, rng):
        sim = synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=0.05, seed=3)
        Y = sim["Y"].copy()
        Y[0, 0] = 0.0
        Y = closure(Y)
        with pytest.raises(ZeroWithNonpositiveAlpha):
            loocv_alpha(Y, sim["X"], CvGrid(alphas=(-0.5, 0.5)))

    def test_needs_three_observations(self, rng):
        sim = synthesize(n=10, D=3, p=1, alpha=0.5, noise_scale=0.05, seed=4)
        with pytest.raises(InvalidParameters):
            loocv_alpha(sim["Y"][:2], sim["X"][:2], CvGrid(alphas=(0.5,)))

    def test_in_sample_beats_uniform_baseline(self, rng):
        sim = synthesize(n=500, D=3, p=2, alpha=0.5, noise_scale=0.05, seed=5)
        fit = fit_alpha_regression(sim["Y"], sim["X"], 0.5)
        uniform = np.full_like(sim["Y"], 1.0 / 3.0)
        assert fit.kld <= kld(sim["Y"], uniform)


    def test_every_fold_failing_raises(self, monkeypatch):
        from alphareg import NonFiniteResidual, selection

        sim = synthesize(n=12, D=3, p=1, alpha=0.5, noise_scale=0.1, seed=4)
        real_fit = selection.fit_alpha_regression
        calls = []

        def fails_after_warm_start(Y, X, alpha, **kwargs):
            calls.append(alpha)
            if len(calls) > 2:  # the two full-data warm-start fits succeed
                raise NonFiniteResidual("forced failure")
            return real_fit(Y, X, alpha, **kwargs)

        monkeypatch.setattr(selection, "fit_alpha_regression", fails_after_warm_start)
        with pytest.raises(NumericalError):
            loocv_alpha(sim["Y"], sim["X"], CvGrid(alphas=(0.5, 1.0)))


class TestLoocvSlx:
    def test_gamma_zero_keeps_plain_competitive(self):
        # without true spillovers the lagged model should not win decisively
        wins = 0
        for seed in range(10):
            sim = synthesize(n=36, D=3, p=1, alpha=0.5, noise_scale=0.1,
                             spatial_mode="none", seed=seed)
            coords = GeoCoordinates.from_degrees(
                np.random.default_rng(seed).uniform(36, 41, 36),
                np.random.default_rng(seed + 100).uniform(20, 26, 36),
            )
            plain = loocv_alpha(sim["Y"], sim["X"], CvGrid(alphas=(0.5,)))
            slx = loocv_slx(sim["Y"], sim["X"], coords,
                            CvGrid(alphas=(0.5,), ks=(3,)))
            if slx.scores.min() < plain.scores.min():
                wins += 1
        assert wins <= 5

    def test_parallel_equals_serial(self):
        sim = synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=6)
        grid = CvGrid(alphas=(0.5,), ks=(3, 5))
        cv1 = loocv_slx(sim["Y"], sim["X"], sim["coords"], grid, threads=1)
        cv4 = loocv_slx(sim["Y"], sim["X"], sim["coords"], grid, threads=4)
        np.testing.assert_array_equal(cv1.scores, cv4.scores)
        assert cv1.scores.shape == (1, 2)

    def test_boundary_k_values_score_without_errors(self):
        sim = synthesize(n=12, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=7)
        n = 12
        cv = loocv_slx(sim["Y"], sim["X"], sim["coords"],
                       CvGrid(alphas=(0.5,), ks=(n - 2, n - 1)))
        assert np.isfinite(cv.scores[0, 0])
        assert np.isinf(cv.scores[0, 1])  # k = n-1 infeasible inside folds
        assert cv.best == (0.5, n - 2)


    def test_every_grid_point_infeasible_raises(self):
        # k = n-1 fits the full data but no (n-1)-point fold
        sim = synthesize(n=12, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=7)
        with pytest.raises(NumericalError):
            loocv_slx(sim["Y"], sim["X"], sim["coords"],
                      CvGrid(alphas=(0.5,), ks=(11,)))

    def test_default_k_grid_fits_inside_folds(self):
        assert default_k_grid(40) == (3, 5, 7, 9)
        assert default_k_grid(9) == (3, 5, 7)
        assert default_k_grid(4) == ()


class TestLoocvGwar:
    def test_flat_bandwidth_matches_plain(self):
        sim = synthesize(n=25, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="two_cluster", seed=8)
        plain = loocv_alpha(sim["Y"], sim["X"], CvGrid(alphas=(0.5,)))
        gw = loocv_gwar(sim["Y"], sim["X"], sim["coords"],
                        CvGrid(alphas=(0.5,), hs=(1e6,)))
        assert abs(gw.scores[0, 0] - plain.scores[0]) < 1e-4

    def test_spatial_heterogeneity_prefers_finite_h(self):
        sim = synthesize(n=40, D=3, p=1, alpha=0.5, noise_scale=0.03,
                         spatial_mode="two_cluster", seed=9)
        med = median_heuristic_bandwidth(sim["coords"])
        cv = loocv_gwar(sim["Y"], sim["X"], sim["coords"],
                        CvGrid(alphas=(0.5,), hs=(med / 8.0, 1e6)))
        assert cv.best[1] == med / 8.0

    def test_deterministic_across_threads(self):
        sim = synthesize(n=18, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="two_cluster", seed=10)
        grid = CvGrid(alphas=(0.5,), hs=(0.02, 1e6))
        cv1 = loocv_gwar(sim["Y"], sim["X"], sim["coords"], grid, threads=1)
        cv4 = loocv_gwar(sim["Y"], sim["X"], sim["coords"], grid, threads=4)
        np.testing.assert_array_equal(cv1.scores, cv4.scores)

    def test_degenerate_bandwidth_scores_inf(self):
        sim = synthesize(n=15, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="two_cluster", seed=11)
        cv = loocv_gwar(sim["Y"], sim["X"], sim["coords"],
                        CvGrid(alphas=(0.5,), hs=(1e-9, 1e6)))
        assert np.isinf(cv.scores[0, 0])
        assert np.isfinite(cv.scores[0, 1])


    def test_every_bandwidth_degenerate_raises(self):
        sim = synthesize(n=15, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="two_cluster", seed=11)
        with pytest.raises(NumericalError):
            loocv_gwar(sim["Y"], sim["X"], sim["coords"],
                       CvGrid(alphas=(0.5,), hs=(1e-9,)))


class TestCvGrid:
    def test_sorted_and_validated(self):
        grid = CvGrid(alphas=(1.0, 0.25), ks=(7, 3), hs=(0.2, 0.1))
        assert grid.alphas == (0.25, 1.0)
        assert grid.ks == (3, 7)
        assert grid.hs == (0.1, 0.2)
        with pytest.raises(InvalidParameters):
            CvGrid(alphas=())
        with pytest.raises(InvalidParameters):
            CvGrid(hs=(0.0,))
        with pytest.raises(InvalidParameters):
            CvGrid(alphas=(2.0,))
