"""Metamorphic tests: changes to the input that must not change the result.

Relabelling the components, reordering the rows (with their locations, for
the spatial models), rescaling a covariate or writing a row twice instead of
weighting it 2 all describe the same model, so the fit must not move beyond
the solver's tolerance.  Each bound sits a little above the largest gap
measured over the seeds here with a tight solver (``sse_rel_tol`` 1e-15).
"""

import numpy as np
import pytest

from alphareg import GeoCoordinates, fit_alpha_regression, fit_gwar
from alphareg.datasets import synthesize
from alphareg.inference import average_marginal_effects
from alphareg.optim import LmOptions
from alphareg.regression import fit_alpha_batch
from alphareg.spatial import neighbor_lag, neighbor_table

TIGHT = LmOptions(sse_rel_tol=1e-15)
SEEDS = range(5)


def data(seed, mode="none"):
    sim = synthesize(150, 4, 2, 0.5, 0.05, spatial_mode=mode, seed=seed)
    return sim["Y"], sim["X"], sim["coords"]


def permuted(coords, rows):
    return GeoCoordinates.from_degrees(coords.lat[rows], coords.lon[rows])


@pytest.mark.parametrize("seed", SEEDS)
class TestPlainModel:
    def test_component_order(self, seed):
        # relabelling the components moves the reference one: the fitted
        # compositions, put back in order, and the SSE stay (gaps 4.1e-11
        # and 1.5e-15 relative)
        Y, X, _ = data(seed)
        perm = np.random.default_rng(seed).permutation(Y.shape[1])
        base = fit_alpha_regression(Y, X, 0.5, opts=TIGHT)
        fit = fit_alpha_regression(Y[:, perm], X, 0.5, opts=TIGHT)
        np.testing.assert_allclose(fit.fitted[:, np.argsort(perm)], base.fitted,
                                   rtol=0, atol=2e-10)
        assert abs(fit.sse - base.sse) <= 5e-15 * base.sse

    def test_row_order(self, seed):
        # gap 4.8e-13
        Y, X, _ = data(seed)
        rows = np.random.default_rng(seed).permutation(len(Y))
        base = fit_alpha_regression(Y, X, 0.5, opts=TIGHT)
        fit = fit_alpha_regression(Y[rows], X[rows], 0.5, opts=TIGHT)
        np.testing.assert_allclose(fit.coefficients, base.coefficients, rtol=0, atol=5e-12)

    def test_covariate_scale(self, seed):
        # x1 in units 10 times smaller: the same fitted compositions, and an
        # effect per unit of x1 a tenth of the old (gaps 2.1e-11 and 2.3e-12)
        Y, X, _ = data(seed)
        scaled = X.copy()
        scaled[:, 1] *= 10.0
        base = fit_alpha_regression(Y, X, 0.5, opts=TIGHT)
        fit = fit_alpha_regression(Y, scaled, 0.5, opts=TIGHT)
        np.testing.assert_allclose(fit.fitted, base.fitted, rtol=0, atol=1e-10)
        np.testing.assert_allclose(10.0 * average_marginal_effects(fit, 1),
                                   average_marginal_effects(base, 1), rtol=0, atol=1e-11)
        np.testing.assert_allclose(average_marginal_effects(fit, 2),
                                   average_marginal_effects(base, 2), rtol=0, atol=1e-11)

    def test_duplicated_row_is_weight_two(self, seed):
        # gap 1.1e-16
        Y, X, _ = data(seed)
        j = 7
        weights = np.ones((1, len(Y)))
        weights[0, j] = 2.0
        start = np.zeros(X.shape[1] * (Y.shape[1] - 1))
        weighted, = fit_alpha_batch(Y, X, 0.5, weights, start, TIGHT)
        twice, = fit_alpha_batch(np.vstack([Y, Y[j]]), np.vstack([X, X[j]]), 0.5,
                                 np.ones((1, len(Y) + 1)), start, TIGHT)
        np.testing.assert_allclose(twice.theta, weighted.theta, rtol=0, atol=1e-13)
        np.testing.assert_allclose(twice.final_sse, weighted.final_sse, rtol=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
class TestSpatialModels:
    def test_slx_row_order(self, seed):
        # rows and their locations reordered together: every row keeps its
        # neighbors (no ties here, which go to the lower index), and the
        # coefficients stay (gap 6.6e-10; the Gram-form distances move the
        # lag by up to 2.3e-11)
        Y, X, coords = data(seed, "slx")
        rows = np.random.default_rng(seed).permutation(len(Y))
        idx, d2 = neighbor_table(coords, 3)
        moved_idx, moved_d2 = neighbor_table(permuted(coords, rows), 3)
        np.testing.assert_array_equal(rows[moved_idx], idx[rows])
        base = fit_alpha_regression(Y, np.hstack([X, neighbor_lag(idx, d2, X)]), 0.5,
                                    opts=TIGHT)
        design = np.hstack([X[rows], neighbor_lag(moved_idx, moved_d2, X[rows])])
        fit = fit_alpha_regression(Y[rows], design, 0.5, opts=TIGHT)
        np.testing.assert_allclose(fit.coefficients, base.coefficients, rtol=0, atol=3e-9)

    def test_gwar_row_order(self, seed):
        # each location's coefficients follow its row (gap 2.8e-8)
        Y, X, coords = data(seed, "two_cluster")
        rows = np.random.default_rng(seed).permutation(len(Y))
        base = fit_gwar(Y, X, coords, 0.5, 0.05, opts=TIGHT)
        fit = fit_gwar(Y[rows], X[rows], permuted(coords, rows), 0.5, 0.05, opts=TIGHT)
        np.testing.assert_allclose(fit.local_coefficients, base.local_coefficients[rows],
                                   rtol=0, atol=1e-7)
