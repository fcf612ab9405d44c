"""Divergence scoring, the bandwidth heuristic, and the three leave-one-out
searches, including their determinism and failure conventions."""

import numpy as np
import pytest

from alphareg import (
    AllCoincident,
    CvGrid,
    GeoCoordinates,
    InvalidK,
    InvalidParameters,
    NonpositiveFitted,
    NumericalError,
    RunConfig,
    ShapeMismatch,
    ZeroWithNonpositiveAlpha,
    closure,
    contiguity_matrix,
    default_h_grid,
    default_k_grid,
    fit_alpha_regression,
    fitted_mean,
    kld,
    loocv_alpha,
    loocv_gwar,
    loocv_slx,
    median_heuristic_bandwidth,
    run_cv,
    run_fit,
    sandwich_covariance,
    select,
)
from alphareg import regression, selection, spatial
from alphareg.datasets import synthesize
from alphareg.regression import theta_to_coef
from alphareg.spatial import pairwise_chordal_sq
from conftest import patched_designs


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


def count_engine_calls(monkeypatch):
    """Count a search's full-data fits and the size of each fold set it solves."""
    calls = {"fit": 0, "batch": []}
    fit, batch = selection.fit_alpha_regression, selection.fit_alpha_batch

    def counted_fit(*a, **kw):
        calls["fit"] += 1
        return fit(*a, **kw)

    def counted_batch(*a, **kw):
        calls["batch"].append(len(a[3]))
        return batch(*a, **kw)

    monkeypatch.setattr(selection, "fit_alpha_regression", counted_fit)
    monkeypatch.setattr(selection, "fit_alpha_batch", counted_batch)
    return calls


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
        calls = []

        def every_fold_fails(Y, X, alpha, weights, theta0, *args, **kwargs):
            calls.append(alpha)
            return [NonFiniteResidual("forced failure")] * len(weights)

        # the full-data warm-start fits succeed; every fold set fails
        monkeypatch.setattr(selection, "fit_alpha_batch", every_fold_fails)
        with pytest.raises(NumericalError):
            loocv_alpha(sim["Y"], sim["X"], CvGrid(alphas=(0.5, 1.0)))
        assert calls == [0.5, 1.0]

    def test_per_fold_matches_plain_fold_loop(self, monkeypatch):
        sim = synthesize(n=20, D=3, p=2, alpha=0.5, noise_scale=0.1, seed=12)
        Y, X, n = sim["Y"], sim["X"], 20
        alphas = (0.25, 0.5, 1.0)
        oracle = np.empty((n, len(alphas)))
        warm = None
        for ai, a in enumerate(alphas):
            full = fit_alpha_regression(Y, X, a, theta0=warm)
            warm = full.lm.theta
            theta0, damping0 = selection._fold_start(full)
            for i in range(n):
                mask = np.arange(n) != i
                fit = fit_alpha_regression(Y[mask], X[mask], a, theta0=theta0,
                                           damping0=damping0)
                oracle[i, ai] = kld(Y[i : i + 1],
                                    fitted_mean(X[i : i + 1], fit.coefficients))
        calls = count_engine_calls(monkeypatch)
        cv = loocv_alpha(Y, X, CvGrid(alphas=alphas))
        # a fold is a zero-weight row, so J'WJ sums in another order
        np.testing.assert_allclose(cv.per_fold, oracle, rtol=1e-9, atol=0)
        np.testing.assert_allclose(cv.scores, oracle.sum(axis=0), rtol=1e-11, atol=0)
        assert calls["fit"] == len(alphas)  # the warm starts
        assert calls["batch"] == [n] * len(alphas)  # one fold set per alpha


class TestLoocvSlx:
    @pytest.mark.parametrize("n, error, message", [
        (2, InvalidParameters, "at least 3 observations"),
        (3, InvalidK, r"n=3 .* k <= n-2 = 1"),
        (4, InvalidK, r"n=4 .* k <= n-2 = 2"),
    ])
    def test_too_few_rows_for_the_default_k_grid(self, n, error, message):
        # no ks given: the error names the sample size, not an empty grid
        sim = synthesize(n=12, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=7)
        coords = GeoCoordinates.from_degrees(sim["coords"].lat[:n], sim["coords"].lon[:n])
        with pytest.raises(error, match=message):
            loocv_slx(sim["Y"][:n], sim["X"][:n], coords, CvGrid(alphas=(0.5,)))

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

    def test_boundary_k_values_score_without_errors(self):
        sim = synthesize(n=12, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=7)
        n = 12
        args = (sim["Y"], sim["X"], sim["coords"])
        cv = loocv_slx(*args, CvGrid(alphas=(0.5,), ks=(n - 2,)))
        assert np.isfinite(cv.scores[0, 0])
        assert cv.best == (0.5, n - 2)
        with pytest.raises(InvalidK, match=f"1 <= k <= {n - 2} .*, got {n - 1}$"):
            loocv_slx(*args, CvGrid(alphas=(0.5,), ks=(n - 2, n - 1)))

    def test_infeasible_k_gets_no_warm_start_fit(self, monkeypatch):
        # refused before any fit: no warm start and no fold set, for any k
        sim = synthesize(n=12, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=7)
        calls = count_engine_calls(monkeypatch)
        with pytest.raises(InvalidK):
            loocv_slx(sim["Y"], sim["X"], sim["coords"], CvGrid(alphas=(0.5,), ks=(10, 11)))
        assert calls == {"fit": 0, "batch": []}

    def test_every_grid_point_infeasible_raises(self):
        # k = n-1 fits the full data but no (n-1)-point fold: a bad setting,
        # not a numerical failure
        sim = synthesize(n=12, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=7)
        with pytest.raises(InvalidK, match="must satisfy 1 <= k <= 10 in a leave-one-out fold of 11"):
            loocv_slx(sim["Y"], sim["X"], sim["coords"],
                      CvGrid(alphas=(0.5,), ks=(11,)))

    def test_missing_k_grid_is_the_default_k_grid(self):
        # the same default as select("slx", ...): no grid, or one without ks
        sim = synthesize(n=12, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=7)
        args = (sim["Y"], sim["X"], sim["coords"])
        bare = loocv_slx(*args)
        assert bare.ks == default_k_grid(12) and bare.alphas == CvGrid().alphas
        assert loocv_slx(*args, CvGrid(alphas=(0.5,))).ks == default_k_grid(12)
        np.testing.assert_array_equal(bare.scores, select("slx", *args).scores)

    def test_default_k_grid_fits_inside_folds(self):
        assert default_k_grid(40) == (3, 5, 7, 9)
        assert default_k_grid(9) == (3, 5, 7)
        assert default_k_grid(4) == ()


def rebuilt_fold_scores(Y, X, coords, alphas, ks):
    """Leave-one-out slx scores with every fold's W rebuilt from scratch.

    Each fold builds ``contiguity_matrix`` on the retained locations and lags
    the held-out row by its k nearest retained points, distances taken
    directly against that row.  Each model is the plain one on ``[X | W x]``;
    warm starts chain through the full-data fits in grid order, and the
    folds start from each one as the engine starts them.  Returns per-fold
    scores of shape (n, alphas, ks).
    """
    n = Y.shape[0]
    out = np.full((n, len(alphas), len(ks)), np.inf)
    warm = None
    for ai, a in enumerate(alphas):
        for ki, k in enumerate(ks):
            full = fit_alpha_regression(
                Y, np.hstack([X, contiguity_matrix(coords, k) @ X[:, 1:]]), a, theta0=warm)
            warm = full.lm.theta
            theta0, damping0 = selection._fold_start(full)
            for i in range(n):
                mask = np.arange(n) != i
                sub = GeoCoordinates(lat=coords.lat[mask], lon=coords.lon[mask],
                                     cart=coords.cart[mask])
                design = np.hstack([X[mask], contiguity_matrix(sub, k) @ X[mask][:, 1:]])
                fit = fit_alpha_regression(Y[mask], design, a, theta0=theta0,
                                           damping0=damping0)
                d2 = np.maximum(2.0 * (1.0 - sub.cart @ coords.cart[i]), 0.0)
                nb = np.argsort(d2, kind="stable")[:k]
                w = 1.0 / np.maximum(d2[nb], 1e-12)
                lag = (w / w.sum()) @ X[mask][nb, 1:]
                x_aug = np.concatenate([X[i], lag])[None, :]
                out[i, ai, ki] = kld(Y[i : i + 1], fitted_mean(x_aug, fit.coefficients))
    return out


# Three groups of three points on a parallel, the outer two of each group at
# longitudes symmetric about the middle one: their distances to it tie
# exactly, in the Gram form of the table and in the direct dot products of
# the rebuild alike.  (Some symmetric pairs are 1 ulp apart in one form and
# tied in the other, which would compare the two distance formulas rather
# than the fold neighbors; the group at 3-5 is irregular for that reason.)
TIE_LAT = [10.0, 10.0, 10.0, 10.4, 10.0, 9.7, 12.0, 12.0, 12.0, 11.0, 11.0, 11.0]
TIE_LON = [20.0, 21.0, 19.0, 25.0, 26.1, 24.3, 20.0, 21.0, 19.0, 22.5, 23.5, 21.5]


def _fold_data(lat, lon, seed):
    n = len(lat)
    sim = synthesize(n=n, D=3, p=1, alpha=0.5, noise_scale=0.1,
                     spatial_mode="none", seed=seed)
    return sim["Y"], sim["X"], GeoCoordinates.from_degrees(lat, lon)


def _fold_layout(case):
    """Latitudes, longitudes and k grid of a neighbor-table test layout."""
    lat, lon, ks = TIE_LAT, TIE_LON, (1, 2)
    if case == "coincident":
        # observations 12 and 13 share the locations of 3 and 9
        lat, lon, ks = lat + [lat[3], lat[9]], lon + [lon[3], lon[9]], (1, 3)
    elif case == "boundary":
        ks = (1, len(lat) - 2)  # the least k and the largest a fold can use
    return lat, lon, ks


def reference_fold_designs(X, idx, d2, rows, k):
    """The whole (len(rows), n, 2p+1) designs of folds ``rows``: every row j
    lagged by its k nearest table entries other than fold i, entry k only
    replacing a dropped i."""
    shape = (len(rows), len(X), k + 1)
    keep = idx[:, : k + 1] != rows[:, None, None]
    keep[:, :, k] = ~keep[:, :, :k].all(axis=2)
    nb = np.broadcast_to(idx[:, : k + 1], shape)[keep].reshape(shape[:2] + (k,))
    nb_d2 = np.broadcast_to(d2[:, : k + 1], shape)[keep].reshape(nb.shape)
    return np.concatenate([np.broadcast_to(X, shape[:2] + X.shape[1:]),
                           spatial.neighbor_lag(nb, nb_d2, X)], axis=2)


class TestLoocvSlxNeighborTable:
    @pytest.mark.parametrize("case", ["tie", "coincident", "boundary"])
    def test_matches_per_fold_rebuild(self, case):
        lat, lon, ks = _fold_layout(case)
        Y, X, coords = _fold_data(lat, lon, seed=11)
        n = len(lat)
        if case == "tie":
            # location 0's nearest is 1 by index alone: dropping 1 promotes 2
            d2 = pairwise_chordal_sq(coords.cart)
            assert d2[0, 1] == d2[0, 2] and d2[0, 1] < np.delete(d2[0], [0, 1, 2]).min()
        alphas = (0.5, 1.0)
        cv = loocv_slx(Y, X, coords, CvGrid(alphas=alphas, ks=ks))
        oracle = rebuilt_fold_scores(Y, X, coords, alphas, ks)
        np.testing.assert_array_equal(np.isinf(cv.per_fold), np.isinf(oracle))
        finite = np.isfinite(oracle)
        np.testing.assert_allclose(cv.per_fold[finite], oracle[finite], rtol=1e-7)
        np.testing.assert_allclose(cv.scores, oracle.sum(axis=0), rtol=1e-9)
        if case == "boundary":
            assert np.all(np.isfinite(cv.per_fold))  # k = 1 and n-2 in every fold
        assert cv.per_fold.shape == (n, len(alphas), len(ks))

    @pytest.mark.parametrize("case", ["tie", "coincident", "boundary"])
    def test_patches_rebuild_every_fold_design(self, case):
        # the full-data design with fold i's patch is fold i's whole design,
        # bitwise, at the layout's ks, k = 1 and k = n-2; a patch holds the
        # rows that had i among their k nearest, padded with i itself
        lat, lon, ks = _fold_layout(case)
        Y, X, coords = _fold_data(lat, lon, seed=11)
        n = len(lat)
        idx, d2 = spatial.neighbor_table(coords, n - 1)
        for k in sorted({1, n - 2, *ks} - {n - 1}):
            design = np.hstack([X, spatial.neighbor_lag(idx[:, :k], d2[:, :k], X)])
            rows, values = selection._fold_patches(design, X, idx, d2, k)
            np.testing.assert_array_equal(
                patched_designs(design, (rows, values)),
                reference_fold_designs(X, idx, d2, np.arange(n), k))
            assert rows.shape[1] == np.bincount(idx[:, :k].ravel()).max()
            for i in range(n):
                lost = np.flatnonzero((idx[:, :k] == i).any(axis=1))
                np.testing.assert_array_equal(rows[i, :len(lost)], lost)
                assert np.all(rows[i, len(lost):] == i), (k, i)

    def test_selected_fit_standard_errors_use_the_search_design(self):
        # run_fit takes the search's design, lagged with the first k columns
        # of its wider table; k = 1 exercises the table's tie rule here
        lat, lon, _ = _fold_layout("tie")
        Y, X, coords = _fold_data(lat, lon, seed=11)
        config = RunConfig(model="slx", grid=CvGrid(alphas=(0.5, 1.0), ks=(1,)),
                           with_se=True)
        doc, _ = run_fit(config, Y, X, coords)
        _, cv = run_cv(config, Y, X, coords)
        alpha, k = cv.best
        idx, d2 = spatial.neighbor_table(coords, k + 1)  # the search's table
        design = np.hstack([X, spatial.neighbor_lag(idx[:, :k], d2[:, :k], X)])
        cov = sandwich_covariance(Y, design, alpha, cv.fit.coefficients)
        se = theta_to_coef(np.sqrt(np.diag(cov.matrix)), design.shape[1], Y.shape[1] - 1)
        assert doc["standard_errors"]["coefficients"] == se.tolist()

    def test_geometry_built_once_per_search(self, monkeypatch):
        calls = {"contiguity_matrix": 0, "pairwise_chordal_sq": 0}

        def counted(name):
            original = getattr(spatial, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            wrapper = counted(name)
            monkeypatch.setattr(spatial, name, wrapper)
            monkeypatch.setattr(selection, name, wrapper, raising=False)
        sim = synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=6)
        ks = (3, 5)
        loocv_slx(sim["Y"], sim["X"], sim["coords"], CvGrid(alphas=(0.5,), ks=ks))
        assert calls["contiguity_matrix"] <= len(ks)
        assert calls["pairwise_chordal_sq"] <= len(ks)


class TestSelect:
    @staticmethod
    def searched_grids(monkeypatch, grid):
        """The grid each model's search, called through ``select``, hands the
        leave-one-out engine."""
        seen = {}
        names = {None: "loocv_alpha", "ks": "loocv_slx", "hs": "loocv_gwar"}
        monkeypatch.setattr(selection, "_loocv", lambda Y, grid, axis, *rest:
                            seen.__setitem__(names[axis], grid))
        coords = GeoCoordinates.from_degrees(TIE_LAT, TIE_LON)
        X = np.column_stack([np.ones(12), np.arange(12.0)])
        for model in ("alpha", "slx", "gwar"):
            select(model, np.zeros((12, 3)), X, coords, grid)
        return seen, coords

    def test_fills_only_the_missing_model_grid(self, monkeypatch):
        bare = CvGrid(alphas=(0.5,))
        seen, coords = self.searched_grids(monkeypatch, bare)
        assert seen["loocv_alpha"] is bare
        assert seen["loocv_slx"].ks == default_k_grid(12)
        assert seen["loocv_slx"].hs is None
        np.testing.assert_array_equal(seen["loocv_gwar"].hs, default_h_grid(coords))
        assert seen["loocv_gwar"].ks is None
        assert all(g.alphas == (0.5,) for g in seen.values())

    def test_keeps_a_given_grid(self, monkeypatch):
        grid = CvGrid(alphas=(0.5,), ks=(2,), hs=(0.1,))
        seen, _ = self.searched_grids(monkeypatch, grid)
        assert all(g == grid for g in seen.values())

    def test_unknown_model(self):
        with pytest.raises(InvalidParameters):
            select("ols", np.zeros((12, 3)), None)


def plain_gwar_folds(Y, X, coords, alphas, hs):
    """Leave-one-out gwar scores from a plain loop over (alpha, h, fold).

    Calls ``selection.fit_alpha_regression`` (so a test's patch applies) with
    warm starts chained through the full-data fits in alpha order, and the
    folds started from each one as the engine starts them; a fold whose
    kernel weights all underflow or whose fit fails stays +inf.  Returns
    per-fold scores of shape (n, alphas, hs).
    """
    n = Y.shape[0]
    out = np.full((n, len(alphas), len(hs)), np.inf)
    warm = None
    for ai, a in enumerate(alphas):
        full = selection.fit_alpha_regression(Y, X, a, theta0=warm)
        warm = full.lm.theta
        theta0, damping0 = selection._fold_start(full)
        for hi, h in enumerate(hs):
            for i in range(n):
                mask = np.arange(n) != i
                w = spatial.kernel_weights_at(coords, coords.cart[i], h)[mask]
                if np.max(w) == 0.0:
                    continue
                try:
                    fit = selection.fit_alpha_regression(
                        Y[mask], X[mask], a, theta0=theta0, damping0=damping0, weights=w)
                except NumericalError:
                    continue
                out[i, ai, hi] = kld(Y[i : i + 1],
                                     fitted_mean(X[i : i + 1], fit.coefficients))
    return out


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

    def test_degenerate_bandwidth_scores_inf(self):
        sim = synthesize(n=15, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="two_cluster", seed=11)
        cv = loocv_gwar(sim["Y"], sim["X"], sim["coords"],
                        CvGrid(alphas=(0.5,), hs=(1e-9, 1e6)))
        assert np.isinf(cv.scores[0, 0])
        assert np.isfinite(cv.scores[0, 1])


    def test_missing_h_grid_is_the_default_h_grid(self):
        sim = synthesize(n=15, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="two_cluster", seed=11)
        cv = loocv_gwar(sim["Y"], sim["X"], sim["coords"], CvGrid(alphas=(0.5,)))
        np.testing.assert_array_equal(cv.hs, default_h_grid(sim["coords"]))

    def test_every_bandwidth_degenerate_raises(self):
        sim = synthesize(n=15, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="two_cluster", seed=11)
        with pytest.raises(NumericalError):
            loocv_gwar(sim["Y"], sim["X"], sim["coords"],
                       CvGrid(alphas=(0.5,), hs=(1e-9,)))

    def test_per_fold_matches_plain_fold_loop(self, monkeypatch):
        from alphareg import NonFiniteResidual

        sim = synthesize(n=15, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="two_cluster", seed=11)
        Y, X, coords, n = sim["Y"], sim["X"], sim["coords"], 15
        med = median_heuristic_bandwidth(coords)
        alphas, hs = (0.5, 1.0), (1e-9, med / 4.0, 1e6)
        real_fit, real_batch = selection.fit_alpha_regression, selection.fit_alpha_batch

        # fold 4 fails at alpha 1: in the oracle's fits (without row 4) ...
        def fails_without_row_4_at_alpha_1(Y_, X_, alpha, **kwargs):
            if alpha == 1.0 and len(Y_) == n - 1 and not (Y_ == Y[4]).all(axis=1).any():
                raise NonFiniteResidual("forced failure")
            return real_fit(Y_, X_, alpha, **kwargs)

        # ... and in the engine's fold sets
        def fold_4_fails_at_alpha_1(Y_, X_, alpha, *args, **kwargs):
            outcomes = real_batch(Y_, X_, alpha, *args, **kwargs)
            if alpha == 1.0:
                outcomes[4] = NonFiniteResidual("forced failure")
            return outcomes

        monkeypatch.setattr(selection, "fit_alpha_regression",
                            fails_without_row_4_at_alpha_1)
        monkeypatch.setattr(selection, "fit_alpha_batch", fold_4_fails_at_alpha_1)
        oracle = plain_gwar_folds(Y, X, coords, alphas, hs)
        cv = loocv_gwar(Y, X, coords, CvGrid(alphas=alphas, hs=hs))
        np.testing.assert_array_equal(np.isinf(cv.per_fold), np.isinf(oracle))
        finite = np.isfinite(oracle)
        # a fold is a zero-weight row, so J'WJ sums in another order
        np.testing.assert_allclose(cv.per_fold[finite], oracle[finite], rtol=1e-9, atol=0)
        np.testing.assert_allclose(cv.scores, oracle.sum(axis=0), rtol=1e-11, atol=0)
        assert np.all(np.isinf(cv.per_fold[:, :, 0]))  # h = 1e-9 underflows
        assert np.all(np.isinf(cv.per_fold[4, 1, 1:]))  # the forced failure
        assert np.isfinite(cv.per_fold[:, :, 1:]).sum() == 2 * 2 * n - 2
        assert cv.best[0] == 0.5


class TestScoreSum:
    @pytest.mark.parametrize("chunks", [1, 2])
    @pytest.mark.parametrize("model", ["alpha", "slx", "gwar"])
    def test_scores_are_the_fold_sum_bitwise(self, model, chunks, monkeypatch):
        # the 15 folds of a fold set are solved in one chunk or in two; each
        # point's score is the sum of its own 15 fold scores taken alone
        monkeypatch.setattr(regression, "_chunk_size", lambda m, *shape: -(-m // chunks))
        for seed in range(11, 16):
            sim = synthesize(n=15, D=3, p=1, alpha=0.5, noise_scale=0.1,
                             spatial_mode="two_cluster", seed=seed)
            med = median_heuristic_bandwidth(sim["coords"])
            grid = CvGrid(alphas=(0.5, 1.0), ks=(3, 5), hs=(med / 4.0, 1e6))
            cv = select(model, sim["Y"], sim["X"], sim["coords"], grid)
            assert cv.per_fold.shape == (15,) + cv.scores.shape
            for point in np.ndindex(cv.scores.shape):
                folds = np.array([cv.per_fold[(i,) + point] for i in range(15)])
                assert cv.scores[point] == np.sum(folds), (seed, point)


class TestGridIndependence:
    @pytest.mark.parametrize("seed", [1, 4, 5])
    @pytest.mark.parametrize("model", ["alpha", "slx", "gwar"])
    def test_first_point_scores_alike_alone_and_in_a_wider_grid(self, model, seed):
        # fold sums strided across the grid summed in another order than a
        # point's own: each of these seeds moved the last bit in all three
        sim = synthesize(60, 4, 2, 0.5, 0.05, spatial_mode="slx", seed=seed)
        h = median_heuristic_bandwidth(sim["coords"])
        alone, wider = {
            "alpha": (CvGrid(alphas=(0.5,)), CvGrid(alphas=(0.5, 1.0))),
            "slx": (CvGrid(alphas=(0.5,), ks=(3,)), CvGrid(alphas=(0.5,), ks=(3, 5))),
            "gwar": (CvGrid(alphas=(0.5,), hs=(h,)), CvGrid(alphas=(0.5,), hs=(h, 2 * h))),
        }[model]
        args = (sim["Y"], sim["X"], sim["coords"])
        one = select(model, *args, alone).scores.ravel()[0]
        assert one.tobytes() == select(model, *args, wider).scores.ravel()[0].tobytes()


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

    @pytest.mark.parametrize("ks", [(2.7, 3), (3.0,), ("3",), (0, 3), ()])
    def test_non_integer_or_small_k_rejected(self, ks):
        # a fractional k used to be truncated; RunConfig.k follows the same rule
        with pytest.raises(InvalidParameters, match="neighbor grid"):
            CvGrid(ks=ks)

    def test_numpy_integer_k_kept_as_int(self):
        grid = CvGrid(ks=np.array([5, 3]))
        assert grid.ks == (3, 5) and all(type(k) is int for k in grid.ks)
