"""Geographic machinery and the two spatial models: coordinate mapping,
chordal distances, neighbor weights, kernels, and the fits built on them."""

import numpy as np
import pytest

from alphareg import (
    DegenerateWeights,
    DimensionMismatch,
    GeoCoordinates,
    InvalidK,
    InvalidParameters,
    NonNumericCell,
    NonpositiveBandwidth,
    OutOfRangeCoordinate,
    chordal_distance_sq,
    contiguity_matrix,
    fit_alpha_regression,
    fit_alpha_slx,
    fit_gwar,
    fitted_mean,
    gaussian_kernel_weights,
    neighbor_lag,
    neighbor_table,
    pairwise_chordal_sq,
    predict_gwar,
    row_weights,
    to_cartesian,
)
from alphareg import spatial
from alphareg.datasets import synthesize
from alphareg.regression import RowBlocks, coef_to_theta, theta_to_coef
from alphareg.spatial import kernel_weights_at, local_fitted_mean


def random_coords(rng, n, lat_span=(30.0, 45.0), lon_span=(10.0, 30.0)):
    return GeoCoordinates.from_degrees(
        rng.uniform(*lat_span, size=n), rng.uniform(*lon_span, size=n)
    )


class TestCartesian:
    def test_origin(self):
        np.testing.assert_allclose(to_cartesian(0.0, 0.0), [1.0, 0.0, 0.0], atol=1e-15)

    def test_ninety(self):
        np.testing.assert_allclose(to_cartesian(90.0, 0.0), [0.0, 1.0, 0.0], atol=1e-15)

    def test_unit_norm_random(self, rng):
        cart = to_cartesian(rng.uniform(-90, 90, 100), rng.uniform(-179, 180, 100))
        np.testing.assert_allclose(np.linalg.norm(cart, axis=1), 1.0, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeCoordinate):
            to_cartesian(91.0, 0.0)
        with pytest.raises(OutOfRangeCoordinate):
            to_cartesian(0.0, -180.0)
        # NaN fails both range comparisons, so it used to pass as a location
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(OutOfRangeCoordinate, match="latitude"):
                to_cartesian([10.0, bad], [0.0, 0.0])
            with pytest.raises(OutOfRangeCoordinate, match="longitude"):
                GeoCoordinates.from_degrees([10.0, 0.0], [0.0, bad])


class TestChordal:
    def test_self_distance_zero(self):
        c = to_cartesian(40.0, 20.0)
        assert chordal_distance_sq(c, c) == 0.0

    def test_orthogonal_unit_vectors(self):
        assert abs(chordal_distance_sq([1, 0, 0], [0, 1, 0]) - 2.0) < 1e-15

    def test_matches_squared_norm(self, rng):
        a = to_cartesian(rng.uniform(-89, 89, 50), rng.uniform(-179, 180, 50))
        b = to_cartesian(rng.uniform(-89, 89, 50), rng.uniform(-179, 180, 50))
        direct = np.sum((a - b) ** 2, axis=1)
        np.testing.assert_allclose(chordal_distance_sq(a, b), direct, atol=1e-12)

    def test_longitude_wraparound(self):
        # +-179 degrees must look exactly like +-1 degree, at any latitude
        for lat in (0.0, 40.0, -63.0):
            far = chordal_distance_sq(to_cartesian(lat, 179.0), to_cartesian(lat, -179.0))
            near = chordal_distance_sq(to_cartesian(lat, 1.0), to_cartesian(lat, -1.0))
            assert abs(far - near) < 1e-12


class TestContiguity:
    def test_two_points(self):
        coords = GeoCoordinates.from_degrees([10.0, 12.0], [20.0, 22.0])
        W = contiguity_matrix(coords, 1)
        np.testing.assert_allclose(W, [[0.0, 1.0], [1.0, 0.0]])

    def test_collinear_middle_picks_nearer(self):
        # three points along a meridian; the middle one is closer to the first
        coords = GeoCoordinates.from_degrees([10.0, 11.0, 14.0], [25.0, 25.0, 25.0])
        W = contiguity_matrix(coords, 1)
        assert W[1, 0] == 1.0 and W[1, 2] == 0.0

    def test_row_standardized_random(self, rng):
        coords = random_coords(rng, 40)
        W = contiguity_matrix(coords, 6)
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diag(W) == 0.0)
        assert np.all((W > 0).sum(axis=1) == 6)

    def test_tie_keeps_lower_index(self):
        # longitudes symmetric about the focal point give exactly tied distances
        coords = GeoCoordinates.from_degrees([10.0, 10.0, 10.0], [20.0, 21.0, 19.0])
        W = contiguity_matrix(coords, 1)
        assert W[0, 1] == 1.0 and W[0, 2] == 0.0

    def test_coincident_locations_run(self):
        coords = GeoCoordinates.from_degrees([10.0, 10.0, 11.0], [20.0, 20.0, 21.0])
        W = contiguity_matrix(coords, 2)
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)

    def test_invalid_k(self, rng):
        coords = random_coords(rng, 5)
        with pytest.raises(InvalidK):
            contiguity_matrix(coords, 5)
        with pytest.raises(InvalidK):
            contiguity_matrix(coords, 0)


def looped_contiguity(coords, k):
    """Row-by-row k-nearest inverse-distance weights, row-standardized."""
    n = coords.n
    d2 = pairwise_chordal_sq(coords.cart)
    np.fill_diagonal(d2, np.inf)
    W = np.zeros((n, n))
    for i in range(n):
        neighbors = np.argsort(d2[i], kind="stable")[:k]
        W[i, neighbors] = 1.0 / np.maximum(d2[i, neighbors], 1e-12)
    return W / W.sum(axis=1, keepdims=True)


class TestNeighborTable:
    @pytest.mark.parametrize("k", [1, 4, 29])
    def test_contiguity_matches_row_loop(self, rng, k):
        coords = random_coords(rng, 30)
        np.testing.assert_allclose(contiguity_matrix(coords, k),
                                   looped_contiguity(coords, k), rtol=0, atol=1e-15)

    def test_contiguity_with_ties_and_coincident_points(self):
        lat = [10.0, 10.0, 10.0, 10.0, 10.0, 11.0, 11.0]
        lon = [20.0, 21.0, 19.0, 21.0, 25.0, 20.0, 20.0]
        coords = GeoCoordinates.from_degrees(lat, lon)
        for k in range(1, 7):
            np.testing.assert_allclose(contiguity_matrix(coords, k),
                                       looped_contiguity(coords, k), rtol=0, atol=1e-15)

    def test_sorted_rows_without_self(self, rng):
        coords = random_coords(rng, 25)
        idx, d2 = neighbor_table(coords, 6)
        assert idx.shape == d2.shape == (25, 6)
        assert np.all(idx != np.arange(25)[:, None])
        assert np.all(np.diff(d2, axis=1) >= 0)
        full = pairwise_chordal_sq(coords.cart)
        np.testing.assert_array_equal(d2, np.take_along_axis(full, idx, axis=1))

    def test_neighbor_count_out_of_range(self, rng):
        # without the check, m = 0 would give an empty table and NaN lags
        coords, query = random_coords(rng, 6), random_coords(rng, 2)
        for m in (0, 6):
            with pytest.raises(InvalidK):
                neighbor_table(coords, m)
        for m in (0, 7):
            with pytest.raises(InvalidK):
                neighbor_table(coords, m, query=query)
        idx, _ = neighbor_table(coords, 6, query=query)  # every training location
        assert sorted(idx[0]) == list(range(6))

    def test_tie_keeps_lower_index(self):
        coords = GeoCoordinates.from_degrees([10.0, 10.0, 10.0], [20.0, 21.0, 19.0])
        idx, d2 = neighbor_table(coords, 2)
        assert idx[0].tolist() == [1, 2] and d2[0, 0] == d2[0, 1]

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)])
    def test_tie_keeps_lower_index_under_a_row_permutation(self, order):
        # the locations above in another row order: the tie stays exact, and
        # the lower row index wins it, whichever location holds that row
        coords = GeoCoordinates.from_degrees([10.0] * 3, np.array([20.0, 21.0, 19.0])[list(order)])
        focal, tied = order.index(0), sorted(order.index(j) for j in (1, 2))
        idx, d2 = neighbor_table(coords, 2)
        assert idx[focal].tolist() == tied and d2[focal, 0] == d2[focal, 1]
        assert contiguity_matrix(coords, 1)[focal, tied[0]] == 1.0

    def test_table_lags_are_rows_of_w(self, rng):
        # 3-5: symmetric longitudes that are 1 ulp apart in the Gram form
        lat = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 12.0, 12.0]
        lon = [20.0, 21.0, 19.0, 25.0, 26.0, 24.0, 20.0, 20.0]
        coords = GeoCoordinates.from_degrees(lat, lon)
        X = np.hstack([np.ones((8, 1)), rng.normal(size=(8, 2))])
        idx, d2 = neighbor_table(coords, 7)
        for k in range(1, 8):
            lag = neighbor_lag(idx[:, :k], d2[:, :k], X)
            W = contiguity_matrix(coords, k)
            np.testing.assert_allclose(lag, W @ X[:, 1:], rtol=1e-13, atol=1e-13)

    def test_query_at_a_duplicated_location_is_a_row_of_w(self, rng):
        # a query point appended to the training locations gets the row of W
        # that its k nearest training points give it, coincident ones first
        train = random_coords(rng, 12)
        X = np.hstack([np.ones((12, 1)), rng.normal(size=(12, 2))])
        for j in (0, 5, 11):
            query = GeoCoordinates.from_degrees(train.lat[[j]], train.lon[[j]])
            idx, d2 = neighbor_table(train, 4, query=query)
            assert idx[0, 0] == j and d2[0, 0] == 0.0
            both = GeoCoordinates.from_degrees(np.append(train.lat, train.lat[j]),
                                               np.append(train.lon, train.lon[j]))
            W_row = contiguity_matrix(both, 4)[12, :12]
            np.testing.assert_allclose(neighbor_lag(idx, d2, X),
                                       (W_row @ X[:, 1:])[None], rtol=1e-13)

    def test_row_weights_cap_coincident(self):
        w = row_weights(np.array([[0.0, 1.0], [1.0, 4.0]]))
        np.testing.assert_allclose(w, [[1e12 / (1e12 + 1.0), 1.0 / (1e12 + 1.0)],
                                       [0.8, 0.2]])


class TestKernel:
    def test_self_weight_is_one(self, rng):
        coords = random_coords(rng, 10)
        w = gaussian_kernel_weights(coords, 4, 0.01)
        assert w[4] == 1.0

    def test_flat_limit(self, rng):
        coords = random_coords(rng, 10)
        w = gaussian_kernel_weights(coords, 0, 1e6)
        np.testing.assert_allclose(w, 1.0, atol=1e-9)

    def test_two_algebraic_forms_agree(self, rng):
        coords = random_coords(rng, 20)
        h = 0.05
        w = gaussian_kernel_weights(coords, 3, h)
        d2 = chordal_distance_sq(coords.cart, coords.cart[3])
        np.testing.assert_allclose(w, np.exp(-d2 / (2 * h * h)), atol=1e-14)

    def test_nonpositive_bandwidth(self, rng):
        coords = random_coords(rng, 4)
        with pytest.raises(NonpositiveBandwidth):
            gaussian_kernel_weights(coords, 0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_is_a_non_numeric_cell(self, rng, bad):
        # a raw point holding a NaN used to give NaN weights without an error
        coords = random_coords(rng, 10)
        with pytest.raises(NonNumericCell, match="at row 0, column 0 of the kernel points"):
            kernel_weights_at(coords, np.array([bad, 0.0, 0.0]), 0.1)
        block = coords.cart[:3].copy()
        block[2, 1] = bad
        with pytest.raises(NonNumericCell, match="at row 2, column 1 of the kernel points"):
            kernel_weights_at(coords, block, 0.1)

    def test_focal_form_is_the_point_form_with_self_weight_one(self, rng):
        coords = random_coords(rng, 20)
        for focal, h in ((3, 0.05), (7, 1e-9), (0, 1e6)):
            expected = kernel_weights_at(coords, coords.cart[focal], h)
            expected[focal] = 1.0
            np.testing.assert_array_equal(
                gaussian_kernel_weights(coords, focal, h), expected)


class TestSpatialLag:
    def test_two_neighbor_average(self):
        # equal distances weigh equally; row 1 lists observation 0 twice
        idx = np.array([[1, 2], [0, 0], [0, 1]])
        X = np.column_stack([np.ones(3), [1.0, 3.0, 5.0]])
        lag = neighbor_lag(idx, np.ones((3, 2)), X)
        np.testing.assert_allclose(lag[:, 0], [4.0, 1.0, 2.0])

    def test_constant_covariate_unchanged(self, rng):
        coords = random_coords(rng, 12)
        X = np.column_stack([np.ones(12), np.full(12, 7.0)])
        np.testing.assert_allclose(neighbor_lag(*neighbor_table(coords, 3), X)[:, 0],
                                   7.0, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        coords = random_coords(rng, 15)
        X = np.column_stack([np.ones(15), rng.normal(size=15)])
        perm = rng.permutation(15)
        lag = neighbor_lag(*neighbor_table(coords, 4), X)
        permuted = GeoCoordinates.from_degrees(coords.lat[perm], coords.lon[perm])
        lag_perm = neighbor_lag(*neighbor_table(permuted, 4), X[perm])
        np.testing.assert_allclose(lag_perm, lag[perm], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fit_alpha_slx(np.full((4, 3), 1 / 3), np.ones((4, 2)), np.ones((3, 1)), 0.5)


class TestSlxFit:
    def test_reduces_to_augmented_plain_fit(self, rng):
        sim = synthesize(n=80, D=3, p=2, alpha=0.5, noise_scale=0.05,
                         spatial_mode="slx", seed=5)
        lag = neighbor_lag(*neighbor_table(sim["coords"], 5), sim["X"])
        slx = fit_alpha_slx(sim["Y"], sim["X"], lag, 0.5)
        X_aug = np.hstack([sim["X"], lag])
        plain = fit_alpha_regression(sim["Y"], X_aug, 0.5)
        np.testing.assert_array_equal(slx.coefficients, plain.coefficients)
        assert slx.gamma.shape == slx.beta.shape
        assert np.all(slx.gamma[0] == 0.0)

    def test_recovers_nonspatial_truth_when_gamma_zero(self, rng):
        sim = synthesize(n=500, D=3, p=2, alpha=0.5, noise_scale=0.02,
                         spatial_mode="none", seed=9)
        coords = random_coords(rng, 500)
        lag = neighbor_lag(*neighbor_table(coords, 5), sim["X"])
        slx = fit_alpha_slx(sim["Y"], sim["X"], lag, 0.5)
        assert np.max(np.abs(slx.beta - sim["B"])) < 1e-2

    def test_fitted_rows_sum_to_one(self, rng):
        sim = synthesize(n=50, D=4, p=1, alpha=1.0, noise_scale=0.05,
                         spatial_mode="slx", seed=2)
        lag = neighbor_lag(*neighbor_table(sim["coords"], 4), sim["X"])
        slx = fit_alpha_slx(sim["Y"], sim["X"], lag, 1.0)
        np.testing.assert_allclose(slx.fitted.sum(axis=1), 1.0, atol=1e-12)


class TestGwarFit:
    def test_flat_kernel_matches_global(self):
        sim = synthesize(n=60, D=3, p=1, alpha=0.5, noise_scale=0.05,
                         spatial_mode="two_cluster", seed=3)
        gfit = fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, 1e6)
        glob = fit_alpha_regression(sim["Y"], sim["X"], 0.5)
        gap = np.max(np.abs(gfit.local_coefficients - glob.coefficients))
        assert gap < 1e-6

    def test_two_cluster_sign_recovery(self):
        sim = synthesize(n=120, D=3, p=1, alpha=0.5, noise_scale=0.02,
                         spatial_mode="two_cluster", seed=8)
        gfit = fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, 0.01)
        signs = np.sign(gfit.local_coefficients[:, 1, :])
        truth0 = np.sign(sim["B"][1])
        expected = np.where(sim["clusters"][:, None] == 0, truth0, -truth0)
        agreement = np.mean(np.all(signs == expected, axis=1))
        assert agreement >= 0.9

    def test_degenerate_weights(self, rng):
        coords = random_coords(rng, 12)
        sim = synthesize(n=12, D=3, p=1, alpha=0.5, noise_scale=0.05, seed=1)
        with pytest.raises(DegenerateWeights):
            fit_gwar(sim["Y"], sim["X"], coords, 0.5, 1e-9)

    @pytest.mark.parametrize("h", [1e-158, 1e-170, 1e-300])
    def test_tiny_bandwidth_is_degenerate_without_warnings(self, rng, h):
        # h * h is subnormal or 0 here; a coincident pair keeps weight 1, any
        # other pair gets 0, and no NaN weight or numpy warning appears
        coords = random_coords(rng, 12)
        lat, lon = coords.lat.copy(), coords.lon.copy()
        lat[1], lon[1] = lat[0], lon[0]
        coords = GeoCoordinates.from_degrees(lat, lon)
        w = kernel_weights_at(coords, coords.cart[0], h)
        np.testing.assert_array_equal(w, [1.0, 1.0] + [0.0] * 10)
        sim = synthesize(n=12, D=3, p=1, alpha=0.5, noise_scale=0.05, seed=1)
        with pytest.raises(DegenerateWeights):
            fit_gwar(sim["Y"], sim["X"], coords, 0.5, h)

    def test_batched_fitted_rows_match_per_location_loop(self):
        sim = synthesize(n=40, D=4, p=2, alpha=0.5, noise_scale=0.05,
                         spatial_mode="two_cluster", seed=6)
        gfit = fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, 0.02)
        local = gfit.local_coefficients
        loop = np.vstack([fitted_mean(sim["X"][i : i + 1], local[i])
                          for i in range(40)])
        np.testing.assert_allclose(gfit.fitted, loop, rtol=0, atol=1e-14)
        np.testing.assert_allclose(local_fitted_mean(sim["X"], local), loop,
                                   rtol=0, atol=1e-14)

    def test_start_at_another_alpha_rejected(self):
        sim = synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=0.05,
                         spatial_mode="two_cluster", seed=4)
        glob = fit_alpha_regression(sim["Y"], sim["X"], 1.0)
        start = (glob, glob.lm.theta, np.zeros(20))
        with pytest.raises(InvalidParameters, match="alpha=1.0"):
            fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, 0.02, start=start)

    def test_kld_and_fitted_rows(self):
        sim = synthesize(n=40, D=3, p=1, alpha=0.5, noise_scale=0.05,
                         spatial_mode="two_cluster", seed=4)
        gfit = fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, 0.02)
        np.testing.assert_allclose(gfit.fitted.sum(axis=1), 1.0, atol=1e-12)
        assert gfit.kld >= 0.0

    @pytest.mark.parametrize("h, error", [
        (np.nan, InvalidParameters), (True, InvalidParameters), ("0.3", InvalidParameters),
        (0, NonpositiveBandwidth), (-1, NonpositiveBandwidth)])
    def test_bandwidth_checked_before_the_global_fit(self, h, error, monkeypatch):
        # a bad h used to fail only in the first location chunk, after a
        # full plain fit
        sim = synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=0.05,
                         spatial_mode="two_cluster", seed=4)

        def no_fit(*args, **kwargs):
            raise AssertionError("the global fit ran")

        monkeypatch.setattr(spatial, "fit_alpha_regression", no_fit)
        with pytest.raises(error):
            fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, h)


class TestGwarPredict:
    def test_coincident_location_reproduces_fitted(self):
        sim = synthesize(n=40, D=3, p=1, alpha=0.5, noise_scale=0.05,
                         spatial_mode="two_cluster", seed=6)
        gfit = fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, 0.02)
        coords_new = GeoCoordinates.from_degrees(sim["coords"].lat[:3],
                                                 sim["coords"].lon[:3])
        mu = predict_gwar(gfit, sim["X"][:3], coords_new)
        np.testing.assert_allclose(mu, gfit.fitted[:3], atol=1e-6)

    def test_nearest_location_start_takes_fewer_iterations(self, rng, monkeypatch):
        # each new point starts at the local coefficients of its nearest
        # training location; the oracle starts every point at the global fit
        sim = synthesize(n=200, D=3, p=1, alpha=0.5, noise_scale=0.05,
                         spatial_mode="two_cluster", seed=8)
        coords = sim["coords"]
        gfit = fit_gwar(sim["Y"], sim["X"], coords, 0.5, 0.05)
        near = rng.choice(200, 50, replace=False)
        coords_new = GeoCoordinates.from_degrees(coords.lat[near] + rng.normal(scale=0.3, size=50),
                                                 coords.lon[near] + rng.normal(scale=0.3, size=50))
        X_new = np.column_stack([np.ones(50), rng.normal(size=50)])
        solved, real = [], spatial.fit_alpha_batch

        def spy(*args, **kwargs):
            solved.append(real(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(spatial, "fit_alpha_batch", spy)
        mu = predict_gwar(gfit, X_new, coords_new)
        weights = RowBlocks(50, lambda rows: kernel_weights_at(coords, coords_new.cart[rows], 0.05))
        cold = real(sim["Y"], sim["X"], 0.5, weights, coef_to_theta(gfit.global_coefficients))
        assert sum(o.iterations for o in solved[-1]) < sum(o.iterations for o in cold)
        local = np.stack([theta_to_coef(o.theta, 2, 2) for o in cold])
        np.testing.assert_allclose(mu, local_fitted_mean(X_new, local), rtol=0, atol=1e-6)

    def test_no_new_rows(self):
        # a header-only file of new rows predicts a (0, D) array
        sim = synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=0.05,
                         spatial_mode="two_cluster", seed=4)
        gfit = fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, 0.05)
        mu = predict_gwar(gfit, np.empty((0, 2)), GeoCoordinates.from_degrees([], []))
        assert mu.shape == (0, 3)

    def test_flat_kernel_matches_global_prediction(self, rng):
        sim = synthesize(n=40, D=3, p=1, alpha=0.5, noise_scale=0.05,
                         spatial_mode="two_cluster", seed=7)
        gfit = fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, 1e6)
        glob = fit_alpha_regression(sim["Y"], sim["X"], 0.5)
        coords_new = random_coords(rng, 5, lat_span=(36.0, 41.0), lon_span=(20.0, 26.0))
        X_new = np.hstack([np.ones((5, 1)), rng.normal(size=(5, 1))])
        mu = predict_gwar(gfit, X_new, coords_new)
        np.testing.assert_allclose(mu, fitted_mean(X_new, glob.coefficients), atol=1e-6)
        np.testing.assert_allclose(mu.sum(axis=1), 1.0, atol=1e-12)
