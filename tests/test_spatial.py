"""Geographic machinery and the two spatial models: coordinate mapping,
chordal distances, neighbor weights, kernels, and the fits built on them."""

import numpy as np
import pytest

from alphareg import (
    DegenerateWeights,
    DimensionMismatch,
    GeoCoordinates,
    InvalidK,
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
    spatial_lag,
    to_cartesian,
)
from alphareg.datasets import synthesize
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

    def test_tie_keeps_lower_index(self):
        coords = GeoCoordinates.from_degrees([10.0, 10.0, 10.0], [20.0, 21.0, 19.0])
        idx, d2 = neighbor_table(coords, 2)
        assert idx[0].tolist() == [1, 2] and d2[0, 0] == d2[0, 1]

    def test_table_lags_are_rows_of_w(self, rng):
        # 3-5: symmetric longitudes that are 1 ulp apart in the Gram form
        lat = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 12.0, 12.0]
        lon = [20.0, 21.0, 19.0, 25.0, 26.0, 24.0, 20.0, 20.0]
        coords = GeoCoordinates.from_degrees(lat, lon)
        X = np.hstack([np.ones((8, 1)), rng.normal(size=(8, 2))])
        idx, d2 = neighbor_table(coords, 7)
        for k in range(1, 8):
            lag = neighbor_lag(idx[:, :k], row_weights(d2[:, :k]), X)
            W = contiguity_matrix(coords, k)
            np.testing.assert_allclose(lag, spatial_lag(W, X), rtol=1e-13, atol=1e-13)

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
            np.testing.assert_allclose(neighbor_lag(idx, row_weights(d2), X),
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

    def test_focal_form_is_the_point_form_with_self_weight_one(self, rng):
        coords = random_coords(rng, 20)
        for focal, h in ((3, 0.05), (7, 1e-9), (0, 1e6)):
            expected = kernel_weights_at(coords, coords.cart[focal], h)
            expected[focal] = 1.0
            np.testing.assert_array_equal(
                gaussian_kernel_weights(coords, focal, h), expected)


class TestSpatialLag:
    def test_two_neighbor_average(self):
        W = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
        X = np.column_stack([np.ones(3), [1.0, 3.0, 5.0]])
        lag = spatial_lag(W, X)
        np.testing.assert_allclose(lag[:, 0], [4.0, 1.0, 2.0])

    def test_constant_covariate_unchanged(self, rng):
        coords = random_coords(rng, 12)
        W = contiguity_matrix(coords, 3)
        X = np.column_stack([np.ones(12), np.full(12, 7.0)])
        np.testing.assert_allclose(spatial_lag(W, X)[:, 0], 7.0, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        coords = random_coords(rng, 15)
        W = contiguity_matrix(coords, 4)
        X = np.column_stack([np.ones(15), rng.normal(size=15)])
        perm = rng.permutation(15)
        lag = spatial_lag(W, X)
        lag_perm = spatial_lag(W[np.ix_(perm, perm)], X[perm])
        np.testing.assert_allclose(lag_perm, lag[perm], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            spatial_lag(np.eye(3), np.ones((4, 2)))


class TestSlxFit:
    def test_reduces_to_augmented_plain_fit(self, rng):
        sim = synthesize(n=80, D=3, p=2, alpha=0.5, noise_scale=0.05,
                         spatial_mode="slx", seed=5)
        W = contiguity_matrix(sim["coords"], 5)
        slx = fit_alpha_slx(sim["Y"], sim["X"], W, 0.5)
        X_aug = np.hstack([sim["X"], spatial_lag(W, sim["X"])])
        plain = fit_alpha_regression(sim["Y"], X_aug, 0.5)
        np.testing.assert_array_equal(slx.coefficients, plain.coefficients)
        assert slx.gamma.shape == slx.beta.shape
        assert np.all(slx.gamma[0] == 0.0)

    def test_recovers_nonspatial_truth_when_gamma_zero(self, rng):
        sim = synthesize(n=500, D=3, p=2, alpha=0.5, noise_scale=0.02,
                         spatial_mode="none", seed=9)
        coords = random_coords(rng, 500)
        W = contiguity_matrix(coords, 5)
        slx = fit_alpha_slx(sim["Y"], sim["X"], W, 0.5)
        assert np.max(np.abs(slx.beta - sim["B"])) < 1e-2

    def test_fitted_rows_sum_to_one(self, rng):
        sim = synthesize(n=50, D=4, p=1, alpha=1.0, noise_scale=0.05,
                         spatial_mode="slx", seed=2)
        W = contiguity_matrix(sim["coords"], 4)
        slx = fit_alpha_slx(sim["Y"], sim["X"], W, 1.0)
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

    def test_kld_and_fitted_rows(self):
        sim = synthesize(n=40, D=3, p=1, alpha=0.5, noise_scale=0.05,
                         spatial_mode="two_cluster", seed=4)
        gfit = fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, 0.02)
        np.testing.assert_allclose(gfit.fitted.sum(axis=1), 1.0, atol=1e-12)
        assert gfit.kld >= 0.0


class TestGwarPredict:
    def test_coincident_location_reproduces_fitted(self):
        sim = synthesize(n=40, D=3, p=1, alpha=0.5, noise_scale=0.05,
                         spatial_mode="two_cluster", seed=6)
        gfit = fit_gwar(sim["Y"], sim["X"], sim["coords"], 0.5, 0.02)
        coords_new = GeoCoordinates.from_degrees(sim["coords"].lat[:3],
                                                 sim["coords"].lon[:3])
        mu = predict_gwar(gfit, sim["X"][:3], coords_new)
        np.testing.assert_allclose(mu, gfit.fitted[:3], atol=1e-6)

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
