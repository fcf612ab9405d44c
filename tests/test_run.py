"""Orchestration: selection wiring, document determinism, and the
intercept-only closed form."""

import json
import sys
from dataclasses import asdict

import numpy as np
import pytest

from alphareg import (
    AlphaRegError,
    CvGrid,
    DataError,
    DegenerateWeights,
    DimensionMismatch,
    GeoCoordinates,
    InvalidK,
    InvalidParameters,
    LmOptions,
    MissingColumn,
    NonFiniteResidual,
    NonNumericCell,
    NonpositiveBandwidth,
    RowBlocks,
    RunConfig,
    ShapeMismatch,
    alpha_transform,
    bootstrap_covariance,
    closure,
    default_k_grid,
    fit_alpha_batch,
    fit_alpha_regression,
    fit_alpha_slx,
    fit_gwar,
    fitted_mean,
    gradient,
    gwar_marginal_effects,
    hessian_exact,
    hessian_gauss_newton,
    kld,
    loocv_alpha,
    loocv_gwar,
    loocv_slx,
    marginal_effects,
    neighbor_lag,
    neighbor_table,
    predict_gwar,
    residual_system,
    run_cv,
    run_fit,
    sandwich_covariance,
    select,
    sse,
    transformed_mean,
)
from alphareg import inference, regression, run, selection, spatial
from alphareg.datasets import synthesize


class TestRunFit:
    def test_intercept_only_matches_logit_of_means(self, rng):
        # at alpha=1 the transform is affine, so the optimum is the mean
        # composition and coefficients are its log-ratios to component 1
        Y = rng.dirichlet(np.array([3.0, 2.0, 1.0]), size=200)
        X = np.ones((200, 1))
        config = RunConfig(model="alpha", alpha=1.0)
        doc, fit = run_fit(config, Y, X)
        ybar = Y.mean(axis=0)
        oracle = np.log(ybar[1:] / ybar[0])[None, :]
        np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-7)

    def test_document_deterministic(self):
        sim = synthesize(n=25, D=3, p=1, alpha=0.5, noise_scale=0.1, seed=1)
        config = RunConfig(model="alpha", grid=CvGrid(alphas=(0.5, 1.0)), seed=7)
        doc1, _ = run_fit(config, sim["Y"], sim["X"])
        doc2, _ = run_fit(config, sim["Y"], sim["X"])
        assert json.dumps(doc1) == json.dumps(doc2)

    def test_selection_skipped_when_fixed(self):
        sim = synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=0.1, seed=2)
        doc, _ = run_fit(RunConfig(model="alpha", alpha=0.5), sim["Y"], sim["X"])
        assert doc["selection"] is None
        assert doc["hyperparameters"] == {"alpha": 0.5}

    def test_selection_runs_when_unset(self):
        sim = synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=0.1, seed=3)
        config = RunConfig(model="alpha", grid=CvGrid(alphas=(0.5, 1.0)))
        doc, _ = run_fit(config, sim["Y"], sim["X"])
        assert doc["selection"] is not None
        assert doc["hyperparameters"]["alpha"] in (0.5, 1.0)
        assert len(doc["fit"]["observed_fitted_correlation"]) == 3

    def test_spatial_model_requires_coords(self):
        sim = synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=0.1, seed=4)
        with pytest.raises(MissingColumn):
            run_fit(RunConfig(model="slx", alpha=0.5, k=3), sim["Y"], sim["X"])
        with pytest.raises(MissingColumn):
            run_cv(RunConfig(model="gwar"), sim["Y"], sim["X"])

    def test_config_echo_is_the_config(self):
        sim = synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=0.1, seed=4)
        config = RunConfig(model="alpha", alpha=0.5, with_se=True, seed=3)
        doc, _ = run_fit(config, sim["Y"], sim["X"])
        assert doc["config"] == asdict(config)

    def test_fixed_values_narrow_the_search(self):
        sim = synthesize(n=16, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=10)
        args = (sim["Y"], sim["X"], sim["coords"])
        config = RunConfig(model="slx", alpha=0.5)
        doc, cv = run_cv(config, *args)
        assert cv.alphas == (0.5,) and cv.ks == default_k_grid(16)
        assert doc["best"] == [0.5, cv.best[1]]
        assert run_fit(config, *args)[0]["selection"] == doc
        _, cv = run_cv(RunConfig(model="slx", k=3, grid=CvGrid(alphas=(0.5, 1.0))), *args)
        assert cv.alphas == (0.5, 1.0) and cv.ks == (3,)

    def test_gwar_with_duplicated_location_runs(self):
        sim = synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="two_cluster", seed=5)
        coords = sim["coords"]
        coords.lat[1] = coords.lat[0]
        coords.lon[1] = coords.lon[0]
        dup = type(coords).from_degrees(coords.lat, coords.lon)
        config = RunConfig(model="gwar", alpha=0.5, h=0.02)
        doc, fit = run_fit(config, sim["Y"], sim["X"], dup)
        assert doc["fit"]["kld"] >= 0.0

    def test_slx_document_sections(self):
        sim = synthesize(n=25, D=3, p=2, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=6)
        config = RunConfig(model="slx", alpha=0.5, k=4)
        doc, fit = run_fit(config, sim["Y"], sim["X"], sim["coords"])
        assert np.asarray(doc["fit"]["gamma"]).shape == (3, 2)
        assert set(doc["marginal_effects"]) == {
            "ame_direct", "ame_indirect", "ame_total"
        }
        total = np.asarray(doc["marginal_effects"]["ame_total"]["x1"])
        direct = np.asarray(doc["marginal_effects"]["ame_direct"]["x1"])
        indirect = np.asarray(doc["marginal_effects"]["ame_indirect"]["x1"])
        np.testing.assert_allclose(total, direct + indirect, atol=1e-12)

    @pytest.mark.parametrize("model", ["alpha", "slx", "gwar"])
    def test_effect_tables_are_the_per_row_means(self, model):
        # one vectorised pass gives the tables of every model; they are the
        # means of marginal_effects over the rows, on beta, gamma and
        # beta + gamma for slx and on each location's coefficients for gwar,
        # at rounding level
        sim = synthesize(n=40, D=4, p=2, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=6)
        fixed = {"alpha": {}, "slx": {"k": 3}, "gwar": {"h": 0.05}}[model]
        doc, fit = run_fit(RunConfig(model=model, alpha=0.5, **fixed),
                           sim["Y"], sim["X"], sim["coords"])
        if model == "gwar":
            tables = {"ame": lambda k: gwar_marginal_effects(fit, k)}
        else:
            rows = {"ame": fit.coefficients} if model == "alpha" else {
                "ame_direct": fit.beta, "ame_indirect": fit.gamma,
                "ame_total": fit.beta + fit.gamma}
            tables = {name: lambda k, B=B: marginal_effects(B, fit.fitted, k)
                      for name, B in rows.items()}
        assert list(doc["marginal_effects"]) == list(tables)
        for name, table in tables.items():
            for k in (1, 2):
                np.testing.assert_allclose(doc["marginal_effects"][name][f"x{k}"],
                                           table(k).mean(axis=0), rtol=1e-13, atol=1e-16)

    def test_sandwich_se_included_when_requested(self):
        sim = synthesize(n=40, D=3, p=1, alpha=0.5, noise_scale=0.1, seed=7)
        config = RunConfig(model="alpha", alpha=0.5, with_se=True)
        doc, _ = run_fit(config, sim["Y"], sim["X"])
        se = np.asarray(doc["standard_errors"]["coefficients"])
        assert se.shape == (2, 2) and np.all(se > 0)
        assert doc["standard_errors"]["kind"] == "sandwich"

    def test_bootstrap_se_included_when_requested(self):
        sim = synthesize(n=40, D=3, p=1, alpha=0.5, noise_scale=0.1, seed=8)
        config = RunConfig(model="alpha", alpha=0.5, bootstrap_replicates=10)
        doc, _ = run_fit(config, sim["Y"], sim["X"])
        assert doc["standard_errors"]["kind"] == "bootstrap"
        assert doc["standard_errors"]["replicates"] == 10

    def test_gwar_rejects_se_request(self):
        with pytest.raises(InvalidParameters, match="standard errors"):
            RunConfig(model="gwar", alpha=0.5, h=0.02, with_se=True)

    def test_invalid_model_rejected(self):
        with pytest.raises(InvalidParameters):
            RunConfig(model="nope")

    @pytest.mark.parametrize("model, settings", [
        ("alpha", {"k": 3}),
        ("alpha", {"grid": CvGrid(hs=(0.1,))}),
        ("alpha", {"k": 3, "grid": CvGrid(hs=(0.1,))}),
        ("slx", {"h": 0.1}),
        ("slx", {"grid": CvGrid(hs=(0.1,))}),
        ("gwar", {"k": 3}),
        ("gwar", {"grid": CvGrid(ks=(3,))}),
    ])
    def test_settings_of_another_model_rejected(self, model, settings):
        with pytest.raises(InvalidParameters, match="has no"):
            RunConfig(model=model, **settings)

    @pytest.mark.parametrize("settings, name", [
        ({"seed": -1, "bootstrap_replicates": 5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"bootstrap_replicates": -2}, "bootstrap_replicates"),
        ({"bootstrap_replicates": 1}, "bootstrap_replicates"),
        ({"bootstrap_replicates": 2.5}, "bootstrap_replicates"),
        ({"model": "gwar", "h": np.inf}, "bandwidth"),
        ({"model": "gwar", "h": np.nan}, "bandwidth"),
        ({"model": "gwar", "hs": (0.1, np.inf)}, "bandwidth"),
        ({"model": "gwar", "hs": (np.nan,)}, "bandwidth"),
        ({"model": "slx", "k": 0}, "neighbor count"),
        ({"model": "slx", "k": 2.5}, "neighbor count"),
        ({"alpha": 2.0}, "alpha"),
        ({"alpha": np.nan}, "alpha"),
        ({"model": "gwar", "with_se": True}, "standard errors"),
        ({"model": "gwar", "bootstrap_replicates": 5}, "standard errors"),
    ], ids=["seed-with-bootstrap", "seed", "seed-fraction", "replicates-negative",
            "replicates-one", "replicates-fraction", "h-inf", "h-nan", "hs-inf", "hs-nan",
            "k-zero", "k-fraction", "alpha-out-of-range", "alpha-nan", "gwar-with-se",
            "gwar-bootstrap"])
    def test_bad_setting_rejected_by_the_config(self, settings, name):
        # so it fails before any work: a negative seed used to pass until the
        # bootstrap's first draw, after selection and the final fit
        settings = dict(settings)
        with pytest.raises(InvalidParameters, match=name):
            RunConfig(grid=CvGrid(hs=settings.pop("hs", None)), **settings)

    def test_slx_default_neighbor_grid(self):
        sim = synthesize(n=16, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=10)
        config = RunConfig(model="slx", grid=CvGrid(alphas=(0.5,)))
        doc, _ = run_fit(config, sim["Y"], sim["X"], sim["coords"])
        assert doc["selection"]["ks"] == [3, 5, 7, 9]
        assert doc["hyperparameters"]["k"] in (3, 5, 7, 9)

    def test_gwar_default_bandwidth_grid(self):
        sim = synthesize(n=14, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="two_cluster", seed=11)
        config = RunConfig(model="gwar", alpha=0.5)
        doc, _ = run_fit(config, sim["Y"], sim["X"], sim["coords"])
        assert len(doc["selection"]["hs"]) == 10
        assert doc["hyperparameters"]["h"] in doc["selection"]["hs"]


TEN_LOCATIONS = GeoCoordinates.from_degrees(np.linspace(-40.0, 40.0, 10), np.linspace(0.0, 90.0, 10))

BOOLEAN_SETTINGS = {
    "RunConfig.k": lambda b: RunConfig(model="slx", alpha=0.5, k=b),
    "RunConfig.seed": lambda b: RunConfig(seed=b),
    "RunConfig.bootstrap_replicates": lambda b: RunConfig(bootstrap_replicates=b),
    "bootstrap_covariance.seed": lambda b: bootstrap_covariance(
        np.full((10, 3), 1 / 3), np.ones((10, 1)), 0.5, replicates=2, seed=b),
    "LmOptions.max_iterations": lambda b: LmOptions(max_iterations=b),
    "CvGrid.ks": lambda b: CvGrid(ks=(3, b)),
    "marginal_effects": lambda b: marginal_effects(np.ones((2, 2)), np.full((4, 3), 1 / 3), b),
    "synthesize.slx_k": lambda b: synthesize(n=20, D=3, p=1, alpha=0.5, slx_k=b),
    "synthesize.seed": lambda b: synthesize(n=20, D=3, p=1, alpha=0.5, seed=b),
    "neighbor_table.m": lambda b: neighbor_table(TEN_LOCATIONS, b),
}


@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "numpy-bool"])
@pytest.mark.parametrize("site", list(BOOLEAN_SETTINGS))
def test_boolean_integer_setting_rejected(site, value):
    # True is an int to isinstance, so k=True, seed=True and
    # max_iterations=True used to run and reach the document as `true`
    with pytest.raises(InvalidParameters, match="must be an integer"):
        BOOLEAN_SETTINGS[site](value)


REAL_SETTINGS = {
    "RunConfig.alpha": lambda b: RunConfig(alpha=b),
    "RunConfig.h": lambda b: RunConfig(model="gwar", alpha=0.5, h=b),
    "CvGrid.alphas": lambda b: CvGrid(alphas=(0.5, b)),
    "CvGrid.hs": lambda b: CvGrid(hs=(0.1, b)),
    "LmOptions.sse_rel_tol": lambda b: LmOptions(sse_rel_tol=b),
    "LmOptions.grad_inf_tol": lambda b: LmOptions(grad_inf_tol=b),
    "LmOptions.initial_damping_scale": lambda b: LmOptions(initial_damping_scale=b),
    "LmOptions.damping_increase": lambda b: LmOptions(damping_increase=b),
    "LmOptions.damping_decrease": lambda b: LmOptions(damping_decrease=b),
    "synthesize.alpha": lambda b: synthesize(n=20, D=3, p=1, alpha=b),
    "synthesize.noise_scale": lambda b: synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=b),
    "fit_alpha_regression.alpha": lambda b: fit_alpha_regression(
        np.full((10, 3), 1 / 3), np.ones((10, 1)), b),
    "fit_gwar.h": lambda b: fit_gwar(np.full((10, 3), 1 / 3), np.ones((10, 1)), TEN_LOCATIONS,
                                     0.5, b),
    "kernel_weights_at.h": lambda b: spatial.kernel_weights_at(
        TEN_LOCATIONS, TEN_LOCATIONS.cart[0], b),
}


@pytest.mark.parametrize("value", [True, np.True_, "0.5"], ids=["bool", "numpy-bool", "string"])
@pytest.mark.parametrize("site", list(REAL_SETTINGS))
def test_non_real_setting_rejected(site, value):
    # RunConfig(alpha=True) used to run at alpha = 1 and echo `true` in the
    # document's config, and float() read the string "0.5" as 0.5
    with pytest.raises(InvalidParameters, match="must (lie in|be finite)"):
        REAL_SETTINGS[site](value)


def test_nan_bandwidth_rejected():
    # NaN passed the h <= 0 check and failed later as negative weights
    with pytest.raises(InvalidParameters, match="bandwidth h must be finite and > 0, got nan"):
        REAL_SETTINGS["fit_gwar.h"](np.nan)


@pytest.mark.parametrize("site", ["RunConfig.h", "CvGrid.hs", "fit_gwar.h",
                                  "kernel_weights_at.h"])
def test_nonpositive_bandwidth_is_one_class_everywhere(site):
    # RunConfig and CvGrid used to raise InvalidParameters and fit_gwar its
    # sibling NonpositiveBandwidth, so no one except clause caught both
    with pytest.raises(NonpositiveBandwidth, match="bandwidth must be > 0, got 0.0") as raised:
        REAL_SETTINGS[site](0.0)
    assert isinstance(raised.value, InvalidParameters)


def test_alpha_grid_has_the_rule_of_alpha():
    with pytest.raises(InvalidParameters, match=r"^alpha must lie in \[-1, 1\], got 2.0$"):
        CvGrid(alphas=(2.0,))


@pytest.mark.parametrize("refined, general", [
    (NonpositiveBandwidth, InvalidParameters), (InvalidK, InvalidParameters),
    (ShapeMismatch, DimensionMismatch)])
def test_refined_errors_are_caught_by_their_general_class(refined, general):
    assert issubclass(refined, general)


@pytest.mark.parametrize("value", ["no", 1, None, np.True_],
                         ids=["string", "int", "none", "numpy-bool"])
def test_with_se_must_be_a_bool(value):
    # RunConfig(with_se="no") used to compute standard errors
    with pytest.raises(InvalidParameters, match="with_se must be a bool"):
        RunConfig(with_se=value)


def _first(coords, n):
    """The first n locations of ``coords`` (n past the end repeats them)."""
    rows = np.arange(n) % coords.n
    return GeoCoordinates.from_degrees(coords.lat[rows], coords.lon[rows])


LOCATION_COUNT_CALLS = {
    "run_fit.gwar_fixed_h": lambda Y, X, c: run_fit(
        RunConfig(model="gwar", alpha=0.5, h=0.1), Y, X, _first(c, 15)),
    "run_fit.slx_fixed_k_longer": lambda Y, X, c: run_fit(
        RunConfig(model="slx", alpha=0.5, k=3), Y, X, _first(c, 22)),
    "run_cv.slx_shorter": lambda Y, X, c: run_cv(
        RunConfig(model="slx", grid=CvGrid(alphas=(0.5,), ks=(3,))), Y, X, _first(c, 4)),
    "loocv_slx.shorter": lambda Y, X, c: loocv_slx(
        Y, X, _first(c, 4), CvGrid(alphas=(0.5,), ks=(3,))),
    "loocv_slx.longer": lambda Y, X, c: loocv_slx(
        Y, X, _first(c, 22), CvGrid(alphas=(0.5,), ks=(3,))),
    "loocv_gwar.shorter": lambda Y, X, c: loocv_gwar(
        Y, X, _first(c, 15), CvGrid(alphas=(0.5,), hs=(0.1,))),
    "fit_gwar.shorter": lambda Y, X, c: fit_gwar(Y, X, _first(c, 15), 0.5, 0.1),
}


class TestLocationCounts:
    """Coordinates must hold one location per data row; a count that differs
    is a data error (exit 2), not an IndexError, a broadcast ValueError or
    a neighbor count error."""

    @staticmethod
    def data():
        sim = synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=3)
        return sim["Y"], sim["X"], sim["coords"]

    @pytest.mark.parametrize("call", list(LOCATION_COUNT_CALLS))
    def test_other_count_is_a_dimension_mismatch(self, call):
        with pytest.raises(DimensionMismatch, match="locations for 20 data rows"):
            LOCATION_COUNT_CALLS[call](*self.data())

    def test_predict_gwar_checks_before_solving(self, monkeypatch):
        Y, X, coords = self.data()
        fit = fit_gwar(Y, X, coords, 0.5, 0.1)

        def unreachable(*args, **kwargs):
            raise AssertionError("a location was solved")

        monkeypatch.setattr(spatial, "fit_alpha_batch", unreachable)
        with pytest.raises(DimensionMismatch, match="4 locations for 5 new rows"):
            predict_gwar(fit, X[:5], _first(coords, 4))
        # a one-column X_new used to broadcast over both coefficient rows
        with pytest.raises(DimensionMismatch, match="2 columns of the training design"):
            predict_gwar(fit, X[:5, :1], _first(coords, 5))


NO_LOCATIONS = GeoCoordinates.from_degrees([], [])
B_ZERO = np.zeros((3, 2))
MALFORMED_PROBLEM_CALLS = {
    # a 1-D response
    "fit_alpha_regression.response_1d": (DimensionMismatch, lambda Y, X, g: (
        fit_alpha_regression(Y[:, 0], X, 0.5))),
    "fit_alpha_batch.response_1d": (DimensionMismatch, lambda Y, X, g: (
        fit_alpha_batch(Y[:, 0], X, 0.5, np.ones((2, 30)), np.zeros(6)))),
    "loocv_alpha.response_1d": (DimensionMismatch, lambda Y, X, g: (
        loocv_alpha(Y[:, 0], X, CvGrid(alphas=(0.5,))))),
    "run_fit.response_1d": (DimensionMismatch, lambda Y, X, g: (
        run_fit(RunConfig(alpha=0.5), Y[:, 0], X))),
    "sandwich_covariance.response_1d": (DimensionMismatch, lambda Y, X, g: (
        sandwich_covariance(Y[:, 0], X, 0.5, B_ZERO))),
    "sse.response_1d": (DimensionMismatch, lambda Y, X, g: sse(Y[:, 0], X, 0.5, B_ZERO)),
    "gradient.response_1d": (DimensionMismatch, lambda Y, X, g: (
        gradient(Y[:, 0], X, 0.5, B_ZERO))),
    "residual_system.response_1d": (DimensionMismatch, lambda Y, X, g: (
        residual_system(Y[:, 0], X, 0.5))),
    # a response, design or coefficients that do not fit the others
    "hessian_exact.response_of_other_width": (DimensionMismatch, lambda Y, X, g: (
        hessian_exact(Y, X, 0.5, np.zeros((3, 3))))),
    "hessian_gauss_newton.response_of_other_length": (DimensionMismatch, lambda Y, X, g: (
        hessian_gauss_newton(Y[:29], X, 0.5, B_ZERO))),
    "fitted_mean.coefficients_1d": (DimensionMismatch, lambda Y, X, g: (
        fitted_mean(X, B_ZERO[:, 0]))),
    "transformed_mean.coefficients_of_other_length": (DimensionMismatch, lambda Y, X, g: (
        transformed_mean(X, B_ZERO[:2], 0.5))),
    # a 1-D design
    "run_fit.design_1d": (DimensionMismatch, lambda Y, X, g: (
        run_fit(RunConfig(alpha=0.5), Y, X[:, 1]))),
    "bootstrap_covariance.design_1d": (DimensionMismatch, lambda Y, X, g: (
        bootstrap_covariance(Y, X[:, 1], 0.5, replicates=2))),
    "fit_alpha_slx.design_1d": (DimensionMismatch, lambda Y, X, g: (
        fit_alpha_slx(Y, X[:, 1], X[:, 1:], 0.5))),
    # no rows: no weight, or no identified coefficients
    "fit_alpha_regression.no_rows": (DegenerateWeights, lambda Y, X, g: (
        fit_alpha_regression(Y[:0], X[:0], 0.5))),
    "fit_gwar.no_rows": (DegenerateWeights, lambda Y, X, g: (
        fit_gwar(Y[:0], X[:0], NO_LOCATIONS, 0.5, 0.05))),
    "run_fit.no_rows": (DataError, lambda Y, X, g: (
        run_fit(RunConfig(alpha=0.5), Y[:0], X[:0]))),
    # no locations
    "loocv_slx.no_locations": (MissingColumn, lambda Y, X, g: loocv_slx(Y, X, None)),
    "loocv_gwar.no_locations": (MissingColumn, lambda Y, X, g: loocv_gwar(Y, X, None)),
    "select.slx_no_locations": (MissingColumn, lambda Y, X, g: select("slx", Y, X)),
    "select.gwar_no_locations": (MissingColumn, lambda Y, X, g: select("gwar", Y, X)),
    "fit_gwar.no_locations": (MissingColumn, lambda Y, X, g: (
        fit_gwar(Y, X, None, 0.5, 0.05))),
    "predict_gwar.no_locations": (MissingColumn, lambda Y, X, g: predict_gwar(g, X, None)),
    # fitted means that do not fit the coefficients, or a stack of them
    "marginal_effects.means_of_other_width": (DimensionMismatch, lambda Y, X, g: (
        marginal_effects(B_ZERO, Y[:, :2], 1))),
    "marginal_effects.coefficients_1d": (DimensionMismatch, lambda Y, X, g: (
        marginal_effects(B_ZERO[:, 0], Y, 1))),
    "marginal_effects.stack_of_other_length": (DimensionMismatch, lambda Y, X, g: (
        marginal_effects(np.zeros((29, 3, 2)), Y, 1))),
}


class TestMalformedProblem:
    """A malformed problem is a typed error of its own, never numpy's
    ValueError or IndexError or an AttributeError of None."""

    @pytest.fixture(scope="class")
    def problem(self):
        sim = synthesize(n=30, D=3, p=2, alpha=0.5, noise_scale=0.05,
                         spatial_mode="slx", seed=1)
        Y, X, coords = sim["Y"], sim["X"], sim["coords"]
        return Y, X, coords, fit_gwar(Y, X, coords, 0.5, 0.05)

    @pytest.mark.parametrize("call", list(MALFORMED_PROBLEM_CALLS))
    def test_is_a_typed_error(self, call, problem):
        error, run_call = MALFORMED_PROBLEM_CALLS[call]
        Y, X, _, gwar = problem
        with pytest.raises(AlphaRegError) as raised:
            run_call(Y, X, gwar)
        assert raised.type is error

    def test_names_the_shapes(self, problem):
        Y, X, _, _ = problem
        with pytest.raises(DimensionMismatch, match=r"response \(30,\) .* design \(30, 3\)"):
            run_fit(RunConfig(alpha=0.5), Y[:, 0], X)
        with pytest.raises(DimensionMismatch, match=r"response \(30, 3\) .* \(3, 3\)"):
            sse(Y, X, 0.5, np.zeros((3, 3)))
        with pytest.raises(DimensionMismatch, match=r"means \(30, 2\) .* \(3, 2\)"):
            marginal_effects(B_ZERO, Y[:, :2], 1)

    @pytest.mark.parametrize("X_of", [
        lambda X: np.hstack([X, X[:, 1:2]]),  # a covariate twice
        lambda X: np.hstack([X[:, :1], np.ones((len(X), 1)), X[:, 1:]]),  # a constant one
    ], ids=["repeated-covariate", "constant-covariate"])
    @pytest.mark.parametrize("model", ["alpha", "slx", "gwar"])
    def test_dependent_covariates_are_refused_before_the_final_fit(self, model, X_of,
                                                                   problem, monkeypatch):
        Y, X, coords, _ = problem

        def unreachable(*args, **kwargs):
            raise AssertionError("the final fit ran")

        fixed = {"slx": {"k": 3}, "gwar": {"h": 0.05}}.get(model, {})
        for name in ("fit_alpha_regression", "fit_gwar"):
            monkeypatch.setattr(run, name, unreachable)
        with pytest.raises(DataError, match="linearly dependent"):
            run_fit(RunConfig(model=model, alpha=0.5, **fixed), Y, X_of(X), coords)


ARRAY_NAMES = {"Y": "response", "X": "design", "B": "coefficients"}
# each call and the arrays of the problem (Y, X, B) that it takes
NON_FINITE_CALLS = {
    "fit_alpha_regression": ("YX", lambda Y, X, B, c, g: fit_alpha_regression(Y, X, 0.5)),
    "fit_alpha_batch": ("YX", lambda Y, X, B, c, g: (
        fit_alpha_batch(Y, X, 0.5, np.ones((2, 30)), np.zeros(6)))),
    "loocv_alpha": ("YX", lambda Y, X, B, c, g: loocv_alpha(Y, X, CvGrid(alphas=(0.5,)))),
    "loocv_slx": ("YX", lambda Y, X, B, c, g: loocv_slx(Y, X, c, CvGrid(ks=(3,)))),
    "loocv_gwar": ("YX", lambda Y, X, B, c, g: loocv_gwar(Y, X, c, CvGrid(hs=(0.05,)))),
    "select.slx": ("YX", lambda Y, X, B, c, g: select("slx", Y, X, c, CvGrid(ks=(3,)))),
    "select.gwar": ("YX", lambda Y, X, B, c, g: select("gwar", Y, X, c, CvGrid(hs=(0.05,)))),
    "run_fit.alpha": ("YX", lambda Y, X, B, c, g: run_fit(RunConfig(alpha=0.5), Y, X)),
    "run_fit.slx": ("YX", lambda Y, X, B, c, g: (
        run_fit(RunConfig(model="slx", alpha=0.5, k=3), Y, X, c))),
    "run_fit.gwar": ("YX", lambda Y, X, B, c, g: (
        run_fit(RunConfig(model="gwar", alpha=0.5, h=0.05), Y, X, c))),
    "sandwich_covariance": ("YXB", lambda Y, X, B, c, g: sandwich_covariance(Y, X, 0.5, B)),
    "bootstrap_covariance": ("YX", lambda Y, X, B, c, g: (
        bootstrap_covariance(Y, X, 0.5, replicates=2))),
    "sse": ("YXB", lambda Y, X, B, c, g: sse(Y, X, 0.5, B)),
    "gradient": ("YXB", lambda Y, X, B, c, g: gradient(Y, X, 0.5, B)),
    "hessian_exact": ("YXB", lambda Y, X, B, c, g: hessian_exact(Y, X, 0.5, B)),
    "hessian_gauss_newton": ("YXB", lambda Y, X, B, c, g: hessian_gauss_newton(Y, X, 0.5, B)),
    "residual_system": ("YX", lambda Y, X, B, c, g: residual_system(Y, X, 0.5)),
    "fitted_mean": ("XB", lambda Y, X, B, c, g: fitted_mean(X, B)),
    "transformed_mean": ("XB", lambda Y, X, B, c, g: transformed_mean(X, B, 0.5)),
    "fit_alpha_slx": ("YX", lambda Y, X, B, c, g: fit_alpha_slx(Y, X, X[:, 1:], 0.5)),
    "fit_gwar": ("YX", lambda Y, X, B, c, g: fit_gwar(Y, X, c, 0.5, 0.05)),
    "predict_gwar": ("X", lambda Y, X, B, c, g: predict_gwar(g, X, c)),
    "marginal_effects": ("YB", lambda Y, X, B, c, g: marginal_effects(B, Y, 1)),
    "kld.observed": ("Y", lambda Y, X, B, c, g: kld(Y, np.full((30, 3), 1 / 3))),
    "kld.fitted": ("Y", lambda Y, X, B, c, g: kld(np.full((30, 3), 1 / 3), Y)),
    "alpha_transform": ("Y", lambda Y, X, B, c, g: alpha_transform(Y, 0.5)),
    "closure": ("Y", lambda Y, X, B, c, g: closure(Y)),
}
# where a call's message names an array by its own argument
OWN_NAMES = {("predict_gwar", "X"): "new rows", ("marginal_effects", "Y"): "fitted means",
             ("kld.observed", "Y"): "observed compositions",
             ("kld.fitted", "Y"): "fitted compositions",
             ("alpha_transform", "Y"): "compositions", ("closure", "Y"): "amounts"}


class TestNonFiniteProblem:
    """A NaN or an infinity in a design, a response or coefficients is a
    NonNumericCell naming the array, row and column, at every entry point."""

    @pytest.fixture(scope="class")
    def problem(self):
        sim = synthesize(n=30, D=3, p=2, alpha=0.5, noise_scale=0.05,
                         spatial_mode="slx", seed=1)
        Y, X, coords = sim["Y"], sim["X"], sim["coords"]
        B = fit_alpha_regression(Y, X, 0.5).coefficients
        return Y, X, B, coords, fit_gwar(Y, X, coords, 0.5, 0.05)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("call, array", [(call, array)
                                             for call, (arrays, _) in NON_FINITE_CALLS.items()
                                             for array in arrays])
    def test_is_a_non_numeric_cell(self, call, array, value, problem):
        # each used to fail as LinAlgError (SVD did not converge), as
        # NonFiniteResidual, as linearly dependent covariates, or to return NaN
        arrays = dict(zip("YXB", problem[:3]))
        arrays[array] = arrays[array].copy()
        arrays[array][2, 1] = value
        name = OWN_NAMES.get((call, array), ARRAY_NAMES[array])
        with pytest.raises(NonNumericCell, match=f"^{value} at row 2, column 1 of the {name} "):
            NON_FINITE_CALLS[call][1](arrays["Y"], arrays["X"], arrays["B"], *problem[3:])

    def test_patch_values(self, problem):
        Y, X = problem[:2]
        values = X[[3, 4]][:, None].copy()
        values[1, 0, 2] = np.inf
        with pytest.raises(NonNumericCell, match=r"^inf at block \(1,\), row 0, column 2 of "
                                                 "the patch values "):
            fit_alpha_batch(Y, X, 0.5, np.ones((2, 30)), np.zeros(6),
                            patches=(np.array([[3], [4]]), values))

    def test_stacked_coefficients(self, problem):
        gwar = problem[4]
        local = gwar.local_coefficients.copy()
        local[7, 2, 0] = np.nan
        with pytest.raises(NonNumericCell, match=r"^nan at block \(7,\), row 2, column 0 of "
                                                 "the coefficients "):
            marginal_effects(local, gwar.fitted, 1)

    def test_shapes_are_checked_first(self, problem):
        Y, X = problem[:2]
        with pytest.raises(DimensionMismatch):
            fit_alpha_regression(np.full(30, np.nan), X, 0.5)


def count_fits(monkeypatch):
    """Count ``fit_alpha_regression`` calls made through any alphareg module."""
    calls = []
    original = regression.fit_alpha_regression

    def counted(*args, **kwargs):
        calls.append(kwargs.get("theta0"))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("alphareg") and \
                getattr(module, "fit_alpha_regression", None) is original:
            monkeypatch.setattr(module, "fit_alpha_regression", counted)
    return calls


def slx_k(model):
    """The neighbour count k = 3, for the one model that has it."""
    return {"k": 3} if model == "slx" else {}


class TestBootstrapRun:
    @pytest.mark.parametrize("model", ["alpha", "slx"])
    def test_one_fit_per_replicate_plus_the_final_fit(self, monkeypatch, model):
        sim = synthesize(n=40, D=3, p=2, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=12)
        calls = count_fits(monkeypatch)
        batches = []
        real_batch = inference.fit_alpha_batch

        def batch(Y, X, alpha, weights, theta0, opts=None, damping0=None):
            batches.append((weights, theta0, damping0))
            return real_batch(Y, X, alpha, weights, theta0, opts, damping0)

        monkeypatch.setattr(inference, "fit_alpha_batch", batch)
        R = 7
        config = RunConfig(model=model, alpha=0.5, bootstrap_replicates=R,
                           **slx_k(model))
        doc, fit = run_fit(config, sim["Y"], sim["X"], sim["coords"])
        assert len(calls) == 1  # the final fit; the replicates are one batch
        (weights, theta0, damping0), = batches
        assert isinstance(weights, RowBlocks) and len(weights) == R
        assert theta0 is fit.lm.theta and damping0 == fit.lm.damping
        assert doc["standard_errors"]["replicates"] == R

    @pytest.mark.parametrize("model", ["alpha", "slx"])
    def test_standard_errors_equal_a_fresh_bootstrap(self, model):
        # the final fit is the bootstrap's full-data fit, bit for bit
        sim = synthesize(n=40, D=3, p=2, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=13)
        X = sim["X"]
        if model == "slx":
            X = np.hstack([X, neighbor_lag(*neighbor_table(sim["coords"], 3), X)])
        config = RunConfig(model=model, alpha=0.5, bootstrap_replicates=6, seed=4,
                           **slx_k(model))
        doc, _ = run_fit(config, sim["Y"], sim["X"], sim["coords"])
        cov = bootstrap_covariance(sim["Y"], X, 0.5, replicates=6, seed=4)
        se, ame = doc["standard_errors"], cov.ame_standard_errors.tolist()
        if model == "slx":  # the direct (beta) rows, then the spillover (gamma) rows
            assert (se["ame_direct"], se["ame_indirect"]) == (ame[:2], ame[2:])
            assert "ame" not in se
        else:
            assert se["ame"] == ame
        assert se["coefficients"] == np.sqrt(np.diag(cov.matrix)).reshape(
            (X.shape[1], 2), order="F").tolist()

    def test_slx_effects_split_into_direct_and_indirect(self):
        # on the slx design [X | lag] (q = 1 + 2p), replicate r's direct and
        # indirect AMEs are the count-weighted means of marginal_effects on
        # its beta and gamma rows
        n, p, R, seed = 40, 2, 6, 4
        sim = synthesize(n=n, D=3, p=p, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=14)
        Y, X = sim["Y"], sim["X"]
        X_model = np.hstack([X, neighbor_lag(*neighbor_table(sim["coords"], 3), X)])
        config = RunConfig(model="slx", alpha=0.5, k=3, bootstrap_replicates=R, seed=seed)
        doc, fit = run_fit(config, Y, X, sim["coords"])
        draws = []
        for rep in range(R):
            counts = np.bincount(np.random.default_rng([seed, rep]).integers(0, n, size=n),
                                 minlength=n)
            replicate = spatial.split_slx(fit_alpha_regression(
                Y, X_model, 0.5, weights=counts, theta0=fit.lm.theta,
                damping0=fit.lm.damping), p)
            draws.append([[counts @ marginal_effects(B, replicate.fitted, k) / n
                           for k in range(1, p + 1)] for B in (replicate.beta, replicate.gamma)])
        se = doc["standard_errors"]
        got = np.array([se["ame_direct"], se["ame_indirect"]])
        assert got.shape == (2, p, 3)
        np.testing.assert_allclose(got, np.std(np.array(draws), axis=0, ddof=1),
                                   rtol=1e-13, atol=0)


class TestBootstrapDiagnostics:
    @pytest.mark.parametrize("model", ["alpha", "slx"])
    def test_document_records_the_replicate_solves(self, model):
        sim = synthesize(n=40, D=3, p=2, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=15)
        config = RunConfig(model=model, alpha=0.5, bootstrap_replicates=6,
                           **slx_k(model))
        doc, _ = run_fit(config, sim["Y"], sim["X"], sim["coords"])
        assert list(doc)[-2:] == ["standard_errors", "diagnostics"]
        diag = doc["diagnostics"]["bootstrap"]
        assert set(diag) == {"converged_by", "iterations", "failed"}
        assert sum(diag["converged_by"].values()) == 6
        assert sum(diag["iterations"].values()) == 6
        assert diag["failed"] == {}
        assert "diagnostics" not in doc["standard_errors"]

    @pytest.mark.parametrize("settings", [{}, {"with_se": True}])
    def test_no_block_without_a_bootstrap(self, settings):
        sim = synthesize(n=30, D=3, p=1, alpha=0.5, noise_scale=0.1, seed=16)
        doc, _ = run_fit(RunConfig(model="alpha", alpha=0.5, **settings),
                         sim["Y"], sim["X"])
        assert "diagnostics" not in doc


def record_location_solves(monkeypatch):
    """Record the outcomes of every location set ``fit_gwar`` solves."""
    sets = []
    original = spatial.fit_alpha_batch

    def recorded(*args, **kwargs):
        sets.append(original(*args, **kwargs))
        return sets[-1]

    monkeypatch.setattr(spatial, "fit_alpha_batch", recorded)
    return sets


def gwar_case():
    sim = synthesize(n=60, D=3, p=2, alpha=0.5, noise_scale=0.05,
                     spatial_mode="two_cluster", seed=21)
    config = RunConfig(model="gwar", alpha=0.5, grid=CvGrid(hs=(0.01, 0.02, 0.05)))
    return config, (sim["Y"], sim["X"], sim["coords"])


class TestFinalFitFromTheSelection:
    def test_selected_gwar_continues_from_the_folds(self, monkeypatch):
        config, args = gwar_case()
        fits = count_fits(monkeypatch)
        _, cv = run_cv(config, *args)
        searched = len(fits)
        solves = record_location_solves(monkeypatch)
        doc, fit = run_fit(config, *args)
        assert len(fits) == 2 * searched  # the search's own, and no global refit
        np.testing.assert_array_equal(fit.global_coefficients, cv.fit.coefficients)
        cold = fit_gwar(*args, 0.5, cv.best[1])
        scale = np.max(np.abs(cold.local_coefficients))
        np.testing.assert_allclose(fit.local_coefficients, cold.local_coefficients,
                                   rtol=0, atol=1e-7 * scale)
        continued, from_scratch = ([o.iterations for o in s] for s in solves)
        assert all(c <= f for c, f in zip(continued, from_scratch))
        assert np.mean(continued) < np.mean(from_scratch)
        histogram = doc["diagnostics"]["gwar"]["iterations"]
        assert histogram == {str(i): continued.count(i) for i in sorted(set(continued))}

    def test_failed_fold_location_starts_from_the_global_fit(self, monkeypatch):
        # a failed fold scores +inf, so the winner never has one: hand the
        # winning fold set, with fold j failed, to fit_gwar directly
        config, (Y, X, coords) = gwar_case()
        outcomes = []
        original = selection.fit_alpha_batch

        def kept(*args, **kwargs):
            outcomes.append(original(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(selection, "fit_alpha_batch", kept)
        _, cv = run_cv(config, Y, X, coords)
        won = outcomes[cv.hs.index(cv.best[1])]
        j = 7
        won[j] = NonFiniteResidual("forced failure")
        ok, theta, damping = selection._fold_solutions(won, cv.fit.lm.theta)
        assert not ok[j] and ok.sum() == len(won) - 1
        np.testing.assert_array_equal(theta[j], cv.fit.lm.theta)
        assert damping[j] == 0.0
        others = np.arange(len(won)) != j
        np.testing.assert_array_equal(theta[others], cv.fold_theta[others])
        np.testing.assert_array_equal(damping[others], cv.fold_damping[others])

        solves = record_location_solves(monkeypatch)
        fit_gwar(Y, X, coords, 0.5, cv.best[1], start=(cv.fit, theta, damping))
        fit_gwar(Y, X, coords, 0.5, cv.best[1], start=(cv.fit, cv.fold_theta,
                                                       cv.fold_damping))
        fit_gwar(Y, X, coords, 0.5, cv.best[1])
        fell_back, continued, from_scratch = solves
        assert fell_back[j].iterations == from_scratch[j].iterations
        np.testing.assert_allclose(fell_back[j].theta, from_scratch[j].theta,
                                   rtol=0, atol=1e-12)
        assert continued[j].iterations < from_scratch[j].iterations

    @pytest.mark.parametrize("model", ["alpha", "slx"])
    def test_selected_fit_is_the_search_fit(self, monkeypatch, model):
        sim = synthesize(n=30, D=3, p=2, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=23)
        grid = CvGrid(alphas=(0.5, 1.0), ks=(3, 5) if model == "slx" else None)
        config = RunConfig(model=model, grid=grid, with_se=True)
        args = (sim["Y"], sim["X"], sim["coords"])
        fits = count_fits(monkeypatch)
        _, cv = run_cv(config, *args)
        searched = len(fits)
        doc, fit = run_fit(config, *args)
        assert len(fits) == 2 * searched
        assert fit.coefficients.tobytes() == cv.fit.coefficients.tobytes()
        assert doc["fit"]["coefficients"] == cv.fit.coefficients.tolist()
        if model == "slx":  # split as fit_alpha_slx splits, 3 = p + 1 rows each
            C = cv.fit.coefficients
            assert doc["fit"]["beta"] == C[:3].tolist()
            assert doc["fit"]["gamma"] == [[0.0, 0.0]] + C[3:].tolist()

    def test_selected_slx_takes_the_search_design(self, monkeypatch):
        # after a search the final fit builds no neighbor table and no lag:
        # its design, the standard errors' too, is the search's
        sim = synthesize(n=30, D=3, p=2, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=23)
        config = RunConfig(model="slx", grid=CvGrid(alphas=(0.5, 1.0), ks=(3, 5)),
                           with_se=True)
        args = (sim["Y"], sim["X"], sim["coords"])
        _, cv = run_cv(config, *args)
        alpha, k = cv.best
        lag = neighbor_lag(*neighbor_table(sim["coords"], k), sim["X"])
        np.testing.assert_array_equal(cv.design, np.hstack([sim["X"], lag]))

        def refused(*args, **kwargs):
            raise AssertionError("the final fit rebuilt the lag")
        monkeypatch.setattr(run, "neighbor_table", refused)
        monkeypatch.setattr(run, "neighbor_lag", refused)
        doc, _ = run_fit(config, *args)
        se = inference.sandwich_covariance(sim["Y"], cv.design, alpha, cv.fit.coefficients)
        assert doc["standard_errors"]["coefficients"] == regression.theta_to_coef(
            np.sqrt(np.diag(se.matrix)), cv.design.shape[1], 2).tolist()

    @pytest.mark.parametrize("model", ["alpha", "slx", "gwar"])
    def test_fixed_hyperparameters_fit_from_scratch(self, monkeypatch, model):
        sim = synthesize(n=30, D=3, p=2, alpha=0.5, noise_scale=0.05,
                         spatial_mode="two_cluster", seed=24)
        Y, X, coords = sim["Y"], sim["X"], sim["coords"]
        fixed = {"alpha": {}, "slx": {"k": 3}, "gwar": {"h": 0.02}}[model]
        fits = count_fits(monkeypatch)
        doc, fit = run_fit(RunConfig(model=model, alpha=0.5, **fixed), Y, X, coords)
        assert doc["selection"] is None
        assert fits == [None]  # one full-data fit, from B = 0
        if model == "alpha":
            expected = fit_alpha_regression(Y, X, 0.5).coefficients
        elif model == "slx":
            lag = neighbor_lag(*neighbor_table(coords, 3), X)
            expected = fit_alpha_slx(Y, X, lag, 0.5).coefficients
        else:
            expected = fit_gwar(Y, X, coords, 0.5, 0.02).local_coefficients
        got = fit.local_coefficients if model == "gwar" else fit.coefficients
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("h", [None, 0.02])
    def test_gwar_document_records_the_location_solves(self, h):
        config, args = gwar_case()
        doc, _ = run_fit(RunConfig(model="gwar", alpha=0.5, h=h, grid=config.grid), *args)
        assert list(doc)[-1] == "diagnostics"
        diag = doc["diagnostics"]["gwar"]
        assert set(diag) == {"converged_by", "iterations", "failed"}
        assert sum(diag["converged_by"].values()) == 60
        assert sum(diag["iterations"].values()) == 60
        assert diag["failed"] == {}
        assert json.dumps(doc) == json.dumps(
            run_fit(RunConfig(model="gwar", alpha=0.5, h=h, grid=config.grid), *args)[0])
