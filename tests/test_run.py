"""Orchestration: selection wiring, document determinism, and the
intercept-only closed form."""

import json
import sys
from dataclasses import asdict

import numpy as np
import pytest

from alphareg import (
    CvGrid,
    InvalidParameters,
    MissingColumn,
    RunConfig,
    bootstrap_covariance,
    contiguity_matrix,
    default_k_grid,
    run_cv,
    run_fit,
)
from alphareg import regression
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
        sim = synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="two_cluster", seed=9)
        config = RunConfig(model="gwar", alpha=0.5, h=0.02, with_se=True)
        with pytest.raises(InvalidParameters):
            run_fit(config, sim["Y"], sim["X"], sim["coords"])

    def test_invalid_model_rejected(self):
        with pytest.raises(InvalidParameters):
            RunConfig(model="nope")

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


class TestBootstrapRun:
    @pytest.mark.parametrize("model", ["alpha", "slx"])
    def test_one_fit_per_replicate_plus_the_final_fit(self, monkeypatch, model):
        sim = synthesize(n=40, D=3, p=2, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=12)
        calls = count_fits(monkeypatch)
        R = 7
        config = RunConfig(model=model, alpha=0.5, k=3, bootstrap_replicates=R)
        doc, fit = run_fit(config, sim["Y"], sim["X"], sim["coords"])
        assert len(calls) == R + 1
        assert all(t is fit.lm.theta for t in calls[1:])
        assert doc["standard_errors"]["replicates"] == R

    @pytest.mark.parametrize("model", ["alpha", "slx"])
    def test_standard_errors_equal_a_fresh_bootstrap(self, model):
        # the final fit is the bootstrap's full-data fit, bit for bit
        sim = synthesize(n=40, D=3, p=2, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=13)
        X = sim["X"]
        if model == "slx":
            X = np.hstack([X, contiguity_matrix(sim["coords"], 3) @ X[:, 1:]])
        config = RunConfig(model=model, alpha=0.5, k=3, bootstrap_replicates=6,
                           seed=4)
        doc, _ = run_fit(config, sim["Y"], sim["X"], sim["coords"])
        cov = bootstrap_covariance(sim["Y"], X, 0.5, replicates=6, seed=4)
        se = doc["standard_errors"]
        assert se["ame"] == cov.ame_standard_errors.tolist()
        assert se["coefficients"] == np.sqrt(np.diag(cov.matrix)).reshape(
            (X.shape[1], 2), order="F").tolist()
