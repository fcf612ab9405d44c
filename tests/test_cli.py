"""Command-line behavior: subcommands end to end, determinism of emitted
documents, and the exit-code contract (0 ok, 1 usage, 2 data, 3 numerical)."""

import json
import os

import numpy as np
import pytest

from alphareg import InvalidParameters
from alphareg._parallel import THREADS_ENV_VAR, resolve_threads
from alphareg.cli import main


@pytest.fixture
def dataset(tmp_path):
    code = main([
        "generate", "--n", "40", "--components", "3", "--covariates", "2",
        "--alpha", "0.5", "--noise-scale", "0.08", "--spatial-mode", "slx",
        "--seed", "21", "--out-dir", str(tmp_path / "ds"),
    ])
    assert code == 0
    return tmp_path / "ds" / "data.csv"


DATA_ARGS = ["--composition-cols", "y1,y2,y3", "--covariate-cols", "x1,x2"]
GEO_ARGS = ["--lat-col", "lat", "--lon-col", "lon"]


class TestFitCommand:
    def test_fit_and_document(self, dataset, tmp_path):
        out = tmp_path / "fit.json"
        code = main(["fit", "--data", str(dataset), *DATA_ARGS,
                     "--model", "alpha", "--alpha", "0.5",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["hyperparameters"] == {"alpha": 0.5}
        assert np.asarray(doc["fit"]["coefficients"]).shape == (3, 2)
        assert "x1" in doc["marginal_effects"]["ame"]

    def test_repeat_runs_byte_identical(self, dataset, tmp_path):
        args = ["fit", "--data", str(dataset), *DATA_ARGS,
                "--model", "alpha", "--alphas", "0.5,1.0", "--seed", "3"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_export(self, dataset, tmp_path):
        exp = tmp_path / "tables"
        code = main(["fit", "--data", str(dataset), *DATA_ARGS,
                     "--model", "alpha", "--alpha", "1.0",
                     "--out", str(tmp_path / "f.json"), "--csv-dir", str(exp)])
        assert code == 0
        assert (exp / "ame.csv").exists()
        assert (exp / "correlations.csv").exists()
        assert (exp / "fitted.csv").exists()

    @pytest.mark.parametrize("n", [30, 32])
    def test_csv_export_with_constant_component(self, n, tmp_path):
        # y1 is constant, so its observed-fitted correlation is undefined;
        # np.std of the column is exactly 0 at n=32 but not at n=30
        rng = np.random.default_rng(5)
        share = rng.uniform(0.2, 0.8, size=n)
        x = rng.normal(size=(n, 2))
        rows = [f"0.2,{0.8 * s:.17g},{0.8 * (1 - s):.17g},{a:.17g},{b:.17g}"
                for s, (a, b) in zip(share, x)]
        data = tmp_path / "const.csv"
        data.write_text("y1,y2,y3,x1,x2\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        exp, out = tmp_path / "out", tmp_path / "f.json"
        code = main(["fit", "--data", str(data), *DATA_ARGS, "--alpha", "1",
                     "--csv-dir", str(exp), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["fit"]["observed_fitted_correlation"][0] is None
        corr = (exp / "correlations.csv").read_text().splitlines()
        assert corr[1].split(",")[0] == ""
        assert (exp / "ame.csv").exists() and (exp / "fitted.csv").exists()

    def test_slx_fit(self, dataset, tmp_path):
        out = tmp_path / "slx.json"
        code = main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "slx", "--alpha", "0.5", "--k", "4",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["hyperparameters"] == {"alpha": 0.5, "k": 4}

    def test_gwar_fit_with_selection(self, dataset, tmp_path):
        out = tmp_path / "gwar.json"
        code = main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "gwar", "--alpha", "0.5",
                     "--hs", "0.02,1000000.0", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["selection"] is not None
        assert doc["hyperparameters"]["h"] in (0.02, 1000000.0)


class TestPredictCommand:
    def test_alpha_model_round_trip(self, dataset, tmp_path):
        doc_path = tmp_path / "fit.json"
        main(["fit", "--data", str(dataset), *DATA_ARGS,
              "--model", "alpha", "--alpha", "0.5", "--out", str(doc_path)])
        pred_path = tmp_path / "pred.csv"
        code = main(["predict", "--model-doc", str(doc_path),
                     "--data", str(dataset), "--out", str(pred_path)])
        assert code == 0
        rows = pred_path.read_text().strip().splitlines()
        assert rows[0] == "y1,y2,y3"
        values = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        np.testing.assert_allclose(values.sum(axis=1), 1.0, atol=1e-12)

    def test_slx_prediction(self, dataset, tmp_path):
        doc_path = tmp_path / "slx.json"
        main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
              "--model", "slx", "--alpha", "0.5", "--k", "4",
              "--out", str(doc_path)])
        code = main(["predict", "--model-doc", str(doc_path),
                     "--data", str(dataset), "--out", str(tmp_path / "p.csv")])
        assert code == 0

    def test_slx_prediction_lags_are_rows_of_w(self, dataset, tmp_path):
        # predicting at the training locations: each row's lag is the row
        # that contiguity_matrix gives a duplicate of that location appended
        # to the training data (its coincident twin first, then the nearest)
        from alphareg import GeoCoordinates, contiguity_matrix, fitted_mean
        from alphareg.datasets import DatasetSpec, load_dataset

        doc_path, pred_path = tmp_path / "slx.json", tmp_path / "p.csv"
        main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
              "--model", "slx", "--alpha", "0.5", "--k", "4", "--out", str(doc_path)])
        assert main(["predict", "--model-doc", str(doc_path), "--data", str(dataset),
                     "--out", str(pred_path)]) == 0
        _, X, coords = load_dataset(DatasetSpec(
            path=str(dataset), composition_columns=["y1", "y2", "y3"],
            covariate_columns=["x1", "x2"], lat_column="lat", lon_column="lon",
        ))
        n = X.shape[0]
        lags = np.vstack([
            contiguity_matrix(GeoCoordinates.from_degrees(
                np.append(coords.lat, coords.lat[j]),
                np.append(coords.lon, coords.lon[j])), 4)[n, :n] @ X[:, 1:]
            for j in range(n)
        ])
        C = np.asarray(json.loads(doc_path.read_text())["fit"]["coefficients"])
        rows = pred_path.read_text().strip().splitlines()[1:]
        pred = np.array([[float(v) for v in r.split(",")] for r in rows])
        np.testing.assert_allclose(pred, fitted_mean(np.hstack([X, lags]), C),
                                   rtol=1e-12)

    def test_edited_training_file_is_data_error(self, dataset, tmp_path, capsys):
        doc_path = tmp_path / "slx.json"
        main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
              "--model", "slx", "--alpha", "0.5", "--k", "4", "--out", str(doc_path)])
        new_data = tmp_path / "new.csv"
        new_data.write_bytes(dataset.read_bytes())
        lines = dataset.read_text().splitlines()
        lines[1] = lines[2]  # the first observation silently replaced
        dataset.write_text("\n".join(lines) + "\n")
        code = main(["predict", "--model-doc", str(doc_path),
                     "--data", str(new_data), "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "changed since the fit" in capsys.readouterr().err
        dataset.unlink()
        code = main(["predict", "--model-doc", str(doc_path),
                     "--data", str(new_data), "--out", str(tmp_path / "p.csv")])
        assert code == 2

    def test_prediction_from_another_working_directory(self, dataset, tmp_path,
                                                       monkeypatch):
        doc_path = tmp_path / "slx.json"
        monkeypatch.chdir(dataset.parent)
        assert main(["fit", "--data", dataset.name, *DATA_ARGS, *GEO_ARGS,
                     "--model", "slx", "--alpha", "0.5", "--k", "4",
                     "--out", str(doc_path)]) == 0
        recorded = json.loads(doc_path.read_text())["dataset"]
        assert recorded["path"] == dataset.name
        assert recorded["resolved_path"] == str(dataset.resolve())
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        code = main(["predict", "--model-doc", str(doc_path),
                     "--data", str(dataset), "--out", "p.csv"])
        assert code == 0
        assert len((elsewhere / "p.csv").read_text().splitlines()) == 41

    def test_gwar_prediction_matches_document_fit(self, dataset, tmp_path):
        doc_path = tmp_path / "gwar.json"
        main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
              "--model", "gwar", "--alpha", "0.5", "--h", "0.02",
              "--out", str(doc_path)])
        pred_path = tmp_path / "pg.csv"
        code = main(["predict", "--model-doc", str(doc_path),
                     "--data", str(dataset), "--out", str(pred_path)])
        assert code == 0
        # training locations are coincident with themselves, so predictions
        # must reproduce the fitted compositions implied by the document
        doc = json.loads(doc_path.read_text())
        rows = pred_path.read_text().strip().splitlines()[1:]
        pred = np.array([[float(v) for v in r.split(",")] for r in rows])
        from alphareg.datasets import DatasetSpec, load_dataset
        from alphareg.regression import fitted_mean

        _, X_train, _ = load_dataset(DatasetSpec(
            path=str(dataset), composition_columns=["y1", "y2", "y3"],
            covariate_columns=["x1", "x2"], lat_column="lat", lon_column="lon",
        ))
        local = np.asarray(doc["fit"]["local_coefficients"])
        fitted = np.vstack([
            fitted_mean(X_train[i:i + 1], local[i]) for i in range(len(local))
        ])
        np.testing.assert_allclose(pred, fitted, atol=1e-6)


class TestOtherCommands:
    def test_cv_scores(self, dataset, tmp_path):
        out = tmp_path / "cv.json"
        code = main(["cv", "--data", str(dataset), *DATA_ARGS,
                     "--model", "alpha", "--alphas", "0.5,1.0",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["selection"]["scores"]) == 2

    def test_failed_grid_point_serialised_as_null(self, dataset, tmp_path):
        # k = 39 = n-1 is infeasible inside every fold and scores +inf
        out = tmp_path / "cv.json"
        code = main(["cv", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "slx", "--alphas", "0.5", "--ks", "3,39",
                     "--threads", "1", "--out", str(out)])
        assert code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        scores = doc["selection"]["scores"]
        assert scores[0][1] is None and scores[0][0] > 0
        assert doc["selection"]["best"] == [0.5, 3]

    @pytest.mark.parametrize("command", ["cv", "fit"])
    def test_failed_folds_per_grid_point(self, command, dataset, tmp_path):
        # k = 39 = n-1 fails in all 40 folds; k = 3 in none
        out = tmp_path / "doc.json"
        code = main([command, "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "slx", "--alphas", "0.5,1.0", "--ks", "3,39",
                     "--threads", "1", "--out", str(out)])
        assert code == 0
        selection = json.loads(out.read_text())["selection"]
        assert selection["failed_folds"] == [[0, 40], [0, 40]]
        assert [[s is None for s in row] for row in selection["scores"]] == \
            [[False, True], [False, True]]

    def test_margins(self, dataset, tmp_path):
        out = tmp_path / "m.json"
        code = main(["margins", "--data", str(dataset), *DATA_ARGS,
                     "--model", "alpha", "--alpha", "1.0", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) >= {"hyperparameters", "marginal_effects"}
        ame = np.asarray(doc["marginal_effects"]["ame"]["x2"])
        assert abs(ame.sum()) < 1e-12

    def test_margins_with_bootstrap_se(self, dataset, tmp_path):
        out = tmp_path / "mb.json"
        code = main(["margins", "--data", str(dataset), *DATA_ARGS,
                     "--model", "alpha", "--alpha", "0.5",
                     "--bootstrap-replicates", "8", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["standard_errors"]["kind"] == "bootstrap"
        ame_se = np.asarray(doc["standard_errors"]["ame"])
        assert ame_se.shape == (2, 3) and np.all(ame_se >= 0)


class TestExitCodes:
    def test_usage_error(self, capsys):
        code = main(["fit", "--bogus"])
        assert code == 1

    def test_missing_column_is_data_error(self, dataset):
        code = main(["fit", "--data", str(dataset),
                     "--composition-cols", "y1,y2,nope",
                     "--covariate-cols", "x1", "--alpha", "0.5"])
        assert code == 2

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["fit", "--data", str(tmp_path / "absent.csv"),
                     *DATA_ARGS, "--alpha", "0.5"])
        assert code == 2

    def test_zeros_with_nonpositive_alpha_is_data_error(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("y1,y2,y3,x1\n0,0.4,0.6,1.0\n0.2,0.3,0.5,-1.0\n"
                        "0.1,0.4,0.5,0.3\n0.3,0.3,0.4,0.2\n", encoding="utf-8")
        code = main(["fit", "--data", str(path),
                     "--composition-cols", "y1,y2,y3",
                     "--covariate-cols", "x1", "--alpha", "-0.5"])
        assert code == 2

    def test_all_grid_points_failing_is_numerical_error(self, dataset, tmp_path):
        out = tmp_path / "cv.json"
        code = main(["cv", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "slx", "--alphas", "0.5", "--ks", "39",
                     "--threads", "1", "--out", str(out)])
        assert code == 3
        assert not out.exists()

    def test_degenerate_bandwidth_is_numerical_error(self, dataset):
        code = main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "gwar", "--alpha", "0.5", "--h", "1e-9"])
        assert code == 3

    @pytest.mark.parametrize("command", ["fit", "cv", "margins", "predict"])
    def test_bad_thread_count_is_usage_error(self, command, capsys):
        args = (["--model-doc", "doc.json", "--data", "new.csv"] if command == "predict"
                else ["--data", "data.csv", *DATA_ARGS])
        assert main([command, *args, "--threads", "abc"]) == 1
        assert "'auto' or an integer" in capsys.readouterr().err

    def test_non_integer_threads_variable_is_data_error(self, dataset, monkeypatch,
                                                        capsys):
        monkeypatch.setenv("ALPHAREG_THREADS", "two")
        code = main(["fit", "--data", str(dataset), *DATA_ARGS, "--alpha", "0.5"])
        assert code == 2
        assert "ALPHAREG_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "not json", "{}"])
    def test_unreadable_model_document_is_data_error(self, content, dataset, tmp_path,
                                                     capsys):
        doc_path = tmp_path / "doc.json"
        if content is not None:
            doc_path.write_text(content, encoding="utf-8")
        code = main(["predict", "--model-doc", str(doc_path), "--data", str(dataset)])
        assert code == 2
        assert str(doc_path) in capsys.readouterr().err


class TestResolveThreads:
    def test_non_integer_variable(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "two")
        with pytest.raises(InvalidParameters, match="two"):
            resolve_threads("auto")

    def test_variable_overrides_setting(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert resolve_threads("auto") == resolve_threads(1) == 3

    def test_auto_is_one_per_cpu(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        assert resolve_threads("auto") == resolve_threads(0) == (os.cpu_count() or 1)
        assert resolve_threads(2) == 2
