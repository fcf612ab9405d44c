"""Command-line behavior: subcommands end to end, determinism of emitted
documents, and the exit-code contract (0 ok, 1 usage, 2 data, 3 numerical)."""

import csv
import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from alphareg import CvGrid, InvalidParameters, RunConfig
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

    def test_unset_options_keep_the_run_config_defaults(self, dataset, tmp_path):
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", str(dataset), *DATA_ARGS, "--alphas", "0.5",
                     "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        # `--threads auto` (0) is the one default the command line sets itself
        expected = asdict(RunConfig(grid=CvGrid(alphas=(0.5,)), threads=0))
        assert config == json.loads(json.dumps(expected))

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

    @pytest.mark.parametrize("model, fixed", [("alpha", []), ("slx", ["--k", "4"])])
    def test_new_data_needs_no_composition_columns(self, model, fixed, dataset,
                                                   tmp_path):
        doc_path = tmp_path / "fit.json"
        assert main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", model, "--alpha", "0.5", *fixed,
                     "--out", str(doc_path)]) == 0
        with open(dataset, newline="") as fh:
            rows = list(csv.DictReader(fh))
        new_data = tmp_path / "new.csv"
        with open(new_data, "w", newline="") as fh:
            writer = csv.DictWriter(fh, ["x1", "x2", "lat", "lon"], extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        preds = []
        for data in (dataset, new_data):
            out = tmp_path / f"{data.stem}-pred.csv"
            assert main(["predict", "--model-doc", str(doc_path), "--data", str(data),
                         "--out", str(out)]) == 0
            preds.append(out.read_bytes())
        assert preds[0] == preds[1]

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

    @pytest.mark.parametrize("model, fixed, axis, searched", [
        ("alpha", ["--alpha", "0.5"], "alphas", [0.5]),
        ("slx", ["--k", "3"], "ks", [3]),
        ("gwar", ["--h", "0.05", "--alphas", "0.5,1"], "hs", [0.05]),
    ])
    def test_fixed_value_narrows_the_search(self, model, fixed, axis, searched,
                                            dataset, tmp_path):
        out = tmp_path / "cv.json"
        assert main(["cv", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", model, *fixed, "--out", str(out)]) == 0
        selection = json.loads(out.read_text())["selection"]
        assert selection[axis] == searched
        assert selection["best"][0 if axis == "alphas" else 1] == searched[0]

    def test_failed_grid_point_serialised_as_null(self, dataset, tmp_path):
        # k = 39 = n-1 is infeasible inside every fold and scores +inf
        out = tmp_path / "cv.json"
        code = main(["cv", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "slx", "--alphas", "0.5", "--ks", "3,39",
                     "--out", str(out)])
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
                     "--out", str(out)])
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
                     "--out", str(out)])
        assert code == 3
        assert not out.exists()

    def test_degenerate_bandwidth_is_numerical_error(self, dataset):
        code = main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "gwar", "--alpha", "0.5", "--h", "1e-9"])
        assert code == 3

    @pytest.mark.parametrize("command", ["fit", "margins"])
    def test_bad_thread_count_is_usage_error(self, command, capsys):
        assert main([command, "--data", "data.csv", *DATA_ARGS, "--threads", "abc"]) == 1
        assert "'auto' or an integer" in capsys.readouterr().err

    def test_threads_only_where_there_is_a_bootstrap(self, capsys):
        # --seed seeds the bootstrap too, and only fit writes CSV tables
        where = {"--threads": {"fit", "margins"}, "--seed": {"fit", "margins"},
                 "--csv-dir": {"fit"}}
        for command in ("fit", "margins", "cv", "predict"):
            assert main([command, "--help"]) == 0
            text = capsys.readouterr().out
            for option, commands in where.items():
                assert (option in text) == (command in commands), (command, option)

    @pytest.mark.parametrize("command, option", [
        ("cv", ["--seed", "3"]), ("cv", ["--csv-dir", "tables"]),
        ("margins", ["--csv-dir", "tables"]),
    ])
    def test_option_that_would_do_nothing_is_usage_error(self, command, option,
                                                         dataset, tmp_path,
                                                         monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--data", str(dataset), *DATA_ARGS, "--alpha", "0.5",
                     *option]) == 1
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert not (tmp_path / "tables").exists()

    @pytest.mark.parametrize("column, cell", [("y2", "nan"), ("x1", "inf")])
    def test_non_finite_cell_is_data_error(self, column, cell, dataset, tmp_path,
                                           capsys):
        with open(dataset, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[3][rows[0].index(column)] = cell
        data = tmp_path / "bad.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["fit", "--data", str(data), *DATA_ARGS, "--alpha", "0.5"]) == 2
        assert f"row 3, column '{column}'" in capsys.readouterr().err

    def test_generator_noise_outside_the_image_is_numerical_error(self, tmp_path):
        # at alpha < 0 a component pushed to zero has no inverse
        out = tmp_path / "ds"
        assert main(["generate", "--n", "120", "--components", "3", "--covariates",
                     "2", "--alpha", "-0.5", "--noise-scale", "0.5",
                     "--out-dir", str(out)]) == 3
        assert not out.exists()

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


    @pytest.mark.parametrize("model, path", [
        ("alpha", "fit"),
        ("alpha", "fit.coefficients"),
        ("alpha", "dataset.composition_columns"),
        ("alpha", "dataset.covariate_columns"),
        ("slx", "hyperparameters.k"),
        ("slx", "dataset.lat_column"),
        ("slx", "dataset.lon_column"),
        ("gwar", "hyperparameters.alpha"),
        ("gwar", "hyperparameters.h"),
        ("gwar", "fit.local_coefficients"),
        ("gwar", "fit.global_coefficients"),
        ("gwar", "config.solver"),
    ])
    def test_incomplete_model_document_is_data_error(self, model, path, dataset,
                                                     tmp_path, capsys):
        doc_path = tmp_path / "doc.json"
        fixed = {"alpha": [], "slx": ["--k", "4"], "gwar": ["--h", "0.05"]}[model]
        assert main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", model, "--alpha", "0.5", *fixed,
                     "--out", str(doc_path)]) == 0
        doc = json.loads(doc_path.read_text())
        *parents, key = path.split(".")
        block = doc
        for name in parents:
            block = block[name]
        del block[key]
        doc_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = main(["predict", "--model-doc", str(doc_path), "--data", str(dataset)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(doc_path) in err and key in err


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
