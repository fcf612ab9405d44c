"""Command-line behavior: subcommands end to end, determinism of emitted
documents, and the exit-code contract (0 ok, 1 usage, 2 data, 3 numerical)."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import alphareg
from alphareg import (CvGrid, DatasetSpec, InvalidParameters, RunConfig, TrainingDataChanged,
                      dataset_record, load_covariates, load_dataset, load_training,
                      predict_model, read_model)
from alphareg.datasets import write_csv
from alphareg._parallel import resolve_threads
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


def edited_copy(dataset, path, edit, rows=None):
    """``path``, a copy of the CSV file ``dataset`` with each row (a dict of
    cells by column) passed through ``edit``, kept to its first ``rows``."""
    with open(dataset, newline="") as fh:
        reader = csv.DictReader(fh)
        header, table = reader.fieldnames, [edit(row) for row in reader][:rows]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header)
        writer.writeheader()
        writer.writerows(table)
    return path


DATA_ARGS = ["--composition-cols", "y1,y2,y3", "--covariate-cols", "x1,x2"]
GEO_ARGS = ["--lat-col", "lat", "--lon-col", "lon"]
# each model with its hyper-parameters fixed, and the effects tables it writes
MODEL_ARGS = {"alpha": ["--model", "alpha", "--alpha", "1.0"],
              "slx": ["--model", "slx", "--alpha", "0.5", "--k", "3", *GEO_ARGS],
              "gwar": ["--model", "gwar", "--alpha", "0.5", "--h", "0.05", *GEO_ARGS]}
EFFECT_TABLES = {"alpha": ("ame",), "slx": ("ame_direct", "ame_indirect", "ame_total"),
                 "gwar": ("ame",)}


def assert_effect_tables(doc):
    """Every effects table of ``doc`` has one row per covariate (p = 2),
    and each row sums to 0."""
    for table in doc["marginal_effects"].values():
        assert list(table) == ["x1", "x2"]
        for row in table.values():
            assert len(row) == 3 and abs(sum(row)) < 1e-12


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
        expected = asdict(RunConfig(grid=CvGrid(alphas=(0.5,))))
        assert config == json.loads(json.dumps(expected))

    def test_repeat_runs_byte_identical(self, dataset, tmp_path):
        args = ["fit", "--data", str(dataset), *DATA_ARGS,
                "--model", "alpha", "--alphas", "0.5,1.0", "--seed", "3"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("model", MODEL_ARGS)
    def test_csv_export(self, model, dataset, tmp_path):
        exp = tmp_path / "tables"
        code = main(["fit", "--data", str(dataset), *DATA_ARGS, *MODEL_ARGS[model],
                     "--out", str(tmp_path / "f.json"), "--csv-dir", str(exp)])
        assert code == 0
        doc = json.loads((tmp_path / "f.json").read_text())
        assert_effect_tables(doc)
        assert sorted(f.name for f in exp.iterdir()) == sorted(
            [f"{name}.csv" for name in EFFECT_TABLES[model]]
            + ["correlations.csv", "fitted.csv"])
        for name in EFFECT_TABLES[model]:
            with open(exp / f"{name}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["covariate", "component_1", "component_2", "component_3"]
            assert [row[0] for row in rows[1:]] == ["x1", "x2"]

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

    def test_year_covariate_keeps_the_slope_standard_errors(self, tmp_path):
        # x1 + 2000, a calendar year: the same model, with the intercept moved
        assert main(["generate", "--n", "60", "--components", "3", "--covariates", "2",
                     "--noise-scale", "0.05", "--seed", "1",
                     "--out-dir", str(tmp_path / "ds")]) == 0
        data = tmp_path / "ds" / "data.csv"
        year = edited_copy(data, tmp_path / "year.csv",
                           lambda row: row | {"x1": repr(float(row["x1"]) + 2000)})
        se = {}
        for name, path in (("data", data), ("year", year)):
            out = tmp_path / f"{name}.json"
            assert main(["fit", "--data", str(path), *DATA_ARGS, "--alpha", "0.5",
                         "--with-se", "--out", str(out)]) == 0
            se[name] = np.asarray(json.loads(out.read_text())["standard_errors"]["coefficients"])
        np.testing.assert_allclose(se["year"][1:], se["data"][1:], rtol=1e-6, atol=0)

    def test_log_ratio_limit_end_to_end(self, tmp_path):
        # alpha = 0: data, a fit with sandwich SEs, a grid through 0 (the "="
        # form, so -0.5 does not read as an option) and a prediction
        assert main(["generate", "--n", "60", "--components", "3", "--covariates", "2",
                     "--alpha", "0", "--noise-scale", "0.05", "--seed", "1",
                     "--out-dir", str(tmp_path / "ds")]) == 0
        data = str(tmp_path / "ds" / "data.csv")
        fit, cv, pred = tmp_path / "fit.json", tmp_path / "cv.json", tmp_path / "p.csv"
        assert main(["fit", "--data", data, *DATA_ARGS, "--alpha", "0", "--with-se",
                     "--out", str(fit)]) == 0
        doc = json.loads(fit.read_text())
        assert doc["hyperparameters"] == {"alpha": 0.0}
        assert np.all(np.isfinite(doc["standard_errors"]["coefficients"]))
        assert main(["cv", "--data", data, *DATA_ARGS, "--alphas=-0.5,0,0.5",
                     "--out", str(cv)]) == 0
        selection = json.loads(cv.read_text())["selection"]
        assert selection["alphas"] == [-0.5, 0.0, 0.5] and None not in selection["scores"]
        assert main(["predict", "--model-doc", str(fit), "--data", data,
                     "--out", str(pred)]) == 0
        assert len(pred.read_text().splitlines()) == 61

    def test_gwar_fit_with_selection(self, dataset, tmp_path):
        out = tmp_path / "gwar.json"
        code = main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "gwar", "--alpha", "0.5",
                     "--hs", "0.02,1000000.0", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["selection"] is not None
        assert doc["hyperparameters"]["h"] in (0.02, 1000000.0)

    def test_selected_gwar_fit_records_its_locations_and_predicts(self, dataset,
                                                                  tmp_path):
        out = tmp_path / "gwar.json"
        assert main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "gwar", "--alpha", "0.5", "--hs", "0.02,0.05",
                     "--out", str(out)]) == 0
        diag = json.loads(out.read_text())["diagnostics"]["gwar"]
        assert sum(diag["iterations"].values()) == 40
        assert sum(diag["converged_by"].values()) == 40
        assert main(["predict", "--model-doc", str(out), "--data", str(dataset),
                     "--out", str(tmp_path / "p.csv")]) == 0


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

    @pytest.mark.parametrize("settings", [
        ["--alphas", "0.5,1.0", "--ks", "3,5"],
        # k = 38 = n-2: a fold's patch spans almost every row
        ["--alphas", "0.5,1.0", "--ks", "1,3,38"],
        ["--alpha", "0.5", "--k", "3", "--with-se"],
    ], ids=["selected", "selected-boundary-k", "fixed-k-with-se"])
    def test_slx_document_predicts_every_row(self, settings, dataset, tmp_path):
        doc_path, pred_path = tmp_path / "slx.json", tmp_path / "p.csv"
        assert main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "slx", *settings, "--out", str(doc_path)]) == 0
        doc = json.loads(doc_path.read_text())
        assert (doc["selection"] is None) == ("--k" in settings)
        assert (doc["standard_errors"] is not None) == ("--with-se" in settings)
        assert main(["predict", "--model-doc", str(doc_path), "--data", str(dataset),
                     "--out", str(pred_path)]) == 0
        rows = pred_path.read_text().splitlines()
        assert rows[0] == "y1,y2,y3" and len(rows) == 41
        values = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        np.testing.assert_allclose(values.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("model, fixed", [("alpha", []), ("slx", ["--k", "4"]),
                                              ("gwar", ["--h", "0.05"])])
    def test_stdout_is_the_out_file(self, model, fixed, dataset, tmp_path, capsysbinary):
        # predict without --out writes the bytes that --out writes
        doc_path, out = tmp_path / "fit.json", tmp_path / "pred.csv"
        assert main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", model, "--alpha", "0.5", *fixed,
                     "--out", str(doc_path)]) == 0
        predict = ["predict", "--model-doc", str(doc_path), "--data", str(dataset)]
        assert main(predict + ["--out", str(out)]) == 0
        capsysbinary.readouterr()
        assert main(predict) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    @pytest.mark.parametrize("model, fixed", [("alpha", []), ("slx", ["--k", "4"]),
                                              ("gwar", ["--h", "0.05"])])
    def test_header_only_data_predicts_the_header(self, model, fixed, dataset, tmp_path):
        # gwar used to stop with a ValueError traceback on no new rows
        doc_path, out = tmp_path / "fit.json", tmp_path / "pred.csv"
        assert main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", model, "--alpha", "0.5", *fixed,
                     "--out", str(doc_path)]) == 0
        empty, full = tmp_path / "empty.csv", tmp_path / "full.csv"
        empty.write_text(dataset.read_text().splitlines()[0] + "\n")
        for data, path in ((dataset, full), (empty, out)):
            assert main(["predict", "--model-doc", str(doc_path), "--data", str(data),
                         "--out", str(path)]) == 0
        header = full.read_bytes().splitlines(keepends=True)[0]
        assert header.decode().rstrip() == "y1,y2,y3"
        assert out.read_bytes() == header

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


class TestLibraryPredict:
    """``predict`` is ``read_model`` and ``predict_model`` of the library."""

    @pytest.mark.parametrize("model, fixed", [("alpha", []), ("slx", ["--k", "4"]),
                                              ("gwar", ["--h", "0.05"])])
    def test_library_writes_the_bytes_of_the_command(self, model, fixed, dataset,
                                                     tmp_path):
        doc_path, out, lib = tmp_path / "fit.json", tmp_path / "cli.csv", tmp_path / "lib.csv"
        assert main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", model, "--alpha", "0.5", *fixed,
                     "--out", str(doc_path)]) == 0
        assert main(["predict", "--model-doc", str(doc_path), "--data", str(dataset),
                     "--out", str(out)]) == 0
        saved = read_model(json.loads(doc_path.read_text()))
        mu = predict_model(saved, *load_covariates(
            DatasetSpec(path=str(dataset), **saved.columns)))
        write_csv(lib, saved.columns["composition_columns"], mu.tolist())
        assert lib.read_bytes() == out.read_bytes()

    def test_dataset_block_loads_the_training_data(self, dataset, tmp_path):
        doc_path = tmp_path / "fit.json"
        assert main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "slx", "--alpha", "0.5", "--k", "4",
                     "--out", str(doc_path)]) == 0
        spec = DatasetSpec(path=str(dataset), composition_columns=["y1", "y2", "y3"],
                           covariate_columns=["x1", "x2"], lat_column="lat",
                           lon_column="lon")
        record = json.loads(doc_path.read_text())["dataset"]
        assert record == dataset_record(spec)
        (Y, X, coords), (Y0, X0, coords0) = load_training(record), load_dataset(spec)
        np.testing.assert_array_equal(Y, Y0)
        np.testing.assert_array_equal(X, X0)
        np.testing.assert_array_equal(coords.cart, coords0.cart)

    @pytest.mark.parametrize("model, fixed", [("slx", ["--k", "4"]),
                                              ("gwar", ["--h", "0.05"])])
    def test_edited_training_file_raises_through_the_library(self, model, fixed,
                                                             dataset, tmp_path):
        doc_path = tmp_path / "fit.json"
        assert main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", model, "--alpha", "0.5", *fixed,
                     "--out", str(doc_path)]) == 0
        saved = read_model(json.loads(doc_path.read_text()))
        new_rows = load_covariates(DatasetSpec(path=str(dataset), **saved.columns))
        dataset.write_text(dataset.read_text().replace("\n", "\n\n", 1))
        with pytest.raises(TrainingDataChanged, match="changed since the fit"):
            predict_model(saved, *new_rows)


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
        # at h = 1e-9 every fold's kernel weights underflow, so it scores +inf
        out = tmp_path / "cv.json"
        code = main(["cv", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "gwar", "--alphas", "0.5", "--hs", "1e-9,0.05",
                     "--out", str(out)])
        assert code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        scores = doc["selection"]["scores"]
        assert scores[0][0] is None and scores[0][1] > 0
        assert doc["selection"]["best"] == [0.5, 0.05]

    @pytest.mark.parametrize("command", ["cv", "fit"])
    def test_failed_folds_per_grid_point(self, command, dataset, tmp_path):
        # h = 1e-9 fails in all 40 folds (degenerate weights); h = 0.05 in none
        out = tmp_path / "doc.json"
        code = main([command, "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "gwar", "--alphas", "0.5,1.0", "--hs", "1e-9,0.05",
                     "--out", str(out)])
        assert code == 0
        selection = json.loads(out.read_text())["selection"]
        assert selection["failed_folds"] == [[40, 0], [40, 0]]
        assert [[s is None for s in row] for row in selection["scores"]] == \
            [[True, False], [True, False]]

    @pytest.mark.parametrize("model", MODEL_ARGS)
    def test_margins(self, model, dataset, tmp_path):
        out = tmp_path / "m.json"
        code = main(["margins", "--data", str(dataset), *DATA_ARGS, *MODEL_ARGS[model],
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) >= {"hyperparameters", "marginal_effects"}
        assert list(doc["marginal_effects"]) == list(EFFECT_TABLES[model])
        assert_effect_tables(doc)

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

    @pytest.mark.parametrize("command", ["fit", "margins"])
    def test_bootstrap_diagnostics_in_the_document(self, command, dataset, tmp_path):
        out = tmp_path / "d.json"
        assert main([command, "--data", str(dataset), *DATA_ARGS, "--alpha", "0.5",
                     "--bootstrap-replicates", "5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        diag = doc["diagnostics"]["bootstrap"]
        assert sum(diag["converged_by"].values()) == 5
        assert sum(diag["iterations"].values()) == 5
        assert diag["failed"] == {}
        keys = list(doc)
        assert keys.index("diagnostics") == keys.index("standard_errors") + 1


class TestExitCodes:
    def test_usage_error(self, capsys):
        code = main(["fit", "--bogus"])
        assert code == 1

    @pytest.mark.parametrize("argv, code", [
        (["generate", "--n", "20", "--components", "3", "--covariates", "1",
          "--out-dir", "ds"], 0),
        (["fit", "--bogus"], 1),
        (["fit", "--data", "absent.csv", *DATA_ARGS, "--alpha", "0.5"], 2),
    ], ids=["generate", "unknown-option", "missing-data"])
    def test_exit_code_is_the_process_exit_status(self, argv, code, tmp_path):
        # the other tests call main in-process; a process exits with its code
        src = os.path.dirname(os.path.dirname(alphareg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "alphareg.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        assert (tmp_path / "ds" / "data.csv").exists() == (code == 0)

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
        # h = 1e-9 underflows every fold's kernel weights
        out = tmp_path / "cv.json"
        code = main(["cv", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "gwar", "--alphas", "0.5", "--hs", "1e-9",
                     "--out", str(out)])
        assert code == 3
        assert not out.exists()

    def test_neighbor_count_no_fold_can_use_is_data_error(self, dataset, tmp_path, capsys):
        # k = 39 = n-1 fits the full data, but no fold of 39 locations: a
        # search refuses it as a setting (it used to exit 3), a fit takes it
        out = tmp_path / "cv.json"
        code = main(["cv", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "slx", "--alphas", "0.5", "--ks", "39",
                     "--out", str(out)])
        assert code == 2
        assert "k must satisfy 1 <= k <= 38" in capsys.readouterr().err
        assert not out.exists()
        assert main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "slx", "--alpha", "0.5", "--k", "39",
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("model, foreign", [
        ("alpha", ["--k", "3"]),
        ("alpha", ["--k", "3", "--hs", "0.1"]),
        ("slx", ["--h", "0.1"]),
        ("gwar", ["--ks", "3,5"]),
    ])
    def test_setting_of_another_model_is_data_error(self, model, foreign, dataset,
                                                    capsys):
        code = main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", model, "--alpha", "0.5", *foreign])
        assert code == 2
        assert f"model {model!r} has no" in capsys.readouterr().err

    def test_degenerate_bandwidth_is_numerical_error(self, dataset):
        code = main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "gwar", "--alpha", "0.5", "--h", "1e-9"])
        assert code == 3

    @pytest.mark.parametrize("command", ["fit", "margins"])
    def test_bad_thread_count_is_usage_error(self, command, capsys):
        assert main([command, "--data", "data.csv", *DATA_ARGS, "--threads", "abc"]) == 1
        assert "'auto' or an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "margins"])
    def test_negative_thread_count_is_usage_error(self, command, capsys):
        assert main([command, "--data", "data.csv", *DATA_ARGS, "--threads", "-3"]) == 1
        assert "'auto' or an integer >= 0, got '-3'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, options", [
        ("fit", ["--bootstrap-replicates", "5", "--seed", "-1"]),
        ("margins", ["--bootstrap-replicates", "5", "--seed", "-1"]),
        ("fit", ["--max-iterations", "0"]),
        ("fit", ["--sse-rel-tol", "-1"]),
        ("fit", ["--sse-rel-tol", "nan"]),
        ("fit", ["--sse-rel-tol", "inf"]),
        ("cv", ["--grad-inf-tol", "nan"]),
        ("fit", ["--model", "gwar", "--h", "inf"]),
        ("fit", ["--model", "gwar", "--h", "nan"]),
        ("fit", ["--model", "gwar", "--with-se"]),
        ("fit", ["--model", "gwar", "--bootstrap-replicates", "5"]),
    ], ids=["fit-seed", "margins-seed", "max-iterations", "sse-rel-tol-negative",
            "sse-rel-tol-nan", "sse-rel-tol-inf", "cv-grad-inf-tol-nan", "h-inf", "h-nan",
            "gwar-with-se", "gwar-bootstrap"])
    def test_bad_setting_fails_before_any_work(self, command, options, dataset,
                                               tmp_path, monkeypatch, capsys):
        # these used to run the search and the fit, then end in a traceback
        # or an invalid document
        def no_work(spec):
            raise AssertionError("the data were read")

        monkeypatch.setattr("alphareg.cli.load_dataset", no_work)
        out = tmp_path / "out.json"
        assert main([command, "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--alpha", "0.5", *options, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert not out.exists()

    def test_negative_generator_seed_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["generate", "--n", "20", "--components", "3", "--covariates",
                     "1", "--seed", "-1", "--out-dir", str(out)]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise_scale", ["nan", "inf"])
    def test_non_finite_noise_scale_is_data_error(self, noise_scale, tmp_path, capsys):
        # NaN used to pass and write a data.csv of NaN compositions
        out = tmp_path / "ds"
        assert main(["generate", "--n", "30", "--components", "3", "--covariates", "2",
                     "--noise-scale", noise_scale, "--out-dir", str(out)]) == 2
        assert "noise_scale must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("settings", [
        ["--alpha", "nan"],
        ["--alpha", "2"],
        ["--alpha", "2", "--noise-scale", "0.05"],
        ["--spatial-mode", "slx", "--slx-k", "40"],
        ["--slx-k", "-4"],
    ], ids=["alpha-nan", "alpha-two", "alpha-two-noisy", "slx-k-above-n",
            "slx-k-negative-without-slx"])
    def test_bad_generator_setting_is_data_error(self, settings, tmp_path, capsys):
        # NaN used to reach truth.json, not strict JSON, and k = 40 became 29
        out = tmp_path / "ds"
        assert main(["generate", "--n", "30", "--components", "3", "--covariates", "1",
                     *settings, "--out-dir", str(out)]) == 2
        assert "must" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_generator_neighbor_count_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["generate", "--n", "30", "--components", "3", "--covariates", "2",
                     "--spatial-mode", "slx", "--slx-k", "0", "--out-dir", str(out)]) == 2
        assert "k must satisfy 1 <= k <= 29" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_neighbor_count_fails_before_the_data_are_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["fit", "--data", str(missing), *DATA_ARGS, *GEO_ARGS,
                     "--model", "slx", "--alpha", "0.5", "--k", "0"]) == 2
        err = capsys.readouterr().err
        assert "neighbor count k must be an integer >= 1" in err
        assert str(missing) not in err

    def test_bad_alpha_fails_before_the_data_are_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["fit", "--data", str(missing), *DATA_ARGS, "--alpha", "2"]) == 2
        err = capsys.readouterr().err
        assert "alpha must lie in [-1, 1]" in err
        assert str(missing) not in err

    @pytest.mark.parametrize("rows, message", [
        (2, "leave-one-out needs at least 3 observations"),
        (4, "no default neighbor count fits n=4 observations"),
    ])
    def test_slx_on_tiny_data_names_the_sample_size(self, dataset, tmp_path, capsys,
                                                     rows, message):
        # no --ks: the error must not blame a neighbor grid the user never gave
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("".join(dataset.read_text().splitlines(keepends=True)[:rows + 1]))
        assert main(["fit", "--data", str(tiny), *DATA_ARGS, *GEO_ARGS,
                     "--model", "slx", "--alpha", "0.5"]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "neighbor grid" not in err

    @pytest.mark.parametrize("command, fixed", [
        ("fit", ["--alpha", "0.5"]),
        ("margins", ["--alpha", "0.5"]),
        ("fit", ["--model", "slx", "--alpha", "0.5", "--k", "3"]),
        ("fit", ["--model", "gwar", "--alpha", "0.5", "--h", "0.05"]),
    ], ids=["fit", "margins", "slx", "gwar"])
    def test_training_file_without_rows_is_data_error(self, command, fixed, dataset,
                                                       tmp_path, capsys):
        # these used to end in numpy's ValueError, or blame k for 0 locations
        empty, out = tmp_path / "empty.csv", tmp_path / "out.json"
        empty.write_text(dataset.read_text().splitlines(keepends=True)[0])
        assert main([command, "--data", str(empty), *DATA_ARGS, *GEO_ARGS, *fixed,
                     "--out", str(out)]) == 2
        assert f"{empty} has a header but no data rows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows, edit", [
        (None, lambda row: row | {"x1": "1.0"}),  # a constant covariate
        (None, lambda row: row | {"x2": row["x1"]}),  # one covariate twice
        (2, lambda row: row),  # 2 rows for 3 design columns
    ], ids=["constant", "repeated", "two-rows"])
    @pytest.mark.parametrize("model", ["alpha", "gwar"])
    def test_dependent_covariates_are_data_error(self, rows, edit, model, dataset,
                                                 tmp_path, capsys):
        # these used to exit 0 with coefficients that are not identified
        data = edited_copy(dataset, tmp_path / "dependent.csv", edit, rows)
        out = tmp_path / "out.json"
        fixed = ["--h", "0.05"] if model == "gwar" else []
        assert main(["fit", "--data", str(data), *DATA_ARGS, *GEO_ARGS, "--model", model,
                     "--alpha", "0.5", *fixed, "--out", str(out)]) == 2
        assert "linearly dependent or the rows too few" in capsys.readouterr().err
        assert not out.exists()

    def test_cv_scores_dependent_covariates(self, dataset, tmp_path):
        # leave-one-out scores do not depend on how the coefficients split
        data = edited_copy(dataset, tmp_path / "constant.csv", lambda row: row | {"x1": "1.0"})
        assert main(["cv", "--data", str(data), *DATA_ARGS, "--alphas", "0.5",
                     "--out", str(tmp_path / "cv.json")]) == 0

    def test_neighbor_count_of_n_is_data_error(self, tmp_path, capsys):
        # 30 locations have 29 others each
        assert main(["generate", "--n", "30", "--components", "3", "--covariates", "2",
                     "--noise-scale", "0.05", "--spatial-mode", "slx",
                     "--out-dir", str(tmp_path / "ds")]) == 0
        capsys.readouterr()
        out = tmp_path / "out.json"
        assert main(["fit", "--data", str(tmp_path / "ds" / "data.csv"), *DATA_ARGS,
                     *GEO_ARGS, "--model", "slx", "--alpha", "0.5", "--k", "30",
                     "--out", str(out)]) == 2
        assert "k must satisfy 1 <= k <= 29" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_solver_settings_in_model_document_is_data_error(self, dataset,
                                                                 tmp_path, capsys):
        doc_path = tmp_path / "doc.json"
        assert main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", "gwar", "--alpha", "0.5", "--h", "0.05",
                     "--out", str(doc_path)]) == 0
        doc = json.loads(doc_path.read_text())
        doc["config"]["solver"]["max_iterations"] = 0
        doc_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = main(["predict", "--model-doc", str(doc_path), "--data", str(dataset)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(doc_path) in err and "max_iterations" in err

    def test_generator_noise_outside_the_image_is_numerical_error(self, tmp_path):
        # at alpha < 0 a component pushed to zero has no inverse
        out = tmp_path / "ds"
        assert main(["generate", "--n", "120", "--components", "3", "--covariates",
                     "2", "--alpha", "-0.5", "--noise-scale", "0.5",
                     "--out-dir", str(out)]) == 3
        assert not out.exists()

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
        ("alpha", "config.solver"),
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

    @pytest.mark.parametrize("model, path, text", [
        ("slx", "hyperparameters.k", "5.7"),
        ("slx", "hyperparameters.k", "true"),
        ("slx", "hyperparameters.k", '"3"'),
        ("slx", "hyperparameters.k", "0"),
        ("alpha", "fit.coefficients.0.0", "NaN"),
        ("alpha", "fit.coefficients.0.0", "Infinity"),
        ("alpha", "fit.coefficients.0.0", "-Infinity"),
        ("alpha", "fit.coefficients.0.0", "1e400"),
        ("alpha", "fit.coefficients.0.0", "1" + "0" * 400),
        ("alpha", "fit.coefficients.0.0", "true"),
        ("alpha", "fit.coefficients.0.0", '"0.25"'),
        ("alpha", "fit.coefficients.0", "[0.1]"),
        ("slx", "fit.coefficients.1.0", "NaN"),
        ("gwar", "hyperparameters.alpha", "true"),
        ("gwar", "hyperparameters.alpha", "NaN"),
        ("gwar", "hyperparameters.h", '"0.05"'),
        ("gwar", "hyperparameters.h", "0"),
        ("gwar", "fit.local_coefficients.0.0.0", "NaN"),
        ("gwar", "fit.global_coefficients.0.0", "true"),
        ("alpha", "config.model", '"ols"'),
        ("slx", "hyperparameters.k", "null"),
        ("gwar", "hyperparameters.h", "null"),
        ("alpha", "hyperparameters.alpha", "2"),
        ("slx", "hyperparameters.alpha", "NaN"),
        ("alpha", "config.solver.max_iterations", "0"),
        ("slx", "config.solver.sse_rel_tol", "-1"),
    ], ids=["k-fraction", "k-true", "k-string", "k-zero", "coefficient-nan",
            "coefficient-infinity", "coefficient-minus-infinity", "coefficient-overflow",
            "coefficient-integer-overflow", "coefficient-true", "coefficient-string",
            "coefficient-ragged", "slx-coefficient-nan", "alpha-true", "alpha-nan",
            "h-string", "h-zero", "local-coefficient-nan", "global-coefficient-true",
            "unknown-model", "k-null", "h-null", "plain-alpha-two", "slx-alpha-nan",
            "plain-solver-max-iterations-zero", "slx-solver-negative-tolerance"])
    def test_edited_value_in_model_document_is_data_error(self, model, path, text,
                                                          dataset, tmp_path, capsys):
        # int() truncated k = 5.7 to 5 and read true as 1, json read a NaN
        # coefficient and np.asarray read true and "0.25" as numbers, so these
        # documents used to predict (rows of nan for NaN); the settings are
        # RunConfig's, so the alpha and solver of a plain or slx document too
        doc_path, pred_path = tmp_path / "doc.json", tmp_path / "p.csv"
        fixed = {"alpha": [], "slx": ["--k", "4"], "gwar": ["--h", "0.05"]}[model]
        assert main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS,
                     "--model", model, "--alpha", "0.5", *fixed,
                     "--out", str(doc_path)]) == 0
        doc = json.loads(doc_path.read_text())
        *parents, key = path.split(".")
        block = doc
        for name in parents:
            block = block[int(name) if isinstance(block, list) else name]
        block[int(key) if isinstance(block, list) else key] = "@edit@"
        doc_path.write_text(json.dumps(doc).replace('"@edit@"', text), encoding="utf-8")
        capsys.readouterr()
        code = main(["predict", "--model-doc", str(doc_path), "--data", str(dataset),
                     "--out", str(pred_path)])
        assert code == 2
        assert str(doc_path) in capsys.readouterr().err
        assert not pred_path.exists()

    @pytest.mark.parametrize("model, field, edit", [
        ("gwar", "local_coefficients", "row-dropped"),
        ("gwar", "local_coefficients", "scalar"),
        ("gwar", "local_coefficients", "narrow"),
        ("gwar", "global_coefficients", "narrow"),
        ("alpha", "coefficients", "narrow"),
        ("slx", "coefficients", "narrow"),
    ])
    def test_coefficients_of_the_wrong_shape_are_data_error(self, model, field, edit,
                                                            dataset, tmp_path, capsys):
        # gwar: a dropped row or a scalar used to stop with a traceback, and
        # narrow matrices named the fitted compositions' shape; without the
        # check a dropped row would shift every location's coefficients by
        # one.  alpha and slx: narrow matrices used to predict rows one
        # value short of the header
        doc_path, pred_path = tmp_path / "doc.json", tmp_path / "p.csv"
        fixed = {"alpha": [], "slx": ["--k", "4"], "gwar": ["--h", "0.05"]}[model]
        assert main(["fit", "--data", str(dataset), *DATA_ARGS, *GEO_ARGS, "--model", model,
                     "--alpha", "0.5", *fixed, "--out", str(doc_path)]) == 0
        doc = json.loads(doc_path.read_text())
        value = np.asarray(doc["fit"][field])
        doc["fit"][field] = {"row-dropped": value[:-1], "scalar": np.float64(0.5),
                             "narrow": value[..., :-1]}[edit].tolist()
        doc_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--model-doc", str(doc_path), "--data", str(dataset),
                     "--out", str(pred_path)]) == 2
        assert f"{field} of shape" in capsys.readouterr().err
        assert not pred_path.exists()


class TestInputsAndOutputs:
    @pytest.mark.parametrize("case", [
        "fit-out-missing-dir", "cv-out-missing-dir", "fit-out-directory",
        "fit-csv-dir-file", "fit-csv-dir-under-file", "predict-out-missing-dir",
        "generate-out-dir-file", "generate-truth-is-directory",
    ])
    def test_unwritable_output_is_data_error(self, case, dataset, tmp_path, monkeypatch,
                                             capsys):
        # each used to stop with a traceback (exit 1, the usage-error code)
        a_file = tmp_path / "a-file"
        a_file.write_text("keep\n", encoding="utf-8")
        missing = tmp_path / "missing" / "x.json"
        truth_dir = tmp_path / "gt" / "truth.json"
        truth_dir.mkdir(parents=True)
        fit = ["fit", "--data", str(dataset), *DATA_ARGS, "--alpha", "0.5"]
        doc_path = tmp_path / "doc.json"
        if case.startswith("predict"):
            assert main(fit + ["--out", str(doc_path)]) == 0
        path, argv = {
            "fit-out-missing-dir": (missing, fit + ["--out", str(missing)]),
            "cv-out-missing-dir": (missing, ["cv", *fit[1:], "--out", str(missing)]),
            "fit-out-directory": (tmp_path, fit + ["--out", str(tmp_path)]),
            "fit-csv-dir-file": (a_file, fit + ["--csv-dir", str(a_file),
                                                "--out", str(doc_path)]),
            "fit-csv-dir-under-file": (a_file / "sub", fit + [
                "--csv-dir", str(a_file / "sub"), "--out", str(doc_path)]),
            "predict-out-missing-dir": (missing, [
                "predict", "--model-doc", str(doc_path), "--data", str(dataset),
                "--out", str(missing)]),
            "generate-out-dir-file": (a_file, [
                "generate", "--n", "20", "--components", "3", "--covariates", "1",
                "--out-dir", str(a_file)]),
            # used to stop with an IsADirectoryError after writing data.csv
            "generate-truth-is-directory": (truth_dir, [
                "generate", "--n", "20", "--components", "3", "--covariates", "1",
                "--out-dir", str(truth_dir.parent)]),
        }[case]

        def no_work(spec):
            raise AssertionError("the data were read")

        # the paths are checked before any data are read
        monkeypatch.setattr("alphareg.cli.load_dataset", no_work)
        monkeypatch.setattr("alphareg.cli.load_covariates", no_work)
        capsys.readouterr()
        assert main(argv) == 2
        assert f"cannot write {path}" in capsys.readouterr().err
        assert not missing.parent.exists()
        assert a_file.read_text(encoding="utf-8") == "keep\n"
        assert doc_path.exists() == case.startswith("predict")
        assert not (truth_dir.parent / "data.csv").exists()

    def test_byte_order_mark_fits_like_the_plain_file(self, dataset, tmp_path):
        # the mark used to become part of 'y1': column 'y1' not found
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + dataset.read_bytes())
        docs = []
        for data in (dataset, marked):
            out = tmp_path / f"{data.stem}.json"
            assert main(["fit", "--data", str(data), *DATA_ARGS, *GEO_ARGS,
                         "--model", "slx", "--alpha", "0.5", "--k", "4",
                         "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
            del docs[-1]["dataset"]
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_data_file_that_is_not_utf8_is_data_error(self, command, dataset, tmp_path,
                                                      capsys):
        # a Latin-1 byte used to stop both with a UnicodeDecodeError traceback
        latin1, out = tmp_path / "latin1.csv", tmp_path / "out"
        latin1.write_bytes(dataset.read_bytes().replace(b"\n", b",caf\xe9\n", 1))
        fit = ["fit", "--data", str(dataset), *DATA_ARGS, "--alpha", "0.5"]
        argv = fit[:2] + [str(latin1)] + fit[3:]
        if command == "predict":
            assert main(fit + ["--out", str(tmp_path / "doc.json")]) == 0
            argv = ["predict", "--model-doc", str(tmp_path / "doc.json"), "--data", str(latin1)]
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        assert f"data error: cannot read {latin1}" in capsys.readouterr().err
        assert not out.exists()

    def test_requested_column_named_twice_is_data_error(self, dataset, tmp_path, capsys):
        # with x2 renamed to x1, the first x1 used to be read silently
        renamed = tmp_path / "renamed.csv"
        header, rest = dataset.read_text().split("\n", 1)
        renamed.write_text(header.replace("x2", "x1") + "\n" + rest)
        assert main(["fit", "--data", str(renamed), "--composition-cols", "y1,y2,y3",
                     "--covariate-cols", "x1", "--alpha", "0.5"]) == 2
        assert "column 'x1' appears 2 times" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["auto", "0", "2"])
    def test_accepted_thread_count_changes_nothing(self, threads, dataset, tmp_path):
        argv = ["fit", "--data", str(dataset), *DATA_ARGS, "--alpha", "0.5",
                "--bootstrap-replicates", "3"]
        assert main(argv + ["--out", str(tmp_path / "a.json")]) == 0
        assert main(argv + ["--threads", threads, "--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("command", ["fit", "cv", "margins"])
    def test_document_on_stdout_is_the_out_file(self, command, dataset, tmp_path,
                                                capsysbinary):
        argv = [command, "--data", str(dataset), *DATA_ARGS, "--alphas", "0.5,1.0"]
        out = tmp_path / "doc.json"
        assert main(argv + ["--out", str(out)]) == 0
        capsysbinary.readouterr()
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    @pytest.mark.parametrize("mode", ["none", "slx", "two_cluster"])
    def test_generate_defaults_are_the_generators(self, mode, tmp_path, monkeypatch):
        # generate sets no default of its own: left out, each is synthesize's
        required = ["generate", "--n", "30", "--components", "3", "--covariates", "2"]
        (tmp_path / "short").mkdir()
        monkeypatch.chdir(tmp_path / "short")
        assert main(required + ["--spatial-mode", mode]) == 0
        monkeypatch.chdir(tmp_path)
        assert main(required + ["--spatial-mode", mode, "--alpha", "0.5",
                                "--noise-scale", "0", "--slx-k", "5", "--seed", "0",
                                "--out-dir", "long"]) == 0
        for name in ("data.csv", "truth.json"):
            assert ((tmp_path / "short" / name).read_bytes()
                    == (tmp_path / "long" / name).read_bytes())


class TestResolveThreads:
    def test_auto_is_one_per_cpu(self):
        assert resolve_threads("auto") == resolve_threads(0) == (os.cpu_count() or 1)
        assert resolve_threads(None) == resolve_threads("auto")
        assert resolve_threads(2) == 2

    def test_negative_count_is_invalid(self):
        with pytest.raises(InvalidParameters, match="-3"):
            resolve_threads(-3)

    # ALPHAREG_THREADS once replaced the setting; it is no longer read, and the
    # three tests below, named for that old override, pin that it is ignored.

    def test_non_integer_variable(self, monkeypatch):
        monkeypatch.setenv("ALPHAREG_THREADS", "two")
        assert resolve_threads("auto") == (os.cpu_count() or 1)
        assert resolve_threads(2) == 2

    def test_variable_overrides_setting(self, monkeypatch):
        for value in ("3", "-3"):
            monkeypatch.setenv("ALPHAREG_THREADS", value)
            assert resolve_threads(2) == 2

    def test_zero_variable_is_auto(self, monkeypatch):
        monkeypatch.setenv("ALPHAREG_THREADS", "0")
        assert resolve_threads(2) == 2
        assert resolve_threads("auto") == (os.cpu_count() or 1)
