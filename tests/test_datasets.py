"""CSV ingestion (closure rules, error locations) and the synthetic
generator (exact round trips, determinism, ground-truth sidecars)."""

import json
from pathlib import Path

import numpy as np
import pytest

from alphareg import (
    DataError,
    DatasetSpec,
    InvalidParameters,
    MissingColumn,
    NonNumericCell,
    OutOfImage,
    ZeroRow,
    fitted_mean,
    generate_synthetic,
    load_covariates,
    load_dataset,
)
from alphareg.datasets import synthesize


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in r) for r in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


SPEC_KW = dict(composition_columns=["a", "b", "c"], covariate_columns=["x"])


class TestLoadDataset:
    def test_proportions_kept_exactly(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["a", "b", "c", "x"],
                  [[0.2, 0.3, 0.5, 1.5], [0.25, 0.25, 0.5, -0.5]])
        Y, X, coords = load_dataset(DatasetSpec(path=str(path), **SPEC_KW))
        np.testing.assert_array_equal(Y, [[0.2, 0.3, 0.5], [0.25, 0.25, 0.5]])
        np.testing.assert_array_equal(X[:, 0], 1.0)
        np.testing.assert_array_equal(X[:, 1], [1.5, -0.5])
        assert coords is None

    def test_percentages_closed_with_warning(self, tmp_path, caplog):
        path = tmp_path / "d.csv"
        write_csv(path, ["a", "b", "c", "x"], [[20.0, 30.0, 50.0, 1.0]])
        with caplog.at_level("WARNING"):
            Y, _, _ = load_dataset(DatasetSpec(path=str(path), **SPEC_KW))
        np.testing.assert_allclose(Y, [[0.2, 0.3, 0.5]])
        assert any("percentage" in r.message for r in caplog.records)

    def test_zero_cell_retained(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["a", "b", "c", "x"], [[0.0, 0.4, 0.6, 2.0]])
        Y, _, _ = load_dataset(DatasetSpec(path=str(path), **SPEC_KW))
        assert Y[0, 0] == 0.0

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["a", "b", "c", "x"], [[0.2, 0.3, 0.5, 1.0]])
        spec = DatasetSpec(path=str(path), lat_column="lat", lon_column="lon",
                           **SPEC_KW)
        with pytest.raises(MissingColumn, match="lat"):
            load_dataset(spec)

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["a", "b", "c", "x"],
                  [[0.2, 0.3, 0.5, 1.0], [0.2, "oops", 0.5, 1.0]])
        with pytest.raises(NonNumericCell, match="row 2.*'b'"):
            load_dataset(DatasetSpec(path=str(path), **SPEC_KW))

    @pytest.mark.parametrize("column, cell", [("a", "nan"), ("x", "inf"),
                                              ("b", "-Infinity")])
    def test_non_finite_cell_located(self, tmp_path, column, cell):
        row = {"a": 0.2, "b": 0.3, "c": 0.5, "x": 1.0} | {column: cell}
        path = tmp_path / "d.csv"
        write_csv(path, ["a", "b", "c", "x"], [[0.2, 0.3, 0.5, 1.0], list(row.values())])
        with pytest.raises(NonNumericCell, match=f"row 2, column '{column}'.*'{cell}'"):
            load_dataset(DatasetSpec(path=str(path), **SPEC_KW))

    def test_covariates_load_without_composition_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["x", "lat", "lon"], [[1.5, 39.5, 22.0], [-0.5, 38.0, 21.0]])
        spec = DatasetSpec(path=str(path), lat_column="lat", lon_column="lon",
                           **SPEC_KW)
        X, coords = load_covariates(spec)
        np.testing.assert_array_equal(X, [[1.0, 1.5], [1.0, -0.5]])
        np.testing.assert_array_equal(coords.lat, [39.5, 38.0])
        with pytest.raises(MissingColumn, match="'a'"):
            load_dataset(spec)

    def test_covariates_need_both_coordinates(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["x", "lat"], [[1.5, 39.5]])
        with pytest.raises(MissingColumn, match="both"):
            load_covariates(DatasetSpec(path=str(path), lat_column="lat", **SPEC_KW))

    def test_zero_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["a", "b", "c", "x"], [[0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(ZeroRow):
            load_dataset(DatasetSpec(path=str(path), **SPEC_KW))

    def test_coords_loaded(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["a", "b", "c", "x", "lat", "lon"],
                  [[0.2, 0.3, 0.5, 1.0, 39.5, 22.0]])
        spec = DatasetSpec(path=str(path), lat_column="lat", lon_column="lon",
                           **SPEC_KW)
        _, _, coords = load_dataset(spec)
        assert coords is not None and coords.n == 1

    def test_byte_order_mark_dropped(self, tmp_path):
        # the mark used to become part of the first header name: 'a' not found
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_csv(plain, ["a", "b", "c", "x"], [[0.2, 0.3, 0.5, 1.5]])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for got, want in zip(load_dataset(DatasetSpec(path=str(marked), **SPEC_KW)),
                             load_dataset(DatasetSpec(path=str(plain), **SPEC_KW))):
            np.testing.assert_array_equal(got, want)

    def test_requested_column_named_twice_rejected(self, tmp_path):
        # the first copy used to be read silently
        path = tmp_path / "d.csv"
        write_csv(path, ["a", "b", "c", "x", "x"], [[0.2, 0.3, 0.5, 1.0, 2.0]])
        with pytest.raises(DataError, match="column 'x' appears 2 times"):
            load_dataset(DatasetSpec(path=str(path), **SPEC_KW))

    def test_duplicate_column_not_requested_is_harmless(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["a", "b", "c", "x", "note", "note"],
                  [[0.2, 0.3, 0.5, 1.0, 7.0, 8.0]])
        _, X, _ = load_dataset(DatasetSpec(path=str(path), **SPEC_KW))
        np.testing.assert_array_equal(X, [[1.0, 1.0]])

    @pytest.mark.parametrize("loader", [load_dataset, load_covariates])
    def test_file_that_is_not_utf8_names_the_file(self, loader, tmp_path):
        # a Latin-1 byte used to escape as a UnicodeDecodeError
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b,c,x,note\n0.2,0.3,0.5,1.0,caf\xe9\n")
        with pytest.raises(DataError, match=f"cannot read {path}: .*0xe9"):
            loader(DatasetSpec(path=str(path), **SPEC_KW))

    def test_overlapping_columns_rejected(self):
        with pytest.raises(InvalidParameters):
            DatasetSpec(path="x.csv", composition_columns=["a", "b"],
                        covariate_columns=["a"])


class TestSynthesize:
    def test_zero_noise_gives_exact_means(self):
        sim = synthesize(n=20, D=3, p=2, alpha=0.5, noise_scale=0.0, seed=1)
        np.testing.assert_array_equal(sim["Y"], fitted_mean(sim["X"], sim["B"]))

    def test_rows_are_compositions(self):
        sim = synthesize(n=50, D=4, p=2, alpha=0.5, noise_scale=0.3, seed=2)
        np.testing.assert_allclose(sim["Y"].sum(axis=1), 1.0, atol=1e-12)
        assert np.all(sim["Y"] >= 0)

    def test_large_noise_creates_zeros(self):
        sim = synthesize(n=200, D=4, p=1, alpha=0.5, noise_scale=1.5, seed=3)
        assert np.any(sim["Y"] == 0.0)

    def test_two_cluster_assignments(self):
        sim = synthesize(n=30, D=3, p=1, alpha=0.5, noise_scale=0.1,
                         spatial_mode="two_cluster", seed=4)
        assert set(np.unique(sim["clusters"])) == {0, 1}
        assert sim["coords"].n == 30

    @pytest.mark.parametrize("alpha", [-0.5, 0.0])
    def test_nonpositive_alpha_rows_are_positive_compositions(self, alpha):
        sim = synthesize(n=50, D=4, p=2, alpha=alpha, noise_scale=0.1, seed=2)
        np.testing.assert_allclose(sim["Y"].sum(axis=1), 1.0, atol=1e-12)
        assert np.all(sim["Y"] > 0)

    def test_noise_outside_the_image_raises_for_nonpositive_alpha(self):
        # a component pushed to zero has no inverse at alpha < 0
        with pytest.raises(OutOfImage):
            synthesize(120, 3, 2, alpha=-0.5, noise_scale=0.5, seed=0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameters):
            synthesize(n=5, D=3, p=1, alpha=0.5)
        with pytest.raises(InvalidParameters):
            synthesize(n=20, D=3, p=1, alpha=0.5, spatial_mode="bogus")

    @pytest.mark.parametrize("noise_scale", [np.nan, np.inf])
    def test_non_finite_noise_scale_rejected(self, noise_scale):
        # NaN passed a `< 0` check and gave compositions of NaN
        with pytest.raises(InvalidParameters, match="noise_scale"):
            synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=noise_scale)

    @pytest.mark.parametrize("noise_scale", [0.0, 0.05])
    @pytest.mark.parametrize("alpha", [np.nan, 2.0, -1.5])
    def test_alpha_checked_at_any_noise(self, alpha, noise_scale):
        # at noise 0 the transform never ran, so NaN reached the sidecar
        with pytest.raises(InvalidParameters, match="alpha must lie in"):
            synthesize(n=20, D=3, p=1, alpha=alpha, noise_scale=noise_scale)

    @pytest.mark.parametrize("slx_k", [0, 30, 40, 2.5, "3", None])
    def test_slx_neighbor_count_must_fit_the_locations(self, slx_k):
        # 40 was clamped to 29 and 2.5 raised a bare TypeError
        with pytest.raises(InvalidParameters, match="1 <= k <= 29"):
            synthesize(n=30, D=3, p=1, alpha=0.5, spatial_mode="slx", slx_k=slx_k)

    @pytest.mark.parametrize("spatial_mode", ["none", "two_cluster"])
    @pytest.mark.parametrize("slx_k", [2.5, "abc", -4, 0, 20])
    def test_slx_neighbor_count_checked_in_every_mode(self, slx_k, spatial_mode):
        # the settings record slx_k in every mode: 2.5 was recorded as 2,
        # "abc" raised a bare ValueError and -4 was accepted
        with pytest.raises(InvalidParameters, match="1 <= k <= 19"):
            synthesize(n=20, D=3, p=1, alpha=0.5, spatial_mode=spatial_mode, slx_k=slx_k)

    def test_largest_slx_neighbor_count_accepted(self):
        sim = synthesize(n=30, D=3, p=1, alpha=0.5, spatial_mode="slx",
                         slx_k=np.int64(29))
        assert sim["settings"]["slx_k"] == 29


class TestGenerateFiles:
    def test_round_trip_exact(self, tmp_path):
        data, truth = generate_synthetic(n=25, D=3, p=2, alpha=0.5,
                                         noise_scale=0.1, spatial_mode="slx",
                                         seed=5, out_dir=tmp_path)
        sim = synthesize(n=25, D=3, p=2, alpha=0.5, noise_scale=0.1,
                         spatial_mode="slx", seed=5)
        spec = DatasetSpec(
            path=data,
            composition_columns=["y1", "y2", "y3"],
            covariate_columns=["x1", "x2"],
            lat_column="lat",
            lon_column="lon",
        )
        Y, X, coords = load_dataset(spec)
        np.testing.assert_array_equal(Y, sim["Y"])
        np.testing.assert_array_equal(X, sim["X"])
        np.testing.assert_array_equal(coords.lat, sim["coords"].lat)

    def test_same_seed_identical_files(self, tmp_path):
        d1, t1 = generate_synthetic(n=15, D=3, p=1, alpha=1.0, seed=9,
                                    out_dir=tmp_path / "a")
        d2, t2 = generate_synthetic(n=15, D=3, p=1, alpha=1.0, seed=9,
                                    out_dir=tmp_path / "b")
        assert Path(d1).read_bytes() == Path(d2).read_bytes()
        assert Path(t1).read_bytes() == Path(t2).read_bytes()

    def test_sidecar_contents(self, tmp_path):
        _, truth = generate_synthetic(n=20, D=3, p=1, alpha=0.5,
                                      spatial_mode="two_cluster", seed=6,
                                      out_dir=tmp_path)
        doc = json.loads(Path(truth).read_text())
        assert np.asarray(doc["B"]).shape == (2, 2)
        assert len(doc["clusters"]) == 20
        assert doc["settings"]["spatial_mode"] == "two_cluster"
