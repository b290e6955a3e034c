"""Edge-case coverage across smaller surfaces of the library."""

import io

import numpy as np
import pytest

from repro.cli import main
from repro.cluster import CostModel, SimulationEngine, log2_ceil
from repro.core import TreeConfig, TreeKind, train_tree
from repro.core.histogram import bin_indices, equi_depth_thresholds
from repro.data import write_csv


class TestSimulationHandles:
    def test_event_handle_time(self):
        engine = SimulationEngine()
        handle = engine.schedule(2.5, lambda: None)
        assert handle.time == 2.5

    def test_pending_events(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        assert engine.pending_events() == 2
        engine.run()
        assert engine.pending_events() == 0


class TestCostModelEdges:
    def test_log2_ceil_floors_at_one(self):
        assert log2_ceil(0) == 1.0
        assert log2_ceil(1) == 1.0
        assert log2_ceil(2) == 1.0
        assert log2_ceil(1024) == 10.0

    def test_dispatch_ops_scale(self):
        cost = CostModel()
        small = cost.master_dispatch_ops(2, 4)
        large = cost.master_dispatch_ops(100, 16)
        assert large > small


class TestBinIndices:
    def test_missing_get_negative_bin(self):
        thresholds = np.array([1.0, 2.0])
        values = np.array([0.5, 1.5, np.nan, 3.0])
        bins = bin_indices(values, thresholds)
        assert bins.tolist() == [0, 1, -1, 2]

    def test_boundary_value_bins_left(self):
        thresholds = np.array([2.0])
        bins = bin_indices(np.array([2.0, 2.0001]), thresholds)
        # v <= threshold means "left": bin 0 covers values <= 2.0.
        assert bins.tolist() == [0, 1]

    def test_thresholds_are_data_values(self):
        values = np.array([5.0, 1.0, 3.0, 9.0, 7.0] * 10)
        thresholds = equi_depth_thresholds(values, 4)
        assert set(thresholds) <= set(values)


class TestDataTableIteration:
    def test_rows_iterator(self, tiny_classification):
        rows = list(tiny_classification.rows())
        assert len(rows) == 10
        assert rows[0][0] == 24.0  # age of the first customer


class TestCliExtra:
    @pytest.fixture
    def csv_path(self, small_mixed_classification, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(small_mixed_classification, path)
        return path

    def _run(self, argv):
        out = io.StringIO()
        return main(argv, out=out), out.getvalue()

    def test_train_extra_trees(self, csv_path, tmp_path):
        code, output = self._run(
            [
                "train", "--csv", str(csv_path), "--target", "label",
                "--model-dir", str(tmp_path / "et"), "--extra-trees",
                "--forest", "3", "--max-depth", "5",
                "--workers", "2", "--compers", "2",
            ]
        )
        assert code == 0
        assert "trained 3 tree(s)" in output

    def test_predict_without_target_column(
        self, small_mixed_classification, tmp_path
    ):
        """A feature-only CSV gets a dummy target injected for parsing."""
        train_csv = tmp_path / "train.csv"
        write_csv(small_mixed_classification, train_csv)
        model_dir = tmp_path / "model"
        self._run(
            [
                "train", "--csv", str(train_csv), "--target", "label",
                "--model-dir", str(model_dir), "--max-depth", "4",
                "--workers", "2", "--compers", "1",
            ]
        )
        # Strip the label column.
        lines = train_csv.read_text().strip().splitlines()
        header = lines[0].split(",")
        label_pos = header.index("label")
        feature_csv = tmp_path / "features.csv"
        stripped = []
        for line in lines:
            fields = line.split(",")
            del fields[label_pos]
            stripped.append(",".join(fields))
        feature_csv.write_text("\n".join(stripped) + "\n")

        out_path = tmp_path / "preds.csv"
        code, output = self._run(
            [
                "predict", "--csv", str(feature_csv),
                "--model-dir", str(model_dir), "--out", str(out_path),
            ]
        )
        assert code == 0
        predictions = out_path.read_text().strip().splitlines()[1:]
        assert len(predictions) == small_mixed_classification.n_rows

    def test_predict_with_depth_cutoff(self, csv_path, tmp_path):
        model_dir = tmp_path / "model"
        self._run(
            [
                "train", "--csv", str(csv_path), "--target", "label",
                "--model-dir", str(model_dir), "--max-depth", "6",
                "--workers", "2", "--compers", "1",
            ]
        )
        out_full = tmp_path / "full.csv"
        out_shallow = tmp_path / "shallow.csv"
        self._run(
            ["predict", "--csv", str(csv_path), "--target", "label",
             "--model-dir", str(model_dir), "--out", str(out_full)]
        )
        code, _ = self._run(
            ["predict", "--csv", str(csv_path), "--target", "label",
             "--model-dir", str(model_dir), "--out", str(out_shallow),
             "--max-depth", "1"]
        )
        assert code == 0
        assert out_full.read_text() != out_shallow.read_text()


class TestExtraTreeKindThroughCli:
    def test_tree_kind_in_saved_model(self, small_mixed_classification):
        tree = train_tree(
            small_mixed_classification,
            TreeConfig(max_depth=4, tree_kind=TreeKind.EXTRA, seed=3),
        )
        assert tree.n_nodes >= 3
