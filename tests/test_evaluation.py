"""Evaluation reports, ablation grid mechanics, and complexity measurement."""
import numpy as np
import pytest

import ssfx.evaluation as evaluation
from ssfx.data import LoadedDataset
from ssfx.evaluation import (
    GRID_SUBSETS,
    AblationGrid,
    evaluate,
    extraction_benchmark,
    measure_complexity,
    run_ablation,
)
from ssfx.features import FeatureSubset
from ssfx.mask import SegmentationMask, ValidationError
from ssfx.models import BATCH_SIZE, TrainPlan, build_semantic_classifier, train


class FixedPredictions:
    """Stub classifier emitting one-hot logits for a scripted label sequence."""

    def __init__(self, labels, classes):
        self.labels = list(labels)
        self.classes = classes
        self.cursor = 0
        self.batch_sizes = []

    def forward(self, ssf, g=None):
        n = ssf.shape[0]
        out = np.zeros((n, self.classes))
        for i in range(n):
            out[i, self.labels[self.cursor + i]] = 1.0
        self.cursor += n
        self.batch_sizes.append(n)
        return out

    def release(self):
        pass


def stub_dataset(labels, classes=3, n_train=0):
    labels = np.asarray(labels)
    n = len(labels)
    return LoadedDataset(
        ssf=np.zeros((n, 2, 5)), labels=labels,
        train_idx=np.arange(n_train), test_idx=np.arange(n_train, n),
        num_classes=classes, num_categories=2)


class TestEvaluate:
    def test_confusion_matrix_is_exact(self):
        # Seven copies of six samples: two batches, the second a short one.
        data = stub_dataset([0, 0, 1, 1, 2, 2] * 7)
        model = FixedPredictions([0, 1, 1, 1, 2, 0] * 7, classes=3)
        report = evaluate(model, data, "test")
        assert model.batch_sizes == [BATCH_SIZE, 42 - BATCH_SIZE]
        expected = 7 * np.array([[1, 1, 0], [0, 2, 0], [1, 0, 1]])
        np.testing.assert_array_equal(report.confusion, expected)
        assert report.total == 42
        assert report.accuracy == pytest.approx(4 / 6)
        assert report.per_class_accuracy == (0.5, 1.0, 0.5)

    def test_rows_sum_to_class_support(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=100)
        data = stub_dataset(labels)
        model = FixedPredictions(rng.integers(0, 3, size=100), classes=3)
        report = evaluate(model, data, "test")
        assert len(model.batch_sizes) == 4
        np.testing.assert_array_equal(report.confusion.sum(axis=1),
                                      np.bincount(labels, minlength=3))
        assert np.trace(report.confusion) / report.total == report.accuracy

    def test_unsupported_class_scores_zero(self):
        data = stub_dataset([0, 0, 1], classes=3)
        model = FixedPredictions([0, 0, 1], classes=3)
        report = evaluate(model, data, "test")
        assert report.per_class_accuracy[2] == 0.0

    def test_empty_split_rejected(self):
        data = stub_dataset([0, 1], n_train=2)
        with pytest.raises(ValidationError, match="empty"):
            evaluate(FixedPredictions([], 2), data, "test")

    def test_unknown_split_rejected(self):
        data = stub_dataset([0, 1])
        with pytest.raises(ValidationError, match="unknown split"):
            evaluate(FixedPredictions([0, 1], 2), data, "val")

    def test_text_and_csv_render(self):
        data = stub_dataset([0, 1, 1])
        model = FixedPredictions([0, 1, 0], classes=3)
        report = evaluate(model, data, "test")
        text = report.to_text()
        assert "accuracy: 0.6667" in text
        assert "class 1: 0.5000" in text
        csv = report.confusion_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "true\\pred,0,1,2"
        assert len(lines) == 4


class TestAblationGrid:
    def test_grid_covers_table_order(self):
        labels = [s.label() for s in GRID_SUBSETS]
        assert labels == ["PC", "AP", "SD", "AP&SD", "PC&AP", "PC&SD", "SSFs"]

    def test_fourteen_cells_in_subset_major_order(self, tiny_ablation_data):
        grid = run_ablation(tiny_ablation_data, epochs=1, batch_size=16,
                            learning_rate=1e-3, seed=0)
        assert len(grid.cells) == 14
        expected = [(s.label(), h) for s in GRID_SUBSETS for h in ("cnn", "nn")]
        assert [(c.subset_label, c.head) for c in grid.cells] == expected
        assert all(c.accuracy is not None and c.error is None for c in grid.cells)
        assert 0.0 <= grid.accuracy("SSFs", "nn") <= 1.0

    def test_failing_cell_is_recorded_not_fatal(self, tiny_ablation_data, monkeypatch):
        real_train = evaluation.train

        def sabotaged(plan, data, model):
            if model.descriptor()["head"] == "cnn" and model.descriptor()["subset"] == "ap":
                raise ArithmeticError("injected failure")
            return real_train(plan, data, model)

        monkeypatch.setattr(evaluation, "train", sabotaged)
        grid = run_ablation(tiny_ablation_data, epochs=1, batch_size=16,
                            learning_rate=1e-3, seed=0)
        assert len(grid.cells) == 14
        broken = [c for c in grid.cells if c.error is not None]
        assert [(c.subset_label, c.head) for c in broken] == [("AP", "cnn")]
        assert "injected failure" in broken[0].error
        assert grid.accuracy("AP", "cnn") is None
        assert grid.accuracy("AP", "nn") is not None
        assert "error: injected failure" in grid.to_text()

    def test_programming_error_in_a_cell_propagates(self, tiny_ablation_data, monkeypatch):
        real_train = evaluation.train

        def broken(plan, data, model):
            if model.descriptor()["head"] == "nn" and model.descriptor()["subset"] == "sd":
                raise TypeError("injected programming error")
            return real_train(plan, data, model)

        monkeypatch.setattr(evaluation, "train", broken)
        with pytest.raises(TypeError, match="injected programming error"):
            run_ablation(tiny_ablation_data, epochs=1, batch_size=16,
                         learning_rate=1e-3, seed=0)

    def test_cell_accuracy_is_the_evaluated_test_accuracy(self, tiny_ablation_data):
        data = tiny_ablation_data
        grid = run_ablation(data, epochs=2, learning_rate=1e-3, seed=5)
        plan = TrainPlan(stage="semantic_only", epochs=2, learning_rate=1e-3, seed=5)
        for subset in GRID_SUBSETS:
            for head in ("cnn", "nn"):
                model = build_semantic_classifier(head, subset, data.num_categories,
                                                  data.num_classes, np.random.default_rng(5))
                train(plan, data, model)
                assert (grid.accuracy(subset.label(), head)
                        == evaluate(model, data, "test").accuracy)

    def test_grid_runs_the_test_split_once_per_epoch(self, tiny_ablation_data, monkeypatch):
        real_score = evaluation.score_split
        passes = []

        def counted(model, data, idx, batch_size):
            passes.append(len(idx))
            return real_score(model, data, idx, batch_size)

        monkeypatch.setattr(evaluation, "score_split", counted)
        monkeypatch.setattr("ssfx.models.score_split", counted)
        run_ablation(tiny_ablation_data, epochs=2, learning_rate=1e-3, seed=0)
        assert passes == [len(tiny_ablation_data.test_idx)] * 14 * 2

    @pytest.mark.parametrize("options", [{"epochs": 0}, {"batch_size": 0},
                                         {"learning_rate": float("nan")}],
                             ids=["epochs", "batch", "lr"])
    def test_invalid_plan_is_refused_before_the_grid(self, tiny_ablation_data, monkeypatch,
                                                     options):
        monkeypatch.setattr(evaluation, "train", lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(ValidationError, match="must be positive"):
            run_ablation(tiny_ablation_data, **{"epochs": 1, **options})

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_empty_split_is_refused_before_the_grid(self, tiny_ablation_data, monkeypatch,
                                                    split):
        data = LoadedDataset(**{**vars(tiny_ablation_data), f"{split}_idx": np.arange(0)})
        monkeypatch.setattr(evaluation, "train", lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(ValidationError, match=f"split '{split}' is empty"):
            run_ablation(data, epochs=1)

    def test_unknown_cell_lookup_rejected(self):
        grid = AblationGrid(cells=())
        with pytest.raises(ValidationError, match="no ablation cell"):
            grid.accuracy("PC", "cnn")


@pytest.fixture(scope="module")
def tiny_ablation_data():
    rng = np.random.default_rng(4)
    n = 40
    labels = np.repeat([0, 1], n // 2)
    ssf = rng.uniform(0, 0.2, size=(n, 3, 5)) + labels[:, None, None] * 0.5
    return LoadedDataset(ssf=ssf, labels=labels, train_idx=np.arange(0, n, 2),
                         test_idx=np.arange(1, n, 2), num_classes=2, num_categories=3)


class TestComplexity:
    def test_flops_match_hand_computed_sums(self):
        rng = np.random.default_rng(0)
        L, k, C = 4, 5, 3
        nn = build_semantic_classifier("nn", FeatureSubset(), L, C, rng, hidden=(8, 12))
        expected_nn = 2 * (L * k * 8) + 2 * (8 * 12) + 2 * (12 * C)
        assert nn.flop_count() == expected_nn

        cnn = build_semantic_classifier("cnn", FeatureSubset(), L, C, rng, head_width=16)
        conv_flops = (2 * 9 * 1 * 64 * L * k
                      + 2 * 9 * 64 * 128 * L * k
                      + 2 * 9 * 128 * 64 * L * k)
        expected_cnn = conv_flops + 2 * (64 * L * k * 16) + 2 * (16 * C)
        assert cnn.flop_count() == expected_cnn

    def test_mac_is_half_of_flops(self):
        rng = np.random.default_rng(1)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12))
        report = measure_complexity(model, iterations=1000, warmup=10)
        assert report.mac_count == report.flops // 2
        assert report.param_count == sum(t.size for _, t in model.parameters())
        assert report.throughput_fps > 0

    def test_iteration_floor_enforced(self):
        rng = np.random.default_rng(2)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12))
        with pytest.raises(ValidationError, match="1000"):
            measure_complexity(model, iterations=999)

    def test_negative_warmup_rejected(self):
        rng = np.random.default_rng(2)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12))
        with pytest.raises(ValidationError, match="warmup must be >= 0, got -5"):
            measure_complexity(model, iterations=1000, warmup=-5)

    def test_report_text_mentions_all_figures(self):
        rng = np.random.default_rng(3)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12))
        report = measure_complexity(model, iterations=1000, warmup=10)
        text = report.to_text()
        for token in (str(report.flops), str(report.param_count), "samples/s"):
            assert token in text


class TestExtractionBenchmark:
    def test_returns_positive_median_seconds(self):
        rng = np.random.default_rng(0)
        mask = SegmentationMask(rng.integers(0, 5, size=(64, 64)), num_categories=4)
        t = extraction_benchmark(mask, runs=50)
        assert 0 < t < 1.0

    def test_run_floor(self):
        mask = SegmentationMask(np.ones((4, 4), dtype=np.int64), num_categories=1)
        with pytest.raises(ValidationError, match="runs"):
            extraction_benchmark(mask, runs=0)
