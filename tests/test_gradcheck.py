"""Finite-difference gradient verification harness tests.

The harness itself is load-bearing for the acceptance gate, so these tests
pin its behavior: it must pass on healthy models, fail on a model whose
gradients are deliberately corrupted, and refuse to run exhaustively on
models too large to check entry-by-entry.
"""
import numpy as np
import pytest

from ssfx.mask import ValidationError
from ssfx.models import (
    FeatureSubset,
    FusionConfig,
    build_fusion_classifier,
    build_semantic_classifier,
)
from ssfx.nn import (
    MAX_EXHAUSTIVE_PARAMS,
    CorruptedGradients,
    Dense,
    grad_check,
)


def small_inputs(rng, batch=2, L=4, classes=3, global_width=None):
    ssf = rng.uniform(0.0, 1.0, size=(batch, L, 5))
    labels = rng.integers(0, classes, size=batch)
    g = None if global_width is None else rng.standard_normal((batch, global_width))
    return ssf, g, labels


class TestGradCheckPasses:
    def test_small_nn_classifier_passes(self):
        rng = np.random.default_rng(0)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12))
        ssf, _, labels = small_inputs(rng)
        report = grad_check(model, ssf, None, labels)
        assert report.passed, report.summary_lines()

    def test_small_cnn_classifier_passes(self):
        rng = np.random.default_rng(1)
        model = build_semantic_classifier("cnn", FeatureSubset(), 4, 3, rng, head_width=16)
        ssf, _, labels = small_inputs(rng)
        report = grad_check(model, ssf, None, labels, sample_per_block=40,
                            rng=np.random.default_rng(99))
        assert report.passed, report.summary_lines()

    def test_pc1d_head_passes(self):
        rng = np.random.default_rng(2)
        model = build_semantic_classifier("pc1d", FeatureSubset.parse("pc"), 6, 3, rng,
                                          head_width=16)
        ssf, _, labels = small_inputs(rng, L=6)
        report = grad_check(model, ssf, None, labels, sample_per_block=40,
                            rng=np.random.default_rng(99))
        assert report.passed, report.summary_lines()

    def test_fusion_model_passes_including_frozen_branch(self):
        rng = np.random.default_rng(3)
        cfg = FusionConfig(global_input_width=6, num_classes=3,
                           global_width=8, semantic_width=12, fc3_width=8)
        model = build_fusion_classifier(cfg, "nn", FeatureSubset(), 4, rng, hidden=(8, 12))
        ssf, g, labels = small_inputs(rng, global_width=6)
        report = grad_check(model, ssf, g, labels)
        assert report.passed, report.summary_lines()
        names = [b.name for b in report.blocks]
        assert any(n.startswith("global_fc1.") for n in names)
        assert any(n.startswith("head.") for n in names)

    def test_linear_model_quadratic_loss_is_exact(self):
        # for f(x) = W x + b and loss = mean(y^2), central differences are
        # exact up to rounding, so the harness itself must report ~0 error
        rng = np.random.default_rng(4)

        class Linear:
            def __init__(self):
                self.fc = Dense(3, 2, rng=rng)

            def forward(self, ssf, global_vec=None):
                return self.fc.forward(ssf)

            def backward(self, grad):
                self.fc.backward(grad, input_grad=False)

            def parameters(self):
                return self.fc.params()

        def quadratic(logits, labels):
            return float(np.mean(logits**2)), 2.0 * logits / logits.size

        x = rng.standard_normal((2, 3))
        report = grad_check(Linear(), x, None, np.zeros(2, dtype=int),
                            loss_fn=quadratic, tolerance=1e-9)
        assert report.passed
        assert report.worst < 1e-9


class TestGradCheckCatchesCorruption:
    def test_scaled_gradient_block_fails(self):
        rng = np.random.default_rng(5)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12))
        corrupted = CorruptedGradients(model, "head.fc1.weight")
        ssf, _, labels = small_inputs(rng)
        report = grad_check(corrupted, ssf, None, labels)
        assert not report.passed
        bad = {b.name for b in report.blocks if b.rel_err >= report.tolerance}
        assert bad == {"head.fc1.weight"}

    def test_unknown_block_name_rejected(self):
        rng = np.random.default_rng(6)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12))
        with pytest.raises(ValidationError, match="unknown parameter block"):
            CorruptedGradients(model, "nope.weight")


class TestGradCheckGuards:
    def test_large_model_requires_sampling(self):
        rng = np.random.default_rng(7)
        model = build_semantic_classifier("nn", FeatureSubset(), 40, 6, rng)
        assert sum(t.size for _, t in model.parameters()) > MAX_EXHAUSTIVE_PARAMS
        ssf, _, labels = small_inputs(rng, L=40, classes=6)
        with pytest.raises(ValidationError, match="sample_per_block"):
            grad_check(model, ssf, None, labels)

    @pytest.mark.parametrize("sample", [0, -1])
    def test_sample_per_block_below_one_rejected(self, sample):
        rng = np.random.default_rng(10)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12))
        ssf, _, labels = small_inputs(rng)
        with pytest.raises(ValidationError, match=f"sample_per_block must be >= 1, got {sample}"):
            grad_check(model, ssf, None, labels, sample_per_block=sample)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-4, float("nan"), float("inf")])
    def test_tolerance_not_positive_and_finite_rejected(self, tolerance):
        rng = np.random.default_rng(12)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12))
        ssf, _, labels = small_inputs(rng)
        with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
            grad_check(model, ssf, None, labels, tolerance=tolerance)

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(11)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12))
        ssf, _, labels = small_inputs(rng, batch=0)
        with pytest.raises(ValidationError, match="non-empty batch"):
            grad_check(model, ssf, None, labels)

    def test_sampling_checks_at_most_requested_entries(self):
        rng = np.random.default_rng(8)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12))
        ssf, _, labels = small_inputs(rng)
        report = grad_check(model, ssf, None, labels, sample_per_block=5,
                            rng=np.random.default_rng(0))
        assert all(b.checked <= 5 for b in report.blocks)
        assert report.passed

    def test_summary_lines_cover_every_block(self):
        rng = np.random.default_rng(9)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12))
        ssf, _, labels = small_inputs(rng)
        report = grad_check(model, ssf, None, labels, sample_per_block=4)
        lines = report.summary_lines()
        assert len(lines) == len(report.blocks) + 1
        assert lines[-1].endswith("PASS")
