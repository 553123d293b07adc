"""Model builders, parameter accounting, checkpointing, and the training loop."""
import hashlib
import threading
import tracemalloc

import numpy as np
import pytest

import ssfx.data as data_module
import ssfx.nn.optim as optim_module
from ssfx.data import LoadedDataset, shuffled_batches
from ssfx.evaluation import evaluate, measure_complexity
from ssfx.features import FeatureSubset
from ssfx.mask import ValidationError
from ssfx.models import (
    BATCH_SIZE,
    CNN_CHANNELS,
    FusionConfig,
    SsfInput,
    TrainPlan,
    build_from_descriptor,
    build_fusion_classifier,
    build_global_classifier,
    build_semantic_classifier,
    fuse_concat,
    load_model,
    param_count,
    predict,
    score_split,
    train,
)
from ssfx.nn import (Adam, Checkpoint, CheckpointError, Sequential, Tensor, save_checkpoint,
                     softmax, softmax_cross_entropy)
from ssfx.nn.optim import BLOCK


def toy_dataset(n_per_class=20, L=4, classes=2, global_width=None, seed=0):
    """Linearly separable in-memory feature set; class shifts the mean level."""
    rng = np.random.default_rng(seed)
    n = n_per_class * classes
    labels = np.repeat(np.arange(classes), n_per_class)
    ssf = rng.uniform(0.0, 0.15, size=(n, L, 5))
    ssf += labels[:, None, None] * 0.5 / max(1, classes - 1)
    g = None
    if global_width is not None:
        g = 0.05 * rng.standard_normal((n, global_width))
        g[np.arange(n), labels % global_width] += 1.0
    order = rng.permutation(n)
    split = int(0.7 * n)
    return LoadedDataset(ssf=ssf, labels=labels, train_idx=order[:split],
                         test_idx=order[split:], num_classes=classes,
                         num_categories=L, global_vecs=g)


def head_layer_sizes(model):
    """Parameter count of each layer of the ``head`` branch, by layer name."""
    sizes = {}
    for name, t in model.parameters():
        if name.startswith("head."):
            layer = name.split(".")[1]
            sizes[layer] = sizes.get(layer, 0) + t.size
    return sizes


class TestParameterCounts:
    def test_nn_head_closed_form(self):
        L, k = 40, 5
        model = build_semantic_classifier("nn", FeatureSubset(), L, 6, np.random.default_rng(0))
        expected = (L * k * 512 + 512) + (512 * 1024 + 1024)
        assert sum(head_layer_sizes(model).values()) == expected
        assert expected == 628_224

    def test_cnn_head_closed_form(self):
        L, k = 40, 5
        model = build_semantic_classifier("cnn", FeatureSubset(), L, 6, np.random.default_rng(0))
        by_name = head_layer_sizes(model)
        assert by_name["conv1"] == 64 * 1 * 9 + 64 == 640
        assert by_name["conv2"] == 128 * 64 * 9 + 128 == 73_856
        assert by_name["conv3"] == 64 * 128 * 9 + 64 == 73_792
        flat = 64 * L * k
        assert flat == 12_800
        assert by_name["fc"] == flat * 1024 + 1024

    def test_pc1d_head_closed_form(self):
        L = 40
        model = build_semantic_classifier("pc1d", FeatureSubset.parse("pc"), L, 6,
                                          np.random.default_rng(0))
        expected = (32 * 1 * 3 + 32) + (64 * 32 * 3 + 64) + (64 * L * 1024 + 1024)
        assert sum(head_layer_sizes(model).values()) == expected

    def test_classifier_adds_dense_block(self):
        rng = np.random.default_rng(0)
        model = build_semantic_classifier("nn", FeatureSubset(), 40, 6, rng)
        assert param_count(model) == 628_224 + (1024 * 6 + 6)

    def test_fusion_param_accounting(self):
        rng = np.random.default_rng(0)
        cfg = FusionConfig(global_input_width=10, num_classes=6)
        model = build_fusion_classifier(cfg, "nn", FeatureSubset(), 40, rng)
        expected = (10 * 1024 + 1024) + 628_224 + (2048 * 512 + 512) + (512 * 6 + 6)
        assert param_count(model) == expected


class TestBuilders:
    def test_cnn_preserves_matrix_dims_until_flatten(self):
        rng = np.random.default_rng(1)
        model = build_semantic_classifier("cnn", FeatureSubset.parse("pc,ap"), 7, 3, rng,
                                          head_width=32)
        assert dict(model.parameters())["head.fc.weight"].data.shape == (32, 64 * 7 * 3)
        out = model.branches[0].layers.forward(rng.standard_normal((2, 7, 5)))
        assert out.shape == (2, 32)

    def test_nn_head_output_width(self):
        rng = np.random.default_rng(1)
        model = build_semantic_classifier("nn", FeatureSubset(), 7, 3, rng, hidden=(16, 24))
        assert model.branches[0].layers.forward(rng.standard_normal((3, 7, 5))).shape == (3, 24)

    def test_pc1d_head_output_width(self):
        rng = np.random.default_rng(1)
        model = build_semantic_classifier("pc1d", FeatureSubset.parse("pc"), 7, 3, rng,
                                          pc_channels=(4, 8), head_width=16)
        assert model.branches[0].layers.forward(rng.standard_normal((3, 7, 5))).shape == (3, 16)

    @pytest.mark.parametrize("head,options,key", [
        ("nn", {"hidden": (16, 0)}, "hidden"),
        ("nn", {"hidden": ()}, "hidden"),
        ("cnn", {"head_width": 0}, "head_width"),
        ("pc1d", {"head_width": -2}, "head_width"),
        ("pc1d", {"pc_channels": (-1, 4)}, "pc_channels"),
        ("pc1d", {"pc_channels": (4, 0)}, "pc_channels"),
    ], ids=["hidden-entry", "hidden-empty", "cnn-head-width", "pc1d-head-width",
            "pc-channels-first", "pc-channels-second"])
    def test_non_positive_head_width_is_refused(self, head, options, key):
        subset = FeatureSubset.parse("pc") if head == "pc1d" else FeatureSubset()
        with pytest.raises(ValidationError, match=f"{key} must be positive"):
            build_semantic_classifier(head, subset, 6, 3, np.random.default_rng(0), **options)

    def test_non_positive_num_categories_is_refused(self):
        with pytest.raises(ValidationError, match="num_categories must be positive"):
            build_semantic_classifier("nn", FeatureSubset(), 0, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("key", ["global_input_width", "global_width", "semantic_width",
                                     "fc3_width"])
    def test_non_positive_fusion_width_is_refused(self, key):
        widths = {"global_input_width": 4, "num_classes": 3, key: 0}
        with pytest.raises(ValidationError, match=f"{key} must be positive, got 0"):
            FusionConfig(**widths)

    def test_fusion_needs_two_classes(self):
        with pytest.raises(ValidationError, match="num_classes must be >= 2, got 1"):
            FusionConfig(global_input_width=4, num_classes=1)

    def test_pc1d_head_consumes_count_column_only(self):
        rng = np.random.default_rng(1)
        model = build_semantic_classifier("pc1d", FeatureSubset.parse("pc"), 6, 3, rng,
                                          head_width=16)
        ssf = rng.uniform(0, 1, size=(2, 6, 5))
        logits = model.forward(ssf)
        # columns other than pc must not influence the output
        altered = ssf.copy()
        altered[:, :, 1:] = 0.77
        np.testing.assert_array_equal(model.forward(altered), logits)

    def test_pc1d_requires_pc_subset(self):
        with pytest.raises(ValidationError, match="subset 'pc'"):
            build_semantic_classifier("pc1d", FeatureSubset(), 6, 3, np.random.default_rng(0))

    def test_unknown_head_kind(self):
        with pytest.raises(ValidationError, match="unknown head kind"):
            build_semantic_classifier("transformer", FeatureSubset(), 6, 3,
                                      np.random.default_rng(0))

    def test_subset_selects_columns_for_nn_head(self):
        rng = np.random.default_rng(2)
        model = build_semantic_classifier("nn", FeatureSubset.parse("pc,ap"), 5, 3, rng,
                                          hidden=(8, 8))
        ssf = rng.uniform(0, 1, size=(2, 5, 5))
        logits = model.forward(ssf)
        altered = ssf.copy()
        altered[:, :, 3:] = 0.5  # sigma columns excluded by pc+ap
        np.testing.assert_array_equal(model.forward(altered), logits)

    def test_head_width_must_match_fusion_semantic_width(self):
        cfg = FusionConfig(global_input_width=4, num_classes=3, semantic_width=64)
        with pytest.raises(ValidationError, match="fusion expects 64"):
            build_fusion_classifier(cfg, "nn", FeatureSubset(), 5,
                                    np.random.default_rng(0), hidden=(8, 16))


def _pinned_fusion_cfg(semantic_width):
    return FusionConfig(5, 3, global_width=8, semantic_width=semantic_width, fc3_width=6)


# Parameter names, descriptors and FLOPs of small models, as the three
# separate classifier classes produced them; SSFC files depend on the names
# and descriptors.
PINNED_MODELS = {
    "semantic-nn": (
        lambda rng: build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12)),
        ["head.fc1.weight", "head.fc1.bias", "head.fc2.weight", "head.fc2.bias",
         "classifier.weight", "classifier.bias"],
        {"model": "semantic", "head": "nn", "subset": "pc,ap,sd", "num_categories": 4,
         "num_classes": 3, "hidden": [8, 12]},
        584),
    "semantic-cnn": (
        lambda rng: build_semantic_classifier("cnn", FeatureSubset.parse("pc,ap"), 4, 3, rng,
                                              head_width=16),
        ["head.conv1.weight", "head.conv1.bias", "head.conv2.weight", "head.conv2.bias",
         "head.conv3.weight", "head.conv3.bias", "head.fc.weight", "head.fc.bias",
         "classifier.weight", "classifier.bias"],
        {"model": "semantic", "head": "cnn", "subset": "pc,ap", "num_categories": 4,
         "num_classes": 3, "head_width": 16},
        3_577_440),
    "semantic-pc1d": (
        lambda rng: build_semantic_classifier("pc1d", FeatureSubset.parse("pc"), 6, 3, rng,
                                              pc_channels=(4, 8), head_width=16),
        ["head.conv1.weight", "head.conv1.bias", "head.conv2.weight", "head.conv2.bias",
         "head.fc.weight", "head.fc.bias", "classifier.weight", "classifier.bias"],
        {"model": "semantic", "head": "pc1d", "subset": "pc", "num_categories": 6,
         "num_classes": 3, "pc_channels": [4, 8], "head_width": 16},
        2928),
    "global": (
        lambda rng: build_global_classifier(FusionConfig(5, 3, global_width=8), rng),
        ["global_fc1.weight", "global_fc1.bias", "classifier.weight", "classifier.bias"],
        {"model": "global", "num_classes": 3, "global_input_width": 5, "global_width": 8},
        128),
    "fusion-nn": (
        lambda rng: build_fusion_classifier(_pinned_fusion_cfg(12), "nn", FeatureSubset(), 4,
                                            rng, hidden=(8, 12)),
        ["global_fc1.weight", "global_fc1.bias", "head.fc1.weight", "head.fc1.bias",
         "head.fc2.weight", "head.fc2.bias", "fc3.weight", "fc3.bias", "fc4.weight",
         "fc4.bias"],
        {"model": "fusion", "head": "nn", "subset": "pc,ap,sd", "num_categories": 4,
         "num_classes": 3, "global_input_width": 5, "global_width": 8, "semantic_width": 12,
         "fc3_width": 6, "hidden": [8, 12]},
        868),
    "fusion-cnn": (
        lambda rng: build_fusion_classifier(_pinned_fusion_cfg(16), "cnn",
                                            FeatureSubset.parse("sd"), 4, rng, head_width=16),
        ["global_fc1.weight", "global_fc1.bias", "head.conv1.weight", "head.conv1.bias",
         "head.conv2.weight", "head.conv2.bias", "head.conv3.weight", "head.conv3.bias",
         "head.fc.weight", "head.fc.bias", "fc3.weight", "fc3.bias", "fc4.weight", "fc4.bias"],
        {"model": "fusion", "head": "cnn", "subset": "sd", "num_categories": 4,
         "num_classes": 3, "global_input_width": 5, "global_width": 8, "semantic_width": 16,
         "fc3_width": 6, "head_width": 16},
        2_385_300),
}


class TestPinnedFormat:
    @pytest.mark.parametrize("case", sorted(PINNED_MODELS))
    def test_names_descriptor_and_flops(self, case):
        build, names, descriptor, flops = PINNED_MODELS[case]
        model = build(np.random.default_rng(0))
        assert [name for name, _ in model.parameters()] == names
        assert model.descriptor() == descriptor
        assert model.flop_count() == flops
        rebuilt = build_from_descriptor(descriptor)
        assert [name for name, _ in rebuilt.parameters()] == names


class TestFuseConcat:
    def test_global_comes_first(self):
        fused = fuse_concat(np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0]))
        np.testing.assert_array_equal(fused, [1, 2, 3, 4, 5])

    def test_batched(self):
        fused = fuse_concat(np.ones((2, 3)), np.zeros((2, 2)))
        assert fused.shape == (2, 5)
        np.testing.assert_array_equal(fused[:, :3], 1.0)
        np.testing.assert_array_equal(fused[:, 3:], 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            fuse_concat(np.array([np.nan]), np.array([1.0]))

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="matching 1-D or 2-D"):
            fuse_concat(np.ones((2, 3)), np.ones(3))


class TestPredict:
    def test_tie_breaks_toward_lowest_class(self):
        class Stub:
            def forward(self, ssf, g=None):
                return np.array([[0.5, 0.5, 0.1]])

            def release(self):
                pass

        label, logits = predict(Stub(), np.zeros((4, 5)))
        assert label == 0
        np.testing.assert_array_equal(logits, [0.5, 0.5, 0.1])


class TestDescriptorRoundTrip:
    @pytest.mark.parametrize("kind,options", [
        ("nn", {"hidden": (8, 12)}),
        ("cnn", {"head_width": 16}),
        ("pc1d", {"head_width": 16}),
    ])
    def test_semantic_round_trip(self, kind, options):
        rng = np.random.default_rng(5)
        subset = FeatureSubset.parse("pc") if kind == "pc1d" else FeatureSubset()
        model = build_semantic_classifier(kind, subset, 6, 3, rng, **options)
        ckpt = Checkpoint(model.descriptor(), model.state_arrays())
        rebuilt = load_model(ckpt)
        ssf = rng.uniform(0, 1, size=(2, 6, 5))
        np.testing.assert_array_equal(rebuilt.forward(ssf), model.forward(ssf))

    def test_global_round_trip(self):
        rng = np.random.default_rng(6)
        cfg = FusionConfig(global_input_width=5, num_classes=3, global_width=8)
        model = build_global_classifier(cfg, rng)
        rebuilt = load_model(Checkpoint(model.descriptor(), model.state_arrays()))
        g = rng.standard_normal((2, 5))
        np.testing.assert_array_equal(rebuilt.forward(None, g), model.forward(None, g))

    def test_fusion_round_trip(self):
        rng = np.random.default_rng(7)
        cfg = FusionConfig(global_input_width=5, num_classes=3,
                           global_width=8, semantic_width=12, fc3_width=6)
        model = build_fusion_classifier(cfg, "nn", FeatureSubset(), 4, rng, hidden=(8, 12))
        rebuilt = load_model(Checkpoint(model.descriptor(), model.state_arrays()))
        ssf = rng.uniform(0, 1, size=(2, 4, 5))
        g = rng.standard_normal((2, 5))
        np.testing.assert_array_equal(rebuilt.forward(ssf, g), model.forward(ssf, g))

    def test_unknown_descriptor_kind(self):
        with pytest.raises(CheckpointError, match="unknown model kind"):
            build_from_descriptor({"model": "mystery"})

    @pytest.mark.parametrize("desc,key", [
        ({"model": "semantic", "head": "nn"}, "subset"),
        ({"model": "global", "global_input_width": 5, "num_classes": 3, "global_width": "x"},
         "global_width"),
        ({"model": "fusion", "head": "nn", "subset": "pc", "num_categories": 4,
          "num_classes": 3}, "global_input_width"),
        ({"model": "semantic", "head": "nn", "subset": "pc", "num_categories": 4,
          "num_classes": True}, "num_classes"),
        ({"model": "semantic", "head": "nn", "subset": "pc", "num_categories": 4,
          "num_classes": 3, "hidden": [8, "12"]}, "hidden"),
        ({"model": "semantic", "head": "pc1d", "subset": "pc", "num_categories": 4,
          "num_classes": 3, "pc_channels": [8]}, "pc_channels"),
        ({"model": "semantic", "head": 1, "subset": "pc", "num_categories": 4,
          "num_classes": 3}, "head"),
    ], ids=["missing-subset", "global-width-str", "fusion-missing-input-width",
            "classes-bool", "hidden-str", "pc-channels-short", "head-int"])
    def test_bad_descriptor_names_the_key(self, desc, key):
        with pytest.raises(CheckpointError, match=f"'{key}'"):
            build_from_descriptor(desc)

    def test_load_arrays_rejects_mismatched_names(self):
        rng = np.random.default_rng(8)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12))
        state = model.state_arrays()
        state.pop("classifier.bias")
        state["rogue.weight"] = np.zeros(3)
        with pytest.raises(CheckpointError, match="classifier.bias"):
            model.load_arrays(state)

    def test_load_arrays_rejects_wrong_shape(self):
        rng = np.random.default_rng(9)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12))
        state = model.state_arrays()
        state["classifier.bias"] = np.zeros(7)
        with pytest.raises(CheckpointError, match="shape"):
            model.load_arrays(state)

    def test_load_model_takes_the_checkpoint_arrays_and_load_arrays_copies(self):
        rng = np.random.default_rng(10)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12))
        state = model.state_arrays()
        loaded = dict(load_model(Checkpoint(model.descriptor(), state)).parameters())
        assert all(loaded[name].data is arr for name, arr in state.items())
        # A caller that reloads one dict into a model it trains keeps its arrays.
        model.load_arrays(state)
        assert not any(np.shares_memory(t.data, state[name]) for name, t in model.parameters())

    def test_load_model_converts_arrays_it_cannot_take(self):
        rng = np.random.default_rng(11)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3, rng, hidden=(8, 12))
        state = {name: np.asfortranarray(arr).astype(np.float32)
                 for name, arr in model.state_arrays().items()}
        for name, t in load_model(Checkpoint(model.descriptor(), state)).parameters():
            assert t.data.dtype == np.float64 and t.data.flags.c_contiguous, name
            np.testing.assert_array_equal(t.data, state[name])


class TestTrainingLoop:
    def plan(self, stage="semantic_only", **overrides):
        defaults = dict(stage=stage, epochs=10, batch_size=8,
                        learning_rate=0.01, weight_decay=0.0, seed=0)
        defaults.update(overrides)
        return TrainPlan(**defaults)

    def test_semantic_training_learns_toy_data(self):
        data = toy_dataset()
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 2,
                                          np.random.default_rng(0), hidden=(8, 12))
        ckpt, metrics = train(self.plan(epochs=30), data, model)
        assert metrics[-1]["split"] == "test"
        assert metrics[-1]["accuracy"] == 1.0
        assert ckpt.metadata["final_metrics"]["test"]["accuracy"] == 1.0

    def test_metrics_schema(self):
        data = toy_dataset()
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 2,
                                          np.random.default_rng(0), hidden=(8, 12))
        _, metrics = train(self.plan(epochs=3), data, model)
        assert len(metrics) == 6
        assert [m["split"] for m in metrics] == ["train", "test"] * 3
        assert all(set(m) == {"epoch", "split", "loss", "accuracy", "seconds"} for m in metrics)
        assert all(np.isfinite(m["seconds"]) and m["seconds"] > 0 for m in metrics)
        assert [m["epoch"] for m in metrics] == [0, 0, 1, 1, 2, 2]

    def test_training_is_deterministic(self):
        def run():
            data = toy_dataset()
            model = build_semantic_classifier("nn", FeatureSubset(), 4, 2,
                                              np.random.default_rng(3), hidden=(8, 12))
            ckpt, _ = train(self.plan(epochs=5), data, model)
            return {k: v.tobytes() for k, v in ckpt.params.items()}

        assert run() == run()

    def test_non_finite_loss_stops_training_naming_epoch_and_batch(self):
        data = toy_dataset()
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 2,
                                          np.random.default_rng(0), hidden=(8, 12))
        # One Adam step at this rate makes the second batch's logits overflow.
        with np.errstate(all="ignore"), pytest.raises(
                ArithmeticError, match="loss nan at epoch 0, batch 1"):
            train(self.plan(learning_rate=1e200), data, model)

    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rate_or_decay_is_refused(self, field, value):
        with pytest.raises(ValidationError, match="finite"):
            self.plan(**{field: value})

    def test_non_finite_test_loss_stops_training_naming_epoch(self):
        data = toy_dataset()
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 2,
                                          np.random.default_rng(0), hidden=(8, 12))
        # One batch per epoch: the training loss is finite, and the one step
        # it takes at this rate makes the test logits overflow.
        plan = self.plan(epochs=1, batch_size=len(data.train_idx), learning_rate=1e200)
        with np.errstate(all="ignore"), pytest.raises(
                ArithmeticError, match="test loss nan at epoch 0"):
            train(plan, data, model)

    def test_non_finite_parameter_is_not_checkpointed(self):
        data = toy_dataset()
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 2,
                                          np.random.default_rng(0), hidden=(8, 12))
        # A -inf bias before a ReLU only silences its unit: every loss stays
        # finite, and the bias gets a zero gradient, so it stays -inf.
        dict(model.parameters())["head.fc1.bias"].data[0] = -np.inf
        with pytest.raises(ArithmeticError,
                           match="parameter 'head.fc1.bias' is not finite after epoch 1"):
            train(self.plan(epochs=2), data, model)

    def test_stage_model_mismatch_rejected(self):
        data = toy_dataset(global_width=4)
        model = build_global_classifier(FusionConfig(4, 2, global_width=8),
                                        np.random.default_rng(0))
        with pytest.raises(ValidationError, match="cannot train"):
            train(self.plan("semantic_only"), data, model)

    def test_global_stage_requires_global_vectors(self):
        data = toy_dataset()  # no global vectors
        model = build_global_classifier(FusionConfig(4, 2, global_width=8),
                                        np.random.default_rng(0))
        with pytest.raises(ValidationError, match="no global feature vectors"):
            train(self.plan("step1_global"), data, model)

    def test_step2_requires_frozen_global_branch(self):
        data = toy_dataset(global_width=4)
        cfg = FusionConfig(4, 2, global_width=8, semantic_width=12, fc3_width=8)
        model = build_fusion_classifier(cfg, "nn", FeatureSubset(), 4,
                                        np.random.default_rng(0), hidden=(8, 12))
        with pytest.raises(ValidationError, match="must freeze the global branch"):
            train(self.plan("step2_fusion"), data, model)

    def test_unknown_frozen_name_rejected(self):
        data = toy_dataset()
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 2,
                                          np.random.default_rng(0), hidden=(8, 12))
        with pytest.raises(ValidationError, match="not in model"):
            train(self.plan(frozen=("ghost.weight",)), data, model)

    @pytest.mark.parametrize("model_classes", [3, 6])
    def test_class_count_mismatch_is_refused_before_any_step(self, model_classes, monkeypatch):
        data = toy_dataset(classes=2)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, model_classes,
                                          np.random.default_rng(0), hidden=(8, 12))
        before = {name: t.data.copy() for name, t in model.parameters()}
        steps = []
        monkeypatch.setattr(Adam, "step", lambda self: steps.append(1))
        with pytest.raises(ValidationError,
                           match=f"model has {model_classes} classes but the dataset has 2"):
            train(self.plan(), data, model)
        assert steps == []
        for name, t in model.parameters():
            np.testing.assert_array_equal(t.data, before[name])

    def test_empty_training_split_is_refused(self):
        data = toy_dataset()
        data.train_idx = data.train_idx[:0]
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 2,
                                          np.random.default_rng(0), hidden=(8, 12))
        with pytest.raises(ValidationError, match="split 'train' is empty"):
            train(self.plan(), data, model)

    def test_empty_test_split_is_refused_before_any_step(self):
        data = toy_dataset()
        data.test_idx = data.test_idx[:0]
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 2,
                                          np.random.default_rng(0), hidden=(8, 12))
        before = model.state_arrays()
        with pytest.raises(ValidationError, match="split 'test' is empty"):
            train(self.plan(), data, model)
        for name, t in model.parameters():
            np.testing.assert_array_equal(t.data, before[name])

    @pytest.mark.parametrize("lr,wd", [(0.0, 0.0), (np.nan, 0.0), (0.1, -1.0), (0.1, np.inf),
                                       (1e9, 5e-4), (2.0, 0.5)])
    def test_plan_refuses_rates_as_adam_does(self, lr, wd):
        with pytest.raises(ValidationError) as by_plan:
            self.plan(learning_rate=lr, weight_decay=wd)
        with pytest.raises(ValidationError) as by_adam:
            Adam([("p", Tensor(np.zeros(1)))], learning_rate=lr, weight_decay=wd)
        assert str(by_plan.value) == str(by_adam.value)

    def test_test_line_is_the_score_of_the_trained_model(self):
        data = toy_dataset(classes=3)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3,
                                          np.random.default_rng(0), hidden=(8, 12))
        _, metrics = train(self.plan(epochs=2), data, model)
        loss, confusion = score_split(model, data, data.test_idx, 8)
        model.release()
        assert metrics[-1]["loss"] == loss
        assert metrics[-1]["accuracy"] == np.trace(confusion) / len(data.test_idx)
        assert metrics[-1]["accuracy"] == evaluate(model, data, "test").accuracy


class TestScoreSplit:
    def test_loss_and_confusion_match_a_direct_computation(self):
        data = toy_dataset(n_per_class=9, classes=3)
        model = build_semantic_classifier("nn", FeatureSubset(), 4, 3,
                                          np.random.default_rng(2), hidden=(8, 12))
        idx = data.test_idx
        loss, confusion = score_split(model, data, idx, 4)
        logits = model.forward(data.ssf[idx])
        model.release()
        labels = data.labels[idx]
        np.testing.assert_allclose(
            loss, -np.mean(np.log(softmax(logits)[np.arange(len(idx)), labels])), rtol=1e-12)
        expected = np.zeros((3, 3), dtype=np.int64)
        for true, predicted in zip(labels, np.argmax(logits, axis=1)):
            expected[true, predicted] += 1
        np.testing.assert_array_equal(confusion, expected)
        assert confusion.sum() == len(idx)


class TestBackwardWalk:
    @pytest.mark.parametrize("head,first,skipped", [
        ("nn", {"head.fc1"}, {"input", "head.flatten"}),
        ("cnn", {"head.conv1"}, {"input"}),
        ("pc1d", {"head.conv1"}, {"input"}),
        ("fusion", {"global_fc1", "head.fc1"}, {"input", "head.flatten"}),
    ], ids=["nn", "cnn", "pc1d", "fusion"])
    def test_backward_gives_the_data_no_gradient(self, head, first, skipped):
        """Backward walks each flat branch down to its first parameterised
        layer, which is asked for no input gradient; the layers before it
        get no call. Every trunk layer passes its input gradient on."""
        assert not hasattr(Sequential, "backward") and not hasattr(SsfInput, "backward")
        if head == "fusion":
            cfg = FusionConfig(4, 2, global_width=8, semantic_width=12, fc3_width=8)
            model = build_fusion_classifier(cfg, "nn", FeatureSubset(), 4,
                                            np.random.default_rng(2), hidden=(8, 12))
        else:
            model = TestForwardOnlyCallsKeepNothing.make(head)
        branch = dict(item for b in model.branches for item in b.layers.layers)
        calls = {}
        for _, layer in [*branch.items(), *model.trunk.layers]:
            assert not isinstance(layer, Sequential)
            if hasattr(layer, "backward"):
                def spy(grad, real=layer.backward, key=id(layer), **kwargs):
                    calls.setdefault(key, []).append(kwargs.get("input_grad", True))
                    return real(grad, **kwargs)
                layer.backward = spy
        data = toy_dataset(global_width=4 if head == "fusion" else None)
        g = None if data.global_vecs is None else data.global_vecs[:5]
        model.backward(model.forward(data.ssf[:5], g))
        assert first | skipped <= set(branch)
        want = {id(layer): [True] for _, layer in model.trunk.layers}
        want.update({id(layer): [name not in first] for name, layer in branch.items()
                     if name not in skipped})
        assert calls == want


class TestTwoStepProtocol:
    def test_step2_loads_and_freezes_step1_weights(self):
        data = toy_dataset(global_width=4)
        cfg = FusionConfig(4, 2, global_width=8, semantic_width=12, fc3_width=8)

        step1_model = build_global_classifier(cfg, np.random.default_rng(1))
        plan1 = TrainPlan("step1_global", epochs=5, batch_size=8,
                          learning_rate=0.01, weight_decay=0.0, seed=0)
        step1_ckpt, _ = train(plan1, data, step1_model)

        fusion = build_fusion_classifier(cfg, "nn", FeatureSubset(), 4,
                                         np.random.default_rng(2), hidden=(8, 12),
                                         base=step1_ckpt)
        for name in fusion.global_param_names():
            np.testing.assert_array_equal(dict(fusion.parameters())[name].data,
                                          step1_ckpt.params[name])

        before = step1_ckpt.block_hashes()
        plan2 = TrainPlan("step2_fusion", epochs=5, batch_size=8, learning_rate=0.01,
                          weight_decay=0.0, seed=0, frozen=fusion.global_param_names())
        step2_ckpt, _ = train(plan2, data, fusion)
        after = step2_ckpt.block_hashes()

        for name in fusion.global_param_names():
            assert after[name] == before[name], f"{name} changed during step 2"
        trained = [n for n in after if n not in fusion.global_param_names()]
        live = Checkpoint({}, fusion.state_arrays()).block_hashes()
        assert all(after[n] == live[n] for n in trained)
        # and the trainable blocks did move away from their initial values
        fresh = build_fusion_classifier(cfg, "nn", FeatureSubset(), 4,
                                        np.random.default_rng(2), hidden=(8, 12),
                                        base=step1_ckpt)
        fresh_state = Checkpoint({}, fresh.state_arrays()).block_hashes()
        assert any(after[n] != fresh_state[n] for n in trained)

    def test_step2_computes_no_gradient_for_the_frozen_branch(self):
        data = toy_dataset(global_width=4)
        cfg = FusionConfig(4, 2, global_width=8, semantic_width=12, fc3_width=8)
        plan1 = TrainPlan("step1_global", epochs=1, batch_size=8,
                          learning_rate=0.01, weight_decay=0.0, seed=0)
        step1_ckpt, _ = train(plan1, data, build_global_classifier(cfg, np.random.default_rng(1)))
        fusion = build_fusion_classifier(cfg, "nn", FeatureSubset(), 4,
                                         np.random.default_rng(2), hidden=(8, 12),
                                         base=step1_ckpt)
        frozen = fusion.global_param_names()
        seen = []
        real_backward = fusion.backward

        def recording_backward(grad, *args):
            real_backward(grad, *args)
            seen.append({name: t.grad is None for name, t in fusion.parameters()})

        fusion.backward = recording_backward
        plan2 = TrainPlan("step2_fusion", epochs=1, batch_size=len(data.train_idx),
                          learning_rate=0.01, weight_decay=0.0, seed=0, frozen=frozen)
        step2_ckpt, _ = train(plan2, data, fusion)

        assert len(seen) == 1
        assert frozen == ("global_fc1.weight", "global_fc1.bias")
        assert all(seen[0][name] for name in frozen)
        assert not any(is_none for name, is_none in seen[0].items() if name not in frozen)
        before, after = step1_ckpt.block_hashes(), step2_ckpt.block_hashes()
        assert all(after[name] == before[name] for name in frozen)

    def test_base_checkpoint_must_be_global_model(self):
        cfg = FusionConfig(4, 2, global_width=8, semantic_width=12, fc3_width=8)
        bad = Checkpoint({"model": "semantic"}, {})
        with pytest.raises(CheckpointError, match="step-1 global checkpoint"):
            build_fusion_classifier(cfg, "nn", FeatureSubset(), 4,
                                    np.random.default_rng(0), hidden=(8, 12), base=bad)

    def test_base_checkpoint_width_mismatch(self):
        cfg = FusionConfig(4, 2, global_width=8, semantic_width=12, fc3_width=8)
        other = build_global_classifier(FusionConfig(4, 2, global_width=16),
                                        np.random.default_rng(0))
        bad = Checkpoint(other.descriptor(), other.state_arrays())
        with pytest.raises(CheckpointError, match="global_width"):
            build_fusion_classifier(cfg, "nn", FeatureSubset(), 4,
                                    np.random.default_rng(0), hidden=(8, 12), base=bad)

    @pytest.mark.parametrize("edit,match", [
        (lambda p: (p.pop("classifier.weight"), p.pop("classifier.bias")), "classifier.bias"),
        (lambda p: p.update({"rogue.weight": np.zeros(3)}), "rogue.weight"),
        (lambda p: p.update({"global_fc1.bias": np.zeros(9)}), "shape"),
    ], ids=["no-classifier", "extra-block", "wrong-shape"])
    def test_base_checkpoint_blocks_must_match_the_global_model(self, edit, match):
        cfg = FusionConfig(4, 2, global_width=8, semantic_width=12, fc3_width=8)
        step1 = build_global_classifier(cfg, np.random.default_rng(0))
        params = step1.state_arrays()
        edit(params)
        with pytest.raises(CheckpointError, match=match):
            build_fusion_classifier(cfg, "nn", FeatureSubset(), 4, np.random.default_rng(0),
                                    hidden=(8, 12), base=Checkpoint(step1.descriptor(), params))

    def test_base_weights_are_copied_and_leave_the_other_draws_alone(self):
        cfg = FusionConfig(4, 2, global_width=8, semantic_width=12, fc3_width=8)
        base = build_global_classifier(cfg, np.random.default_rng(1))
        ckpt = Checkpoint(base.descriptor(), base.state_arrays())
        fusion = dict(build_fusion_classifier(cfg, "nn", FeatureSubset(), 4,
                                              np.random.default_rng(2), hidden=(8, 12),
                                              base=ckpt).parameters())
        fresh = dict(build_fusion_classifier(cfg, "nn", FeatureSubset(), 4,
                                             np.random.default_rng(2),
                                             hidden=(8, 12)).parameters())
        for name, tensor in fusion.items():
            if name.startswith("global_fc1."):
                np.testing.assert_array_equal(tensor.data, ckpt.params[name])
                assert not np.shares_memory(tensor.data, ckpt.params[name]), name
            else:
                np.testing.assert_array_equal(tensor.data, fresh[name].data)

    def test_fusion_improves_on_either_branch_for_complementary_data(self):
        # labels = 2*a + b where the mask encodes a and the global vector b:
        # either branch alone caps at 50%, together they separate all 4 classes
        rng = np.random.default_rng(10)
        n = 160
        a = np.repeat([0, 1], n // 2)
        b = np.tile([0, 1], n // 2)
        labels = 2 * a + b
        ssf = rng.uniform(0, 0.1, size=(n, 4, 5)) + a[:, None, None] * 0.6
        g = 0.05 * rng.standard_normal((n, 6))
        g[np.arange(n), b] += 1.2
        order = rng.permutation(n)
        data = LoadedDataset(ssf=ssf, labels=labels, train_idx=order[:112],
                             test_idx=order[112:], num_classes=4, num_categories=4,
                             global_vecs=g)

        cfg = FusionConfig(6, 4, global_width=8, semantic_width=12, fc3_width=8)
        plan1 = TrainPlan("step1_global", epochs=40, batch_size=16,
                          learning_rate=0.01, weight_decay=0.0, seed=0)
        gm = build_global_classifier(cfg, np.random.default_rng(11))
        ck1, m1 = train(plan1, data, gm)
        sm = build_semantic_classifier("nn", FeatureSubset(), 4, 4,
                                       np.random.default_rng(12), hidden=(8, 12))
        plan_s = TrainPlan("semantic_only", epochs=40, batch_size=16,
                           learning_rate=0.01, weight_decay=0.0, seed=0)
        _, ms = train(plan_s, data, sm)

        fusion = build_fusion_classifier(cfg, "nn", FeatureSubset(), 4,
                                         np.random.default_rng(13), hidden=(8, 12),
                                         base=ck1)
        plan2 = TrainPlan("step2_fusion", epochs=40, batch_size=16, learning_rate=0.01,
                          weight_decay=0.0, seed=0, frozen=fusion.global_param_names())
        _, mf = train(plan2, data, fusion)

        acc = lambda mm: mm[-1]["accuracy"]
        assert acc(mf) > acc(m1)
        assert acc(mf) > acc(ms)
        assert acc(m1) <= 0.65 and acc(ms) <= 0.65  # single branches cap near 50%


class TestStepBuffers:
    """``train`` reuses its large per-step arrays and frees them when it ends."""

    def plan(self, stage="semantic_only", **overrides):
        defaults = dict(stage=stage, epochs=2, batch_size=8, learning_rate=0.01,
                        weight_decay=5e-4, seed=0)
        defaults.update(overrides)
        return TrainPlan(**defaults)

    @staticmethod
    def sha256(ckpt, path):
        save_checkpoint(ckpt, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("head", ["cnn", "nn", "pc1d", "step2"])
    def test_dirty_buffers_do_not_change_the_trained_checkpoint(self, head, tmp_path):
        data = toy_dataset(global_width=4 if head == "step2" else None)
        cfg = FusionConfig(4, 2, global_width=8, semantic_width=12, fc3_width=8)
        plan = self.plan()
        if head == "step2":
            base, _ = train(self.plan("step1_global"), data,
                            build_global_classifier(cfg, np.random.default_rng(1)))

        def make():
            rng = np.random.default_rng(5)
            if head == "step2":
                return build_fusion_classifier(cfg, "cnn", FeatureSubset(), 4, rng,
                                               head_width=12, base=base)
            if head == "pc1d":
                return build_semantic_classifier("pc1d", FeatureSubset.parse("pc"), 4, 2, rng,
                                                 pc_channels=(3, 4), head_width=12)
            return build_semantic_classifier(head, FeatureSubset(), 4, 2, rng,
                                             hidden=(8, 12), head_width=12)

        if head == "step2":
            plan = self.plan("step2_fusion", frozen=make().global_param_names())
        fresh_ckpt, _ = train(plan, data, make())

        model = make()
        init = model.state_arrays()
        # Fill the gradient arrays, conv workspaces and forward caches from
        # other data and batch sizes, then put the initial weights back.
        rng = np.random.default_rng(9)
        for batch in (13, 5):
            ssf = rng.uniform(-1, 1, size=(batch, 4, 5))
            g = rng.standard_normal((batch, 4)) if head == "step2" else None
            model.backward(model.forward(ssf, g))
        model.forward(rng.uniform(size=(3, 4, 5)), rng.standard_normal((3, 4)))
        model.load_arrays(init)
        dirty_ckpt, _ = train(plan, data, model)

        assert (self.sha256(dirty_ckpt, tmp_path / "dirty.ssfc")
                == self.sha256(fresh_ckpt, tmp_path / "fresh.ssfc"))

    @staticmethod
    def cnn_l8():
        """A cnn model at L=8, whose fc weight gradient (21 MB) dwarfs everything
        else a step allocates, and a dataset of five batches of 8."""
        model = build_semantic_classifier("cnn", FeatureSubset(), 8, 2, np.random.default_rng(0))
        return model, toy_dataset(n_per_class=24, L=8)

    def test_a_train_step_allocates_no_large_array(self, monkeypatch):
        model, data = self.cnn_l8()
        fc_grad_bytes = dict(model.parameters())["head.fc.weight"].data.nbytes
        peaks = []
        base = None
        real_step = Adam.step

        def measuring_step(opt):
            # The peak since the previous step's update: one whole step.
            nonlocal base
            real_step(opt)
            current, peak = tracemalloc.get_traced_memory()
            if base is not None:
                peaks.append(peak - base)
            tracemalloc.reset_peak()
            base = current

        monkeypatch.setattr(Adam, "step", measuring_step)
        tracemalloc.start()
        try:
            train(self.plan(epochs=1), data, model)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 4
        assert max(peaks) < fc_grad_bytes / 2, (peaks, fc_grad_bytes)

    def test_train_releases_step_buffers_and_optimizer_state(self):
        model, data = self.cnn_l8()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ckpt, _ = train(self.plan(epochs=1), data, model)
            del ckpt
            kept = tracemalloc.get_traced_memory()[0] - before
            # A run that fails keeps nothing either, though its traceback,
            # and with it the frame of train(), is still alive.
            with np.errstate(all="ignore"), pytest.raises(ArithmeticError,
                                                          match="diverged") as failed:
                train(self.plan(learning_rate=1e200, weight_decay=0.0), data, model)
            kept_after_failure = tracemalloc.get_traced_memory()[0] - before
            assert failed.tb is not None
        finally:
            tracemalloc.stop()
        assert kept < 2**20, kept
        assert kept_after_failure < 2**20, kept_after_failure
        for name, t in model.parameters():
            assert t.grad is None, name


def held_buffers(model):
    """What the model still holds for a backward pass: each layer's forward
    cache and conv workspace, and each parameter's gradient array."""
    held = []
    for seq in [b.layers for b in model.branches] + [model.trunk]:
        for name, layer in seq.layers:
            if layer._cache is not None:
                held.append(f"{name} cache")
            if getattr(layer, "_workspace", None) is not None:
                held.append(f"{name} workspace")
    return held + [f"{name} gradient" for name, t in model.parameters()
                   if t.grad is not None]


class TestForwardOnlyCallsKeepNothing:
    """``evaluate``, ``predict`` and ``measure_complexity`` run no backward
    pass, so they leave no training state in the model."""

    @staticmethod
    def make(head):
        rng = np.random.default_rng(2)
        if head == "fusion":
            cfg = FusionConfig(4, 2, global_width=8, semantic_width=12, fc3_width=8)
            return build_fusion_classifier(cfg, "cnn", FeatureSubset(), 4, rng, head_width=12)
        if head == "pc1d":
            return build_semantic_classifier("pc1d", FeatureSubset.parse("pc"), 4, 2, rng,
                                             pc_channels=(3, 4), head_width=12)
        return build_semantic_classifier(head, FeatureSubset(), 4, 2, rng,
                                         hidden=(8, 12), head_width=12)

    @pytest.mark.parametrize("call", ["evaluate", "predict", "measure_complexity"])
    @pytest.mark.parametrize("head", ["cnn", "nn", "pc1d", "fusion"])
    def test_buffers_are_released(self, head, call):
        data = toy_dataset(global_width=4 if head == "fusion" else None)
        model = self.make(head)
        g = data.global_vecs
        # Leave gradient arrays, then forward caches and conv workspaces.
        model.backward(model.forward(data.ssf[:5], None if g is None else g[:5]))
        model.forward(data.ssf[:3], None if g is None else g[:3])
        assert any("cache" in h for h in held_buffers(model))
        assert any("gradient" in h for h in held_buffers(model))
        if call == "evaluate":
            evaluate(model, data, "test")
        elif call == "predict":
            predict(model, data.ssf[0], None if g is None else g[0])
        else:
            measure_complexity(model, iterations=1000, warmup=1)
        assert held_buffers(model) == []

    def test_evaluate_peaks_at_one_batch_of_conv_workspace(self):
        # 96 test samples: three batches at the training batch size.
        data = toy_dataset(n_per_class=160, L=8)
        model = build_semantic_classifier("cnn", FeatureSubset(), 8, 2, np.random.default_rng(0))
        assert len(data.test_idx) == 3 * BATCH_SIZE
        # The im2col matrices of one batch: B*L*k rows of 9*C_in columns per conv.
        workspace = sum(BATCH_SIZE * 8 * 5 * 9 * c * 8 for c in (1,) + CNN_CHANNELS[:2])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = evaluate(model, data, "test")
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.total == 96
        assert current - before < 2**20, current - before
        assert peak - before < 2 * workspace, (peak - before, workspace)


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(data_module.os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def helpers_started(monkeypatch):
    """Every thread Adam starts while the test runs."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(optim_module.threading, "Thread", Recorded)
    return started


class TestAdamHelper:
    """On two CPUs, ``train`` runs Adam's updates on a helper thread during
    backward as well; the parameters get the same bits as on one CPU, and
    the helper never outlives the call."""

    plan = TestStepBuffers.plan

    @staticmethod
    def build(head, base=None):
        """A model whose largest parameter spans several Adam blocks."""
        rng = np.random.default_rng(5)
        cfg = FusionConfig(1200, 2, global_width=64, semantic_width=64, fc3_width=16)
        if head == "step1":
            return build_global_classifier(cfg, rng)
        if head == "step2":
            return build_fusion_classifier(cfg, "nn", FeatureSubset(), 8, rng,
                                           hidden=(2000, 64), base=base)
        if head == "pc1d":
            return build_semantic_classifier("pc1d", FeatureSubset.parse("pc"), 8, 2, rng,
                                             pc_channels=(8, 16), head_width=600)
        return build_semantic_classifier(head, FeatureSubset(), 8, 2, rng,
                                         hidden=(2000, 64), head_width=64)

    @pytest.mark.parametrize("head", ["cnn", "nn", "pc1d", "step1", "step2"])
    def test_two_cpus_give_the_bytes_of_one(self, head, monkeypatch, helpers_started):
        data = toy_dataset(L=8, global_width=1200)
        base = None
        if head == "step2":
            usable_cpus(monkeypatch, 1)
            base, _ = train(self.plan("step1_global"), data, self.build("step1"))
        stage = {"step1": "step1_global", "step2": "step2_fusion"}.get(head, "semantic_only")
        frozen = self.build(head, base).global_param_names() if head == "step2" else ()
        assert max(t.size for _, t in self.build(head).parameters()) > 2 * BLOCK
        states = {}
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            del helpers_started[:]
            model = self.build(head, base)
            ckpt, _ = train(self.plan(stage, frozen=frozen), data, model)
            assert len(helpers_started) == cpus - 1
            assert not any(t.is_alive() for t in helpers_started)
            states[cpus] = {name: arr.tobytes() for name, arr in model.state_arrays().items()}
            if base is not None:
                before, after = base.block_hashes(), ckpt.block_hashes()
                assert all(after[name] == before[name] for name in frozen)
        assert states[1] == states[2]

    @pytest.mark.parametrize("error", [KeyboardInterrupt, ArithmeticError])
    def test_error_in_backward_mid_step_joins_the_helper(self, error, monkeypatch,
                                                         helpers_started):
        usable_cpus(monkeypatch, 2)
        data = toy_dataset(L=8)
        model = self.build("cnn")
        layers = dict(model.branches[0].layers.layers)
        handed = []
        real_ready = Adam.ready
        monkeypatch.setattr(Adam, "ready", lambda opt, t: (handed.append(t), real_ready(opt, t)))
        calls = []
        real_backward = layers["head.conv2"].backward

        def failing_backward(grad, **kwargs):
            calls.append(len(handed))
            if len(calls) == 2:
                raise error("raised mid-step")
            return real_backward(grad, **kwargs)

        layers["head.conv2"].backward = failing_backward
        before = threading.active_count()
        with pytest.raises(error, match="raised mid-step"):
            train(self.plan(), data, model)
        # Each step hands over the classifier's, fc's and conv3's six parameters
        # before conv2's backward; the second step failed there.
        assert calls == [6, 16]
        assert threading.active_count() == before
        assert len(helpers_started) == 1 and not helpers_started[0].is_alive()
        assert all(t.grad is None for _, t in model.parameters())

    def test_error_on_the_helper_is_raised_by_train(self, monkeypatch, helpers_started):
        usable_cpus(monkeypatch, 2)
        data = toy_dataset(L=8)
        model = self.build("cnn")
        fc = dict(model.parameters())["head.fc.weight"]
        fc.data = np.asfortranarray(fc.data)
        before = threading.active_count()
        with pytest.raises(ValidationError, match="parameter 'head.fc.weight': Adam updates "
                                                  "C-contiguous arrays in place"):
            train(self.plan(), data, model)
        assert threading.active_count() == before
        assert len(helpers_started) == 1 and not helpers_started[0].is_alive()


def model_layers(model):
    """Every layer of the model, named ``branch/layer`` or ``trunk/layer``."""
    chains = [(b.name, b.layers) for b in model.branches] + [("trunk", model.trunk)]
    return [(f"{owner}/{name}", layer) for owner, seq in chains for name, layer in seq.layers]


class TestFrozenBranchRunsOnce:
    """``train`` runs a wholly frozen branch once over every sample before the
    first step; the steps and test passes read its output rows, with the bits
    of running it in each of them."""

    plan = TestStepBuffers.plan

    @staticmethod
    def step2(head, data, frozen_width=64):
        """A step-1 checkpoint trained on ``data``, and a fusion model built on it."""
        cfg = FusionConfig(data.global_vecs.shape[1], 2, global_width=frozen_width,
                           semantic_width=16, fc3_width=8)
        base, _ = train(TestStepBuffers().plan("step1_global"), data,
                        build_global_classifier(cfg, np.random.default_rng(1)))
        model = build_fusion_classifier(cfg, head, FeatureSubset(), data.num_categories,
                                        np.random.default_rng(5), hidden=(24, 16),
                                        head_width=16, base=base)
        return base, model

    @staticmethod
    def reference_train(plan, data, model):
        """``train``'s step loop with the frozen branch run in every step and
        test pass by the full ``model.forward``. Returns the train and test
        losses of each epoch."""
        frozen = set(plan.frozen)
        opt = Adam([(n, t) for n, t in model.parameters() if n not in frozen],
                   learning_rate=plan.learning_rate, weight_decay=plan.weight_decay)
        losses = []
        for epoch in range(plan.epochs):
            total = 0.0
            for sel in shuffled_batches(data.train_idx, plan.batch_size, plan.seed, epoch):
                loss, grad = softmax_cross_entropy(
                    model.forward(data.ssf[sel], data.global_vecs[sel]), data.labels[sel])
                model.backward(grad, frozen, opt.ready)
                opt.step()
                total += loss * len(sel)
            losses += [total / len(data.train_idx),
                       score_split(model, data, data.test_idx, plan.batch_size)[0]]
        opt.close()
        model.release()
        return losses

    @pytest.mark.parametrize("head", ["cnn", "nn"])
    def test_steps_get_the_bits_of_a_forward_per_step(self, head, monkeypatch):
        # 28 train samples make a short last step of 4; the 40 rows of the
        # precomputed branch are five full batches of 8.
        data = toy_dataset(L=8, global_width=1200)
        base, model = self.step2(head, data)
        frozen = model.global_param_names()
        plan = self.plan("step2_fusion", epochs=3, frozen=frozen)
        losses = self.reference_train(plan, data, model)
        expected = {name: arr.tobytes() for name, arr in model.state_arrays().items()}
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            _, model = self.step2(head, data)
            ckpt, metrics = train(plan, data, model)
            assert {name: arr.tobytes() for name, arr in model.state_arrays().items()} == expected
            assert [m["loss"] for m in metrics] == losses
            before, after = base.block_hashes(), ckpt.block_hashes()
            assert all(after[name] == before[name] for name in frozen)

    def test_the_frozen_layer_sees_each_sample_once_before_any_step(self):
        data = toy_dataset(L=4, global_width=12)
        _, model = self.step2("nn", data)
        log, rows = [], []
        fc1 = dict(model.branches[0].layers.layers)["global_fc1"]
        real_fc1, real_forward = fc1.forward, model.forward

        def fc1_forward(x):
            log.append("global_fc1")
            rows.append(x.copy())
            return real_fc1(x)

        def forward(*args):
            log.append("model")
            return real_forward(*args)

        fc1.forward, model.forward = fc1_forward, forward
        plan = self.plan("step2_fusion", frozen=model.global_param_names())
        train(plan, data, model)
        assert log == ["global_fc1"] * 5 + ["model"] * (2 * (4 + 2))
        assert all(len(x) <= plan.batch_size for x in rows)
        np.testing.assert_array_equal(np.concatenate(rows), data.global_vecs)

    @pytest.mark.parametrize("stage", ["semantic_only", "step1_global", "step2_fusion"])
    def test_layer_forward_calls(self, stage):
        # 28 train and 12 test samples: 4 + 2 batches of 8 per epoch; the
        # precomputed branch reads the 40 samples in 5 batches.
        data = toy_dataset(L=4, global_width=12)
        frozen = ()
        if stage == "semantic_only":
            model = build_semantic_classifier("cnn", FeatureSubset(), 4, 2,
                                              np.random.default_rng(0), head_width=12)
        elif stage == "step1_global":
            model = build_global_classifier(FusionConfig(12, 2, global_width=8),
                                            np.random.default_rng(0))
        else:
            _, model = self.step2("cnn", data)
            frozen = model.global_param_names()
        calls = {}
        for name, layer in model_layers(model):
            def counted(x, name=name, real=layer.forward):
                calls[name] = calls.get(name, 0) + 1
                return real(x)
            layer.forward = counted
        train(self.plan(stage, frozen=frozen), data, model)
        expected = {name: 2 * (4 + 2) for name, _ in model_layers(model)}
        if stage == "step2_fusion":
            expected.update({"global_fc1/global_fc1": 5, "global_fc1/relu": 5})
        assert calls == expected

    @pytest.mark.parametrize("error", [None, KeyboardInterrupt, ArithmeticError])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_model_is_put_back_on_every_exit(self, error, cpus, monkeypatch, helpers_started):
        usable_cpus(monkeypatch, cpus)
        data = toy_dataset(L=4, global_width=12)
        _, model = self.step2("cnn", data)
        del helpers_started[:]
        branches = [(b, b.layers) for b in model.branches]
        conv2 = dict(model.branches[1].layers.layers)["head.conv2"]
        real_backward, calls = conv2.backward, []

        def backward(grad, **kwargs):
            calls.append(1)
            if len(calls) == 2 and error is not None:
                raise error("raised mid-step")
            return real_backward(grad, **kwargs)

        conv2.backward = backward
        before = threading.active_count()
        plan = self.plan("step2_fusion", frozen=model.global_param_names())
        if error is None:
            train(plan, data, model)
        else:
            with pytest.raises(error, match="raised mid-step"):
                train(plan, data, model)
        assert [(b, b.layers) for b in model.branches] == branches
        assert held_buffers(model) == []
        assert threading.active_count() == before
        assert len(helpers_started) == cpus - 1
        # The model forwards through its frozen branch again.
        g = np.zeros((1, 12))
        model.forward(data.ssf[:1], g)
        assert dict(model.branches[0].layers.layers)["global_fc1"]._cache is not None
        model.release()

    def test_precomputed_branch_peaks_at_its_output_and_one_batch(self):
        # 2000 samples: the frozen branch's output is 4 MB, a batch's 64 kB.
        data = toy_dataset(n_per_class=1000, L=2, global_width=64)
        _, model = self.step2("nn", data, frozen_width=256)
        output = 2000 * 256 * 8
        plan = self.plan("step2_fusion", epochs=1, batch_size=BATCH_SIZE,
                         frozen=model.global_param_names())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train(plan, data, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert output < peak - before < output * 5 // 4, (peak - before, output)
