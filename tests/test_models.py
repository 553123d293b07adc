"""Model builders, parameter accounting, checkpointing, and the training loop."""
import numpy as np
import pytest

from ssfx.data import LoadedDataset
from ssfx.features import FeatureSubset
from ssfx.mask import ValidationError
from ssfx.models import (
    FusionConfig,
    PcConv1dConfig,
    SsfCnnConfig,
    SsfNnConfig,
    TrainPlan,
    build_from_descriptor,
    build_fusion_classifier,
    build_global_classifier,
    build_pc_conv1d_head,
    build_semantic_classifier,
    build_ssf_cnn,
    build_ssf_nn,
    fuse_concat,
    load_model,
    param_count,
    predict,
    train,
)
from ssfx.nn import Checkpoint, CheckpointError


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


class TestParameterCounts:
    def test_nn_head_closed_form(self):
        L, k = 40, 5
        rng = np.random.default_rng(0)
        head = build_ssf_nn(SsfNnConfig(L, k), rng)
        expected = (L * k * 512 + 512) + (512 * 1024 + 1024)
        assert sum(t.size for _, t in head.params()) == expected
        assert expected == 628_224

    def test_cnn_head_closed_form(self):
        L, k = 40, 5
        rng = np.random.default_rng(0)
        head = build_ssf_cnn(SsfCnnConfig(L, k), rng)
        by_name = {name: t.size for name, t in head.params()}
        assert by_name["conv1.weight"] + by_name["conv1.bias"] == 64 * 1 * 9 + 64 == 640
        assert by_name["conv2.weight"] + by_name["conv2.bias"] == 128 * 64 * 9 + 128 == 73_856
        assert by_name["conv3.weight"] + by_name["conv3.bias"] == 64 * 128 * 9 + 64 == 73_792
        flat = 64 * L * k
        assert flat == 12_800
        assert by_name["fc.weight"] + by_name["fc.bias"] == flat * 1024 + 1024

    def test_pc1d_head_closed_form(self):
        L = 40
        rng = np.random.default_rng(0)
        head = build_pc_conv1d_head(PcConv1dConfig(L), rng)
        expected = (32 * 1 * 3 + 32) + (64 * 32 * 3 + 64) + (64 * L * 1024 + 1024)
        assert sum(t.size for _, t in head.params()) == expected

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
        head = build_ssf_cnn(SsfCnnConfig(7, 3, head_width=32), rng)
        out = head.forward(rng.standard_normal((2, 1, 7, 3)))
        assert out.shape == (2, 32)

    def test_nn_head_output_width(self):
        rng = np.random.default_rng(1)
        head = build_ssf_nn(SsfNnConfig(7, 5, hidden=(16, 24)), rng)
        assert head.forward(rng.standard_normal((3, 7, 5))).shape == (3, 24)

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
        assert all(set(m) == {"epoch", "split", "loss", "accuracy"} for m in metrics)
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
