"""Acceptance gate: one test per agreed criterion, one verdict line each.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with ``-s`` or
on failure) and enforces its stated tolerance and runtime budget. The slow
desk-scale trainings use lr=1e-3; the library defaults stay at 1e-4.
"""
import json
import time

import numpy as np
import pytest

from ssfx.cli import main as cli_main
from ssfx.data import (
    benchmark_spec,
    generate_synthetic,
    load_dataset,
    load_manifest,
    split_information_spec,
)
from ssfx.evaluation import evaluate, extraction_benchmark, measure_complexity
from ssfx.features import extract_ssf
from ssfx.mask import SegmentationMask
from ssfx.models import (
    FeatureSubset,
    FusionConfig,
    TrainPlan,
    build_fusion_classifier,
    build_global_classifier,
    build_semantic_classifier,
    train,
)
from ssfx.nn import Conv1D, Conv2D, CorruptedGradients, Dense, Flatten, ReLU, grad_check

from oracles import naive_ssf, random_mask_grid

FULL = FeatureSubset.parse("pc,ap,sd")


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def benchmark_data(tmp_path_factory):
    """Seeded 6-class set, 100 samples/class, 70/30 split, noise 0.1."""
    out = tmp_path_factory.mktemp("benchmark")
    manifest = generate_synthetic(benchmark_spec(), out)
    return load_dataset(load_manifest(manifest))


@pytest.fixture(scope="module")
def splitinfo_data(tmp_path_factory):
    """Variant where class identity needs both the mask and the global vector."""
    out = tmp_path_factory.mktemp("splitinfo")
    manifest = generate_synthetic(split_information_spec(), out)
    return load_dataset(load_manifest(manifest))


def test_extraction_matches_naive_oracle_on_random_masks():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        L = int(rng.integers(1, 41))
        h = int(rng.integers(1, 65))
        w = int(rng.integers(1, 65))
        grid = random_mask_grid(rng, L, h, w, void_fraction=float(rng.uniform(0.0, 0.3)))
        fast = extract_ssf(SegmentationMask(grid, L, void_value=0)).values
        slow = naive_ssf(grid, L, void_value=0)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    elapsed = time.perf_counter() - start
    verdict("oracle equivalence", worst < 1e-9 and elapsed < 10.0,
            f"200 random masks, worst |diff| {worst:.3e} (tol 1e-9), {elapsed:.2f}s (< 10s)")


def test_closed_form_uniform_and_all_void_masks():
    start = time.perf_counter()
    uniform = extract_ssf(SegmentationMask(np.ones((224, 224), dtype=np.uint8), 1)).values
    expected = np.array([1.0, 225.0 / 448.0, 225.0 / 448.0,
                         np.sqrt((224.0 ** 2 - 1.0) / 12.0) / 224.0,
                         np.sqrt((224.0 ** 2 - 1.0) / 12.0) / 224.0])
    uniform_err = float(np.max(np.abs(uniform[0] - expected)))

    void = extract_ssf(SegmentationMask(np.zeros((224, 224), dtype=np.uint8), 6)).values
    void_ok = bool(np.array_equal(void, np.zeros((6, 5))))
    elapsed = time.perf_counter() - start
    verdict("closed-form masks", uniform_err <= 1e-12 and void_ok and elapsed < 1.0,
            f"uniform max err {uniform_err:.3e} (tol 1e-12), all-void zero matrix "
            f"{'ok' if void_ok else 'WRONG'}, {elapsed:.2f}s (< 1s)")


def _layer_gradients_ok(layer, x: np.ndarray, step: float = 1e-6,
                        tol: float = 1e-4) -> float:
    """Finite-difference check of one layer under the loss 0.5*sum(y^2).

    Returns the worst relative error over the input gradient and every
    parameter block, with each block compared by vector norm:
    ||a - n|| / max(1e-8, ||a|| + ||n||).
    """
    def loss() -> float:
        y = layer.forward(x)
        return 0.5 * float(np.sum(y * y))

    y = layer.forward(x)
    grad_in = layer.backward(y.copy())
    targets = [(x, grad_in)] + [(t.data, t.grad) for _, t in layer.params()]

    worst = 0.0
    for array, analytic in targets:
        flat = array.ravel()
        numeric = np.zeros(flat.size)
        for idx in range(flat.size):
            saved = flat[idx]
            flat[idx] = saved + step
            up = loss()
            flat[idx] = saved - step
            down = loss()
            flat[idx] = saved
            numeric[idx] = (up - down) / (2.0 * step)
        a = np.asarray(analytic, dtype=np.float64).ravel()
        rel = float(np.linalg.norm(a - numeric)) / max(
            1e-8, float(np.linalg.norm(a)) + float(np.linalg.norm(numeric)))
        worst = max(worst, rel)
    return worst


def test_gradient_suite_layers_heads_and_negative_control():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    tol = 1e-4

    # Every layer kind, parameters and inputs alike. ReLU inputs are kept
    # away from the kink so central differences stay valid.
    away = lambda shape: np.where(rng.standard_normal(shape) < 0, -1.0, 1.0) \
        * rng.uniform(0.05, 1.0, shape)
    layer_errs = {
        "dense": _layer_gradients_ok(Dense(4, 3, rng=rng), away((2, 4))),
        "conv1d": _layer_gradients_ok(Conv1D(2, 3, rng=rng), away((2, 2, 5))),
        "conv2d": _layer_gradients_ok(Conv2D(2, 3, rng=rng), away((2, 2, 4, 3))),
        "relu": _layer_gradients_ok(ReLU(), away((3, 4))),
        "flatten": _layer_gradients_ok(Flatten(), away((2, 3, 4))),
    }

    # Both full-size SSF heads, sampled per block (they exceed the
    # exhaustive-check limit), against softmax cross-entropy.
    check_rng = np.random.default_rng(1)
    ssf = check_rng.uniform(0.0, 1.0, (2, 40, 5))
    labels = np.array([0, 5])
    head_reports = {}
    for kind in ("nn", "cnn"):
        model = build_semantic_classifier(kind, FULL, 40, 7, np.random.default_rng(3))
        report = grad_check(model, ssf, None, labels, tolerance=tol,
                            sample_per_block=16, rng=np.random.default_rng(4))
        head_reports[kind] = report

    # Negative control: a deliberately corrupted block must be caught.
    bad = CorruptedGradients(
        build_semantic_classifier("nn", FULL, 8, 3, np.random.default_rng(5)),
        "head.fc1.weight")
    control = grad_check(bad, check_rng.uniform(0.0, 1.0, (2, 8, 5)), None,
                         np.array([0, 2]), tolerance=tol,
                         sample_per_block=16, rng=np.random.default_rng(6))

    elapsed = time.perf_counter() - start
    worst_layer = max(layer_errs.values())
    ok = (worst_layer < tol
          and all(r.passed for r in head_reports.values())
          and not control.passed
          and elapsed < 120.0)
    verdict("gradient suite", ok,
            f"layers worst rel {worst_layer:.3e}, nn head worst {head_reports['nn'].worst:.3e}, "
            f"cnn head worst {head_reports['cnn'].worst:.3e} (tol 1e-4), negative control "
            f"{'failed as required' if not control.passed else 'WRONGLY PASSED'}, "
            f"{elapsed:.1f}s (< 120s)")


def test_two_step_training_leaves_frozen_bytes_unchanged(splitinfo_data):
    start = time.perf_counter()
    data = splitinfo_data
    cfg = FusionConfig(global_input_width=data.global_vecs.shape[1],
                       num_classes=data.num_classes)

    step1 = build_global_classifier(cfg, np.random.default_rng(0))
    ck1, _ = train(TrainPlan(stage="step1_global", epochs=3, learning_rate=1e-3, seed=0),
                   data, step1)

    fusion = build_fusion_classifier(cfg, "nn", FULL, data.num_categories,
                                     np.random.default_rng(1), base=ck1)
    ck2, _ = train(TrainPlan(stage="step2_fusion", epochs=3, learning_rate=1e-3, seed=1,
                             frozen=fusion.global_param_names()),
                   data, fusion)

    h1, h2 = ck1.block_hashes(), ck2.block_hashes()
    frozen_names = sorted(fusion.global_param_names())
    unchanged = all(h1[name] == h2[name] for name in frozen_names)
    elapsed = time.perf_counter() - start
    verdict("two-step freezing", unchanged and elapsed < 60.0,
            f"hash equality on {frozen_names} after step-2 training: "
            f"{'unchanged' if unchanged else 'MUTATED'}, {elapsed:.1f}s (< 60s)")


def test_desk_scale_learning_and_fusion_dominance(benchmark_data, splitinfo_data):
    start = time.perf_counter()

    best = {}
    for kind, epochs in (("nn", 40), ("cnn", 30)):
        model = build_semantic_classifier(kind, FULL, benchmark_data.num_categories,
                                          benchmark_data.num_classes,
                                          np.random.default_rng(0))
        _, metrics = train(TrainPlan(stage="semantic_only", epochs=epochs,
                                     learning_rate=1e-3, seed=0),
                           benchmark_data, model)
        best[kind] = max(m["accuracy"] for m in metrics if m["split"] == "test")

    data = splitinfo_data
    cfg = FusionConfig(global_input_width=data.global_vecs.shape[1],
                       num_classes=data.num_classes)
    plan = dict(epochs=40, learning_rate=1e-3)

    semantic = build_semantic_classifier("nn", FULL, data.num_categories,
                                         data.num_classes, np.random.default_rng(0))
    train(TrainPlan(stage="semantic_only", seed=0, **plan), data, semantic)
    semantic_acc = evaluate(semantic, data, "test").accuracy

    global_model = build_global_classifier(cfg, np.random.default_rng(0))
    ck1, _ = train(TrainPlan(stage="step1_global", seed=0, **plan), data, global_model)
    global_acc = evaluate(global_model, data, "test").accuracy

    fusion = build_fusion_classifier(cfg, "nn", FULL, data.num_categories,
                                     np.random.default_rng(1), base=ck1)
    train(TrainPlan(stage="step2_fusion", seed=1, frozen=fusion.global_param_names(),
                    **plan), data, fusion)
    fused_acc = evaluate(fusion, data, "test").accuracy

    elapsed = time.perf_counter() - start
    ok = (best["nn"] >= 0.95 and best["cnn"] >= 0.95
          and fused_acc > semantic_acc and fused_acc > global_acc
          and elapsed < 600.0)
    verdict("desk-scale learning", ok,
            f"best test acc nn {best['nn']:.4f}, cnn {best['cnn']:.4f} (floor 0.95, "
            f"within 200 epochs); fused {fused_acc:.4f} > semantic {semantic_acc:.4f} "
            f"and > global {global_acc:.4f}; {elapsed:.0f}s (< 600s)")


def test_ablation_grid_has_14_configs_and_full_features_dominate(tmp_path, capsys):
    data_dir = tmp_path / "dataset"
    assert cli_main(["synth", "--out", str(data_dir), "--samples", "50",
                     "--noise", "0.1", "--seed", "7"]) == 0
    capsys.readouterr()

    start = time.perf_counter()
    out = tmp_path / "grid"
    rc = cli_main(["ablate", "--manifest", str(data_dir / "dataset.manifest"),
                   "--epochs", "20", "--seed", "0", "--out", str(out)])
    elapsed = time.perf_counter() - start
    table_rows = [ln for ln in capsys.readouterr().out.splitlines()
                  if ln and not ln.startswith("features")]

    cells = json.loads((out / "ablation.json").read_text())["cells"]
    singles = [c["accuracy"] for c in cells if c["features"] in ("PC", "AP", "SD")]
    full = [c["accuracy"] for c in cells if c["features"] == "SSFs"]
    ok = (rc == 0 and len(table_rows) == 14 and len(cells) == 14
          and len(full) == 2 and len(singles) == 6
          and all(a is not None for a in singles + full)
          and min(full) >= max(singles) - 0.02)
    verdict("ablation grid", ok,
            f"{len(cells)} configurations (need exactly 14), min full-feature acc "
            f"{min(full):.4f} vs max single-group acc {max(singles):.4f} "
            f"(margin -0.02), {elapsed:.0f}s")


def test_parameter_counts_exact_and_throughput_ordering():
    L, k, C = 40, 5, 6
    nn = build_semantic_classifier("nn", FULL, L, C, np.random.default_rng(0))
    cnn = build_semantic_classifier("cnn", FULL, L, C, np.random.default_rng(0))

    nn_expected = (L * k * 512 + 512) + (512 * 1024 + 1024) + (1024 * C + C)
    cnn_expected = ((1 * 64 * 9 + 64) + (64 * 128 * 9 + 128) + (128 * 64 * 9 + 64)
                    + (64 * L * k * 1024 + 1024) + (1024 * C + C))

    nn_report = measure_complexity(nn)
    cnn_report = measure_complexity(cnn)
    counts_ok = (nn_report.param_count == nn_expected
                 and cnn_report.param_count == cnn_expected)
    ordering_ok = nn_report.throughput_fps > cnn_report.throughput_fps
    verdict("complexity report", counts_ok and ordering_ok,
            f"params nn {nn_report.param_count} (expected {nn_expected}), "
            f"cnn {cnn_report.param_count} (expected {cnn_expected}); throughput "
            f"nn {nn_report.throughput_fps:.0f} fps > cnn {cnn_report.throughput_fps:.0f} fps")


def test_extraction_of_224_mask_under_one_millisecond():
    rng = np.random.default_rng(9)
    mask = SegmentationMask(rng.integers(0, 41, size=(224, 224)).astype(np.uint16), 40)
    median = extraction_benchmark(mask, runs=1000)
    verdict("extraction speed", median < 1e-3,
            f"224x224, L=40: median {median * 1e3:.3f} ms over 1000 runs (< 1 ms)")
