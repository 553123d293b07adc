"""Tests of the benchmark's own checks and inputs.

    python3 -m pytest bench/test_checks.py

Each check must pass the program's real output and reject a deliberately
wrong one.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from ssfx.features import extract_ssf  # noqa: E402
from ssfx.mask import SegmentationMask  # noqa: E402
from ssfx.nn import Checkpoint  # noqa: E402

SMALL = inputs.Layout(key=9, height=48, width=64, per_class=4, train_per_class=2)
L = inputs.NUM_CATEGORIES


def extracted(grid):
    return np.array(extract_ssf(SegmentationMask(grid, L, void_value=inputs.VOID)).values)


@pytest.fixture(params=[0, 1], ids=["no-void", "void"])
def grid(request):
    g = inputs.mask_grid(SMALL, seed=5, cls=2, index=request.param)
    assert (np.count_nonzero(g == inputs.VOID) > 0) == bool(request.param)
    return g


def test_features_of_the_program_pass(grid):
    assert checks.feature_errors(extracted(grid), grid, L) == []


def test_oracle_matches_a_hand_computed_mask():
    g = np.array([[1, 1], [2, 1]], dtype=np.uint16)
    want = np.zeros((L, 5))
    # category 1 sits at 1-based (x, y) = (1, 1), (2, 1), (2, 2)
    want[0] = (0.75, (1 + 2 + 2) / 3 / 2, (1 + 1 + 2) / 3 / 2,
               np.sqrt(2 / 9) / 2, np.sqrt(2 / 9) / 2)
    want[1] = (0.25, 0.5, 1.0, 0.0, 0.0)
    np.testing.assert_allclose(checks.oracle_ssf(g, L), want, rtol=0, atol=1e-15)


def only(errors, fragment):
    assert len(errors) == 1 and fragment in errors[0], errors


def test_perturbed_matrix_is_rejected(grid):
    values = extracted(grid)
    values[1, 2] += 1e-6
    only(checks.feature_errors(values, grid, L), "differs from the oracle")


def test_entry_outside_unit_interval_is_rejected():
    g = np.ones((4, 4), dtype=np.uint16)
    g[0, 0] = 2  # one pixel: its spread is exactly 0
    values = extracted(g)
    values[1, 3] = -1e-12
    only(checks.feature_errors(values, g, L), "outside [0, 1]")


def test_nonzero_row_of_absent_category_is_rejected(grid):
    values = extracted(grid)
    absent = int(np.flatnonzero(values[:, 0] == 0)[0])
    values[absent, 4] = 1e-12
    only(checks.feature_errors(values, grid, L), "absent category")


def test_pc_sum_off_one_without_void_is_rejected():
    g = inputs.mask_grid(SMALL, seed=5, cls=2, index=0)
    values = extracted(g)
    values[0, 0] += 1e-12
    only(checks.feature_errors(values, g, L), "without void")


def test_pc_sum_reaching_one_with_void_is_rejected():
    g = inputs.mask_grid(SMALL, seed=5, cls=2, index=1)
    values = extracted(g)
    values[0, 0] += np.count_nonzero(g == inputs.VOID) / g.size
    errors = checks.feature_errors(values, g, L)
    assert any("with" in e and "void pixels" in e for e in errors), errors


def epochs(*train_losses):
    out = []
    for e, loss in enumerate(train_losses):
        out.append({"epoch": e, "split": "train", "loss": loss, "accuracy": 0.5})
        out.append({"epoch": e, "split": "test", "loss": 1.0, "accuracy": 0.5})
    return out


def test_training_checks():
    assert checks.training_errors(epochs(1.8, 1.2, 0.9), 0.9) == []
    only(checks.training_errors(epochs(1.8, 1.2, 0.9), 1 / 6), "three times chance")
    only(checks.training_errors(epochs(1.8, 1.9, 1.8), 0.9), "not below")


def test_logits_must_be_bit_identical():
    logits = np.random.default_rng(0).standard_normal((4, 6))
    assert checks.logits_errors(logits, logits.copy()) == []
    nudged = logits.copy()
    nudged[2, 3] = np.nextafter(nudged[2, 3], np.inf)
    only(checks.logits_errors(logits, nudged), "differ")


def test_modified_frozen_block_is_rejected():
    rng = np.random.default_rng(0)
    params = {"global_fc1.weight": rng.standard_normal((4, 3)), "global_fc1.bias": np.zeros(4),
              "fc3.weight": rng.standard_normal((2, 4))}
    frozen = ("global_fc1.weight", "global_fc1.bias")
    step1 = Checkpoint({}, params).block_hashes()
    trained = dict(params, **{"fc3.weight": params["fc3.weight"] + 1.0})
    assert checks.frozen_errors(step1, Checkpoint({}, trained).block_hashes(), frozen) == []
    weight = params["global_fc1.weight"].copy()
    weight[1, 2] = np.nextafter(weight[1, 2], np.inf)
    moved = dict(trained, **{"global_fc1.weight": weight})
    only(checks.frozen_errors(step1, Checkpoint({}, moved).block_hashes(), frozen),
         "global_fc1.weight")
    only(checks.frozen_errors(step1, step1, ()), "none frozen")


def test_fused_accuracy_must_clear_the_branch_ceiling():
    need = checks.BRANCH_CEILING + checks.FUSION_MARGIN
    assert checks.fusion_errors(need) == []
    only(checks.fusion_errors(checks.BRANCH_CEILING), "below")


def test_inputs_depend_only_on_the_seed(tmp_path):
    layout = inputs.LAYOUTS["train-cnn"]
    a = inputs.mask_grid(layout, seed=3, cls=4, index=5)
    assert np.array_equal(a, inputs.mask_grid(layout, seed=3, cls=4, index=5))
    assert not np.array_equal(a, inputs.mask_grid(layout, seed=4, cls=4, index=5))
    m1 = inputs.write_inputs("train-cnn", 3, tmp_path / "a")
    m2 = inputs.write_inputs("train-cnn", 3, tmp_path / "b")
    assert m1.read_text() == m2.read_text()
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.*"))
    assert {p.suffix for p in files} == {".pgm", ".ssfm", ".manifest"}
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
