"""Correctness checks on the program's outputs, independent of its code.

Each check returns a list of error strings; an empty list means the output
passed. None of them compares against a stored copy of earlier output: the
feature check recomputes the statistics from the mask grid with a separate
algorithm, and the rest test properties the method must have.
"""
from __future__ import annotations

import math

import numpy as np

# Largest allowed |difference| between extracted features and the oracle,
# the tolerance of the program's own acceptance test.
FEATURE_TOL = 1e-9
CHANCE = 1.0 / 6.0
# "Well above chance" for a six-class semantic model: three times chance.
MIN_SEMANTIC_ACCURACY = 3 * CHANCE
# Neither branch alone can exceed 60% on the split-information data (see
# ssfx.data.split_information_spec); the fused model must clear it by this.
BRANCH_CEILING = 0.6
FUSION_MARGIN = 0.2


def oracle_ssf(grid: np.ndarray, num_categories: int) -> np.ndarray:
    """Per-category two-pass mean and std over ``np.nonzero`` positions.

    Positions are 1-based and normalized by width (x) and height (y); pixel
    counts by h*w. Pixels outside 1..L (void) belong to no category.
    """
    h, w = grid.shape
    out = np.zeros((num_categories, 5))
    for c in range(1, num_categories + 1):
        rows, cols = np.nonzero(grid == c)
        n = rows.size
        if n == 0:
            continue
        x = cols + 1.0
        y = rows + 1.0
        mx = x.sum() / n
        my = y.sum() / n
        sx = math.sqrt(((x - mx) ** 2).sum() / n)
        sy = math.sqrt(((y - my) ** 2).sum() / n)
        out[c - 1] = (n / (h * w), mx / w, my / h, sx / w, sy / h)
    return out


def feature_errors(values: np.ndarray, grid: np.ndarray, num_categories: int,
                   void_value: int = 0, where: str = "") -> list[str]:
    """Compare one extracted L x 5 matrix with the oracle and the method's properties."""
    values = np.asarray(values)
    if values.shape != (num_categories, 5):
        return [f"{where}: shape {values.shape}, expected ({num_categories}, 5)"]
    errors = []
    diff = float(np.max(np.abs(values - oracle_ssf(grid, num_categories))))
    if not diff <= FEATURE_TOL:
        errors.append(f"{where}: differs from the oracle by {diff:.3e} (tolerance {FEATURE_TOL})")
    if not ((values >= 0.0) & (values <= 1.0)).all():
        errors.append(f"{where}: entries outside [0, 1]")
    counts = np.bincount(grid.ravel(), minlength=num_categories + 1)[1 : num_categories + 1]
    if np.any(values[counts == 0] != 0.0):
        errors.append(f"{where}: an absent category has a non-zero row")
    total = grid.size
    void = int(np.count_nonzero(grid == void_value))
    pc_sum = math.fsum(values[:, 0])
    # Each of the L entries is one rounded division, so the sum may miss
    # the exact value by at most L half-ulps of 1.
    slack = num_categories * np.finfo(np.float64).eps
    if void == 0 and abs(pc_sum - 1.0) > slack:
        errors.append(f"{where}: pc sums to {pc_sum!r} on a mask without void pixels")
    if void > 0 and not pc_sum < 1.0:
        errors.append(f"{where}: pc sums to {pc_sum!r} on a mask with {void} void pixels")
    return errors


def training_errors(metrics: list[dict], test_accuracy: float, where: str = "") -> list[str]:
    """Held-out accuracy well above chance and a falling train loss.

    ``metrics`` are the per-epoch records ``train`` returns.
    """
    train = [m for m in metrics if m["split"] == "train"]
    errors = []
    if test_accuracy < MIN_SEMANTIC_ACCURACY:
        errors.append(f"{where}: test accuracy {test_accuracy:.3f} below "
                      f"{MIN_SEMANTIC_ACCURACY:.3f} (three times chance)")
    if not train[-1]["loss"] < train[0]["loss"]:
        errors.append(f"{where}: last train loss {train[-1]['loss']:.4f} not below "
                      f"first {train[0]['loss']:.4f}")
    return errors


def logits_errors(trained: np.ndarray, reloaded: np.ndarray, where: str = "") -> list[str]:
    """The model read back from a checkpoint must give bit-identical logits."""
    if trained.shape != reloaded.shape or not np.array_equal(trained, reloaded):
        return [f"{where}: reloaded model's logits differ from the trained model's"]
    return []


def frozen_errors(step1_hashes: dict[str, str], step2_hashes: dict[str, str],
                  frozen: tuple[str, ...], where: str = "") -> list[str]:
    """Frozen blocks must hash the same after step 2 as in the step-1 checkpoint."""
    changed = [n for n in frozen if step1_hashes.get(n) != step2_hashes.get(n)]
    if not frozen or changed:
        return [f"{where}: frozen blocks changed in step 2: {changed or 'none frozen'}"]
    return []


def fusion_errors(test_accuracy: float, where: str = "") -> list[str]:
    """The fused model must beat the single-branch ceiling by the stated margin."""
    need = BRANCH_CEILING + FUSION_MARGIN
    if test_accuracy < need:
        return [f"{where}: fused test accuracy {test_accuracy:.3f} below {need:.2f} "
                f"(branch ceiling {BRANCH_CEILING} + margin {FUSION_MARGIN})"]
    return []
