"""Evaluation reports, the feature-subset ablation grid, and complexity measurement."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import LoadedDataset
from .features import FeatureSubset
from .mask import SegmentationMask, ValidationError
from .models import (BATCH_SIZE, Model, TrainPlan, build_semantic_classifier, param_count,
                     score_split, train)
from .nn import CheckpointError

__all__ = [
    "EvalReport",
    "AblationCell",
    "AblationGrid",
    "ComplexityReport",
    "GRID_SUBSETS",
    "evaluate",
    "run_ablation",
    "measure_complexity",
    "extraction_benchmark",
]

# Row order of the ablation grid: single statistic groups, pairs, then all.
GRID_SUBSETS = (
    FeatureSubset(pc=True, ap=False, sd=False),
    FeatureSubset(pc=False, ap=True, sd=False),
    FeatureSubset(pc=False, ap=False, sd=True),
    FeatureSubset(pc=False, ap=True, sd=True),
    FeatureSubset(pc=True, ap=True, sd=False),
    FeatureSubset(pc=True, ap=False, sd=True),
    FeatureSubset(pc=True, ap=True, sd=True),
)
GRID_HEADS = ("cnn", "nn")


@dataclass(frozen=True)
class EvalReport:
    """Accuracy, per-class accuracy, and the confusion matrix for one split."""

    accuracy: float
    per_class_accuracy: tuple[float, ...]
    confusion: np.ndarray  # (C, C), rows = true class, cols = predicted
    total: int

    def to_dict(self) -> dict:
        return {"accuracy": self.accuracy, "total": self.total,
                "per_class_accuracy": list(self.per_class_accuracy),
                "confusion": self.confusion.tolist()}

    def to_text(self) -> str:
        lines = [f"samples: {self.total}", f"accuracy: {self.accuracy:.4f}", "per-class:"]
        for c, acc in enumerate(self.per_class_accuracy):
            lines.append(f"  class {c}: {acc:.4f}")
        lines.append("confusion (rows true, cols predicted):")
        for row in self.confusion:
            lines.append("  " + " ".join(f"{int(v):5d}" for v in row))
        return "\n".join(lines)

    def confusion_csv(self) -> str:
        c = self.confusion.shape[0]
        lines = ["true\\pred," + ",".join(str(j) for j in range(c))]
        for i in range(c):
            lines.append(f"{i}," + ",".join(str(int(v)) for v in self.confusion[i]))
        return "\n".join(lines) + "\n"


def evaluate(model, data: LoadedDataset, split: str = "test") -> EvalReport:
    """Confusion-matrix evaluation of a classifier over one split.

    Runs ``score_split`` in batches of the training batch size, then releases
    the model's buffers.
    """
    idx = {"train": data.train_idx, "test": data.test_idx}.get(split)
    if idx is None:
        raise ValidationError(f"unknown split {split!r}")
    if len(idx) == 0:
        raise ValidationError(f"split {split!r} is empty")
    try:
        _, confusion = score_split(model, data, idx, BATCH_SIZE)
    finally:
        model.release()
    support = confusion.sum(axis=1)
    per_class = tuple(float(confusion[i, i] / n) if n else 0.0 for i, n in enumerate(support))
    return EvalReport(accuracy=float(np.trace(confusion) / confusion.sum()),
                      per_class_accuracy=per_class, confusion=confusion,
                      total=int(confusion.sum()))


@dataclass(frozen=True)
class AblationCell:
    subset_label: str
    head: str
    accuracy: float | None
    error: str | None = None


@dataclass(frozen=True)
class AblationGrid:
    cells: tuple[AblationCell, ...]

    def accuracy(self, subset_label: str, head: str) -> float | None:
        for cell in self.cells:
            if cell.subset_label == subset_label and cell.head == head:
                return cell.accuracy
        raise ValidationError(f"no ablation cell ({subset_label}, {head})")

    def to_text(self) -> str:
        lines = [f"{'features':<8} {'network':<8} {'accuracy':>9}"]
        for cell in self.cells:
            shown = f"{cell.accuracy:.4f}" if cell.accuracy is not None else f"error: {cell.error}"
            lines.append(f"{cell.subset_label:<8} {cell.head.upper():<8} {shown:>9}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"cells": [{"features": c.subset_label, "network": c.head,
                           "accuracy": c.accuracy, "error": c.error} for c in self.cells]}


def run_ablation(data: LoadedDataset, epochs: int = 60, batch_size: int = BATCH_SIZE,
                 learning_rate: float = 1e-3, weight_decay: float = 5e-4,
                 seed: int = 0) -> AblationGrid:
    """Train one semantic classifier per (subset, head) pair and report test accuracy.

    Every cell uses the same seed and plan; its accuracy is the final test
    accuracy that ``train`` measured. An invalid plan or an empty split is
    refused before the grid. A cell failing with a domain error (invalid
    input, a bad checkpoint, a diverging run) is recorded with its message and
    the grid runs on; any other exception is a program error and propagates.
    """
    plan = TrainPlan(stage="semantic_only", epochs=epochs, batch_size=batch_size,
                     learning_rate=learning_rate, weight_decay=weight_decay, seed=seed)
    for split, idx in (("train", data.train_idx), ("test", data.test_idx)):
        if len(idx) == 0:
            raise ValidationError(f"split {split!r} is empty")
    cells: list[AblationCell] = []
    for subset in GRID_SUBSETS:
        for head in GRID_HEADS:
            try:
                model = build_semantic_classifier(head, subset, data.num_categories,
                                                  data.num_classes, np.random.default_rng(seed))
                _, metrics = train(plan, data, model)
                cells.append(AblationCell(subset.label(), head, metrics[-1]["accuracy"]))
            except (ValidationError, CheckpointError, ArithmeticError) as exc:
                cells.append(AblationCell(subset.label(), head, None, error=str(exc)))
    return AblationGrid(cells=tuple(cells))


@dataclass(frozen=True)
class ComplexityReport:
    """Analytic cost and measured batch-1 throughput for one model."""

    flops: int
    mac_count: int
    param_count: int
    throughput_fps: float
    iterations: int
    warmup: int

    def to_dict(self) -> dict:
        return {"flops": self.flops, "mac_count": self.mac_count,
                "param_count": self.param_count, "throughput_fps": self.throughput_fps,
                "iterations": self.iterations, "warmup": self.warmup}

    def to_text(self) -> str:
        return (f"flops (batch 1): {self.flops}\n"
                f"multiply-accumulates: {self.mac_count}\n"
                f"parameters: {self.param_count}\n"
                f"throughput: {self.throughput_fps:.1f} samples/s "
                f"({self.iterations} iterations after {self.warmup} warmup)")


def measure_complexity(model: Model, iterations: int = 1000,
                       warmup: int = 100) -> ComplexityReport:
    """Analytic FLOPs/params plus measured forward throughput at batch size 1.

    FLOPs are ``Model.flop_count``'s, whose docstring states the rule.
    Throughput excludes everything but the forward pass, and the model's
    buffers are released after it.
    """
    if iterations < 1000:
        raise ValidationError(f"throughput needs >= 1000 measured iterations, got {iterations}")
    if warmup < 0:
        raise ValidationError(f"warmup must be >= 0, got {warmup}")
    flops = model.flop_count()
    params = param_count(model)

    sample_ssf, sample_global = model.sample_inputs()
    try:
        for _ in range(warmup):
            model.forward(sample_ssf, sample_global)
        start = time.perf_counter()
        for _ in range(iterations):
            model.forward(sample_ssf, sample_global)
        elapsed = time.perf_counter() - start
    finally:
        model.release()
    return ComplexityReport(flops=flops, mac_count=flops // 2, param_count=params,
                            throughput_fps=iterations / elapsed,
                            iterations=iterations, warmup=warmup)


def extraction_benchmark(mask: SegmentationMask, runs: int = 1000) -> float:
    """Median seconds per feature extraction over the given mask."""
    from .features import extract_ssf

    if runs < 1:
        raise ValidationError("runs must be >= 1")
    extract_ssf(mask)  # warm caches before measuring
    times = np.empty(runs)
    for i in range(runs):
        t0 = time.perf_counter()
        extract_ssf(mask)
        times[i] = time.perf_counter() - t0
    return float(np.median(times))
