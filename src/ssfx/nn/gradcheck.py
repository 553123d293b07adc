"""Finite-difference verification of model gradients.

Central differences with step h = ``STEP`` = 1e-6 on f64. Each parameter block is
compared as a vector over its checked entries:

    rel_err = ||a - n|| / max(1e-8, ||a|| + ||n||)

The block-level comparison is deliberate: near-dead entries carry
gradients around 1e-8 while the finite-difference noise floor at h=1e-6
sits near eps * |loss| / (2h) ~ 1e-10, so an entrywise ratio on such an
entry reports noise, not gradient error. A genuinely wrong backward pass
perturbs the whole block and shows up at full scale in the norm.
Models above 1e5 parameters must opt into per-block sampling, since the
check costs two forward passes per perturbed entry.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mask import ValidationError
from .loss import softmax_cross_entropy

MAX_EXHAUSTIVE_PARAMS = 100_000
STEP = 1e-6


@dataclass(frozen=True)
class BlockReport:
    name: str
    rel_err: float
    checked: int


@dataclass(frozen=True)
class GradCheckReport:
    blocks: tuple[BlockReport, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(b.rel_err < self.tolerance for b in self.blocks)

    @property
    def worst(self) -> float:
        return max(b.rel_err for b in self.blocks)

    def summary_lines(self) -> list[str]:
        lines = []
        for b in self.blocks:
            status = "ok" if b.rel_err < self.tolerance else "FAIL"
            lines.append(f"{b.name:<28} rel_err={b.rel_err:.3e} checked={b.checked} {status}")
        lines.append(f"worst={self.worst:.3e} tolerance={self.tolerance:.1e} "
                     f"{'PASS' if self.passed else 'FAIL'}")
        return lines


class CorruptedGradients:
    """Wrap a model and double one parameter block's gradient; negative control."""

    def __init__(self, model, block_name: str) -> None:
        self.model = model
        names = [name for name, _ in model.parameters()]
        if block_name not in names:
            raise ValidationError(f"unknown parameter block {block_name!r}; have {names}")
        self.block_name = block_name

    def forward(self, ssf, global_vec=None):
        return self.model.forward(ssf, global_vec)

    def backward(self, grad_logits) -> None:
        self.model.backward(grad_logits)
        for name, tensor in self.model.parameters():
            if name == self.block_name and tensor.grad is not None:
                tensor.grad *= 2.0

    def parameters(self):
        return self.model.parameters()


def grad_check(
    model,
    ssf: np.ndarray,
    global_vec: np.ndarray | None,
    labels: np.ndarray,
    *,
    tolerance: float = 1e-4,
    sample_per_block: int | None = None,
    rng: np.random.Generator | None = None,
    loss_fn=softmax_cross_entropy,
) -> GradCheckReport:
    """Compare every parameter block's analytic gradient against central differences."""
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise ValidationError(f"tolerance must be positive and finite, got {tolerance}")
    if len(labels) == 0:
        raise ValidationError("gradient check needs a non-empty batch")
    if sample_per_block is not None and sample_per_block < 1:
        raise ValidationError(f"sample_per_block must be >= 1, got {sample_per_block}")
    params = model.parameters()
    total = sum(t.size for _, t in params)
    if sample_per_block is None and total > MAX_EXHAUSTIVE_PARAMS:
        raise ValidationError(
            f"model has {total} parameters; pass sample_per_block to check a subset"
        )
    if sample_per_block is not None and rng is None:
        rng = np.random.default_rng(0)

    def loss_only() -> float:
        loss, _ = loss_fn(model.forward(ssf, global_vec), labels)
        if not np.isfinite(loss):
            raise ArithmeticError(f"non-finite loss {loss} during gradient check")
        return loss

    loss, grad_logits = loss_fn(model.forward(ssf, global_vec), labels)
    if not np.isfinite(loss):
        raise ArithmeticError(f"non-finite loss {loss} during gradient check")
    model.backward(grad_logits)
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in params}

    blocks = []
    for name, tensor in params:
        flat = tensor.data.ravel()
        grad_flat = analytic[name].ravel()
        if sample_per_block is None or tensor.size <= sample_per_block:
            indices = np.arange(tensor.size)
        else:
            indices = rng.choice(tensor.size, size=sample_per_block, replace=False)
        numeric = np.empty(len(indices))
        for pos, idx in enumerate(indices):
            saved = flat[idx]
            flat[idx] = saved + STEP
            up = loss_only()
            flat[idx] = saved - STEP
            down = loss_only()
            flat[idx] = saved
            numeric[pos] = (up - down) / (2.0 * STEP)
        a = grad_flat[indices]
        norm_a = float(np.linalg.norm(a))
        norm_n = float(np.linalg.norm(numeric))
        rel = float(np.linalg.norm(a - numeric)) / max(1e-8, norm_a + norm_n)
        blocks.append(BlockReport(name=name, rel_err=rel, checked=len(indices)))
    return GradCheckReport(blocks=tuple(blocks), tolerance=tolerance)
