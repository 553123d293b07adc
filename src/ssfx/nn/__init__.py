"""Minimal float64 neural-network engine: layers, loss, optimizer, checks."""
from .tensor import Tensor
from .layers import (
    ShapeError,
    LayerSpec,
    Layer,
    Conv2D,
    Conv1D,
    Dense,
    ReLU,
    Flatten,
    Sequential,
    he_uniform,
)
from .loss import softmax, softmax_cross_entropy
from .optim import Adam
from .gradcheck import (
    MAX_EXHAUSTIVE_PARAMS,
    BlockReport,
    GradCheckReport,
    CorruptedGradients,
    grad_check,
)
from .checkpoint import Checkpoint, CheckpointError, save_checkpoint, load_checkpoint

__all__ = [
    "Tensor",
    "ShapeError",
    "LayerSpec",
    "Layer",
    "Conv2D",
    "Conv1D",
    "Dense",
    "ReLU",
    "Flatten",
    "Sequential",
    "he_uniform",
    "softmax",
    "softmax_cross_entropy",
    "Adam",
    "MAX_EXHAUSTIVE_PARAMS",
    "BlockReport",
    "GradCheckReport",
    "CorruptedGradients",
    "grad_check",
    "Checkpoint",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
]
