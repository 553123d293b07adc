"""Classifier heads over the feature matrix, fusion with a global vector,
and the two-step training protocol.

Three heads emit a fixed-width semantic feature vector from an L x k
feature matrix: a three-layer 2-D conv stack (channels 64/128/64, kernel 3,
stride 1, padding 1) followed by one FC layer; a plain FC stack; and a 1-D
conv head over the count column alone. A classifier model appends one FC
layer producing logits. The fusion model concatenates a trained global
branch (FC over an ingested feature vector) with a semantic head,
global-first, and classifies through two FC layers.

Training runs in two steps: step 1 fits the global branch on the global
vectors alone; step 2 loads those weights, freezes them, and trains the
semantic head plus the fusion FC layers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LoadedDataset, shuffled_batches
from .features import FeatureSubset
from .mask import ValidationError
from .nn import (
    Adam,
    Checkpoint,
    CheckpointError,
    Conv1D,
    Conv2D,
    Dense,
    Flatten,
    ReLU,
    Sequential,
    Tensor,
    softmax_cross_entropy,
)

__all__ = [
    "CNN_CHANNELS",
    "HEAD_KINDS",
    "STAGES",
    "SsfCnnConfig",
    "SsfNnConfig",
    "PcConv1dConfig",
    "FusionConfig",
    "TrainPlan",
    "SemanticClassifier",
    "GlobalClassifier",
    "FusionClassifier",
    "build_ssf_cnn",
    "build_ssf_nn",
    "build_pc_conv1d_head",
    "build_semantic_classifier",
    "build_global_classifier",
    "build_fusion_classifier",
    "build_from_descriptor",
    "load_model",
    "fuse_concat",
    "param_count",
    "train",
    "predict",
]

CNN_CHANNELS = (64, 128, 64)
HEAD_KINDS = ("cnn", "nn", "pc1d")
STAGES = ("semantic_only", "step1_global", "step2_fusion")


@dataclass(frozen=True)
class SsfCnnConfig:
    num_categories: int
    num_columns: int = 5
    num_classes: int = 2
    head_width: int = 1024

    def __post_init__(self) -> None:
        _check_positive(self)

    @property
    def flatten_width(self) -> int:
        return CNN_CHANNELS[-1] * self.num_categories * self.num_columns


@dataclass(frozen=True)
class SsfNnConfig:
    num_categories: int
    num_columns: int = 5
    num_classes: int = 2
    hidden: tuple[int, ...] = (512, 1024)

    def __post_init__(self) -> None:
        _check_positive(self)
        if not self.hidden:
            raise ValidationError("hidden widths must be non-empty")
        if any(h < 1 for h in self.hidden):
            raise ValidationError(f"hidden widths must be positive, got {self.hidden}")


@dataclass(frozen=True)
class PcConv1dConfig:
    num_categories: int
    num_classes: int = 2
    channels: tuple[int, int] = (32, 64)
    head_width: int = 1024

    def __post_init__(self) -> None:
        _check_positive(self)


@dataclass(frozen=True)
class FusionConfig:
    global_input_width: int
    num_classes: int
    global_width: int = 1024
    semantic_width: int = 1024
    fc3_width: int = 512

    def __post_init__(self) -> None:
        _check_positive(self)

    @property
    def fused_width(self) -> int:
        return self.global_width + self.semantic_width


@dataclass(frozen=True)
class TrainPlan:
    stage: str
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-4
    weight_decay: float = 5e-4
    seed: int = 0
    frozen: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValidationError(f"unknown training stage {self.stage!r}; expected one of {STAGES}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be positive")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ValidationError("learning_rate must be positive and weight_decay non-negative")


def _check_positive(cfg) -> None:
    for name in ("num_categories", "num_columns", "num_classes", "head_width",
                 "global_input_width", "global_width", "semantic_width", "fc3_width"):
        value = getattr(cfg, name, None)
        if value is not None and value < 1:
            raise ValidationError(f"{type(cfg).__name__}.{name} must be positive, got {value}")
    classes = getattr(cfg, "num_classes", None)
    if classes is not None and classes < 2:
        raise ValidationError(f"{type(cfg).__name__}.num_classes must be >= 2, got {classes}")


def build_ssf_cnn(cfg: SsfCnnConfig, rng: np.random.Generator | None) -> Sequential:
    """Conv stack and FC head; input (B, 1, L, k), output (B, head_width)."""
    c1, c2, c3 = CNN_CHANNELS
    head = Sequential([
        ("conv1", Conv2D(1, c1, 3, 1, 1, rng=rng)),
        ("relu1", ReLU()),
        ("conv2", Conv2D(c1, c2, 3, 1, 1, rng=rng)),
        ("relu2", ReLU()),
        ("conv3", Conv2D(c2, c3, 3, 1, 1, rng=rng)),
        ("relu3", ReLU()),
        ("flatten", Flatten()),
        ("fc", Dense(cfg.flatten_width, cfg.head_width, rng=rng)),
        ("relu4", ReLU()),
    ])
    got = head.out_shape((1, 1, cfg.num_categories, cfg.num_columns))
    if got != (1, cfg.head_width):
        raise ValidationError(f"conv head emits shape {got}, expected (1, {cfg.head_width})")
    return head


def build_ssf_nn(cfg: SsfNnConfig, rng: np.random.Generator | None) -> Sequential:
    """FC stack; input (B, L, k), output (B, hidden[-1])."""
    layers: list[tuple[str, object]] = [("flatten", Flatten())]
    width = cfg.num_categories * cfg.num_columns
    for i, h in enumerate(cfg.hidden, start=1):
        layers.append((f"fc{i}", Dense(width, h, rng=rng)))
        layers.append((f"relu{i}", ReLU()))
        width = h
    return Sequential(layers)


def build_pc_conv1d_head(cfg: PcConv1dConfig, rng: np.random.Generator | None) -> Sequential:
    """Two 1-D convs over the L-length count vector, then FC; input (B, 1, L)."""
    c1, c2 = cfg.channels
    return Sequential([
        ("conv1", Conv1D(1, c1, 3, 1, 1, rng=rng)),
        ("relu1", ReLU()),
        ("conv2", Conv1D(c1, c2, 3, 1, 1, rng=rng)),
        ("relu2", ReLU()),
        ("flatten", Flatten()),
        ("fc", Dense(c2 * cfg.num_categories, cfg.head_width, rng=rng)),
        ("relu3", ReLU()),
    ])


def fuse_concat(global_vec: np.ndarray, semantic_vec: np.ndarray) -> np.ndarray:
    """Concatenate global features then semantic features along the last axis."""
    g = np.asarray(global_vec, dtype=np.float64)
    s = np.asarray(semantic_vec, dtype=np.float64)
    if g.ndim != s.ndim or g.ndim not in (1, 2):
        raise ValidationError(f"fuse_concat expects matching 1-D or 2-D inputs, got {g.shape} and {s.shape}")
    if not (np.isfinite(g).all() and np.isfinite(s).all()):
        raise ValidationError("fuse_concat inputs must be finite")
    return np.concatenate([g, s], axis=-1)


class _ModelBase:
    """Shared plumbing: named parameters, gradient reset, checkpointing."""

    _parts: list[tuple[str, object]]

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for prefix, part in self._parts:
            for name, tensor in part.params():
                out.append((f"{prefix}.{name}" if prefix else name, tensor))
        return out

    def zero_grad(self) -> None:
        for _, t in self.parameters():
            t.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.parameters()}

    def load_arrays(self, params: dict[str, np.ndarray]) -> None:
        own = dict(self.parameters())
        if set(params) != set(own):
            missing = sorted(set(own) - set(params))
            extra = sorted(set(params) - set(own))
            raise CheckpointError(f"parameter names do not match architecture "
                                  f"(missing {missing}, unexpected {extra})")
        for name, arr in params.items():
            if arr.shape != own[name].data.shape:
                raise CheckpointError(f"parameter {name!r} has shape {arr.shape}, "
                                      f"expected {own[name].data.shape}")
            own[name].data = np.array(arr, dtype=np.float64, order="C")


def _prepare_semantic(ssf: np.ndarray, subset: FeatureSubset, head_kind: str,
                      num_categories: int) -> np.ndarray:
    ssf = np.asarray(ssf, dtype=np.float64)
    if ssf.ndim != 3 or ssf.shape[1] != num_categories or ssf.shape[2] != 5:
        raise ValidationError(f"expected feature batch of shape (B, {num_categories}, 5), got {ssf.shape}")
    x = ssf[:, :, list(subset.column_indices())]
    if head_kind == "cnn":
        return x[:, None, :, :]
    if head_kind == "pc1d":
        return x.transpose(0, 2, 1)
    return x


class SemanticClassifier(_ModelBase):
    """Feature-matrix head plus one FC classification layer."""

    def __init__(self, head: Sequential, classifier: Dense, head_kind: str,
                 subset: FeatureSubset, num_categories: int, num_classes: int,
                 extra: dict | None = None) -> None:
        self.head = head
        self.classifier = classifier
        self.head_kind = head_kind
        self.subset = subset
        self.num_categories = num_categories
        self.num_classes = num_classes
        self._extra = dict(extra or {})
        self._parts = [("head", head), ("classifier", classifier)]

    def forward(self, ssf: np.ndarray, global_vec: np.ndarray | None = None) -> np.ndarray:
        x = _prepare_semantic(ssf, self.subset, self.head_kind, self.num_categories)
        return self.classifier.forward(self.head.forward(x))

    def backward(self, grad_logits: np.ndarray) -> None:
        self.head.backward(self.classifier.backward(grad_logits))

    def descriptor(self) -> dict:
        d = {"model": "semantic", "head": self.head_kind, "subset": self.subset.spec_string(),
             "num_categories": self.num_categories, "num_classes": self.num_classes}
        d.update(self._extra)
        return d

    def flop_count(self) -> int:
        shape = _prepare_semantic(
            np.zeros((1, self.num_categories, 5)), self.subset, self.head_kind,
            self.num_categories).shape
        head_flops, head_out = self.head.flop_count(shape)
        return head_flops + self.classifier.flop_count(head_out)[0]


class GlobalClassifier(_ModelBase):
    """FC layer over an ingested global feature vector, plus a classifier."""

    def __init__(self, fc1: Dense, classifier: Dense, cfg: FusionConfig) -> None:
        self.fc1 = fc1
        self.relu = ReLU()
        self.classifier = classifier
        self.cfg = cfg
        self._parts = [("global_fc1", fc1), ("classifier", classifier)]

    def forward(self, ssf: np.ndarray | None, global_vec: np.ndarray) -> np.ndarray:
        if global_vec is None:
            raise ValidationError("global classifier needs global feature vectors")
        g = np.asarray(global_vec, dtype=np.float64)
        return self.classifier.forward(self.relu.forward(self.fc1.forward(g)))

    def backward(self, grad_logits: np.ndarray) -> None:
        self.fc1.backward(self.relu.backward(self.classifier.backward(grad_logits)))

    def descriptor(self) -> dict:
        return {"model": "global", "num_classes": self.cfg.num_classes,
                "global_input_width": self.cfg.global_input_width,
                "global_width": self.cfg.global_width}

    def flop_count(self) -> int:
        shape = (1, self.cfg.global_input_width)
        flops, shape = self.fc1.flop_count(shape)
        return flops + self.classifier.flop_count(shape)[0]


class FusionClassifier(_ModelBase):
    """Frozen-able global branch concatenated with a semantic head, then FC3/FC4."""

    def __init__(self, fc1: Dense, head: Sequential, fc3: Dense, fc4: Dense,
                 head_kind: str, subset: FeatureSubset, cfg: FusionConfig,
                 num_categories: int, extra: dict | None = None) -> None:
        self.fc1 = fc1
        self.relu_g = ReLU()
        self.head = head
        self.fc3 = fc3
        self.relu_f = ReLU()
        self.fc4 = fc4
        self.head_kind = head_kind
        self.subset = subset
        self.cfg = cfg
        self.num_categories = num_categories
        self._extra = dict(extra or {})
        self._parts = [("global_fc1", fc1), ("head", head), ("fc3", fc3), ("fc4", fc4)]

    def global_param_names(self) -> tuple[str, ...]:
        return tuple(f"global_fc1.{name}" for name, _ in self.fc1.params())

    def forward(self, ssf: np.ndarray, global_vec: np.ndarray) -> np.ndarray:
        if global_vec is None:
            raise ValidationError("fusion classifier needs global feature vectors")
        g = np.asarray(global_vec, dtype=np.float64)
        u = self.relu_g.forward(self.fc1.forward(g))
        v = self.head.forward(_prepare_semantic(ssf, self.subset, self.head_kind,
                                                self.num_categories))
        fused = fuse_concat(u, v)
        return self.fc4.forward(self.relu_f.forward(self.fc3.forward(fused)))

    def backward(self, grad_logits: np.ndarray) -> None:
        g_fused = self.fc3.backward(self.relu_f.backward(self.fc4.backward(grad_logits)))
        split = self.cfg.global_width
        self.fc1.backward(self.relu_g.backward(g_fused[:, :split]))
        self.head.backward(g_fused[:, split:])

    def descriptor(self) -> dict:
        d = {"model": "fusion", "head": self.head_kind, "subset": self.subset.spec_string(),
             "num_categories": self.num_categories, "num_classes": self.cfg.num_classes,
             "global_input_width": self.cfg.global_input_width,
             "global_width": self.cfg.global_width,
             "semantic_width": self.cfg.semantic_width, "fc3_width": self.cfg.fc3_width}
        d.update(self._extra)
        return d

    def flop_count(self) -> int:
        flops, shape = self.fc1.flop_count((1, self.cfg.global_input_width))
        head_flops, _ = self.head.flop_count(_prepare_semantic(
            np.zeros((1, self.num_categories, 5)), self.subset, self.head_kind,
            self.num_categories).shape)
        flops += head_flops
        f3, shape = self.fc3.flop_count((1, self.cfg.fused_width))
        return flops + f3 + self.fc4.flop_count(shape)[0]


def _build_head(head_kind: str, subset: FeatureSubset, num_categories: int,
                rng: np.random.Generator | None, *, num_classes: int,
                hidden: tuple[int, ...] = (512, 1024),
                pc_channels: tuple[int, int] = (32, 64),
                head_width: int = 1024) -> tuple[Sequential, int, dict]:
    if head_kind not in HEAD_KINDS:
        raise ValidationError(f"unknown head kind {head_kind!r}; expected one of {HEAD_KINDS}")
    k = subset.num_columns
    if head_kind == "cnn":
        cfg = SsfCnnConfig(num_categories, k, num_classes, head_width)
        return build_ssf_cnn(cfg, rng), head_width, {"head_width": head_width}
    if head_kind == "nn":
        cfg = SsfNnConfig(num_categories, k, num_classes, tuple(hidden))
        return build_ssf_nn(cfg, rng), cfg.hidden[-1], {"hidden": list(cfg.hidden)}
    if subset.spec_string() != "pc":
        raise ValidationError("the 1-D conv head consumes the count column only; use subset 'pc'")
    cfg = PcConv1dConfig(num_categories, num_classes, tuple(pc_channels), head_width)
    return (build_pc_conv1d_head(cfg, rng), head_width,
            {"pc_channels": list(cfg.channels), "head_width": head_width})


def build_semantic_classifier(head_kind: str, subset: FeatureSubset, num_categories: int,
                              num_classes: int, rng: np.random.Generator | None,
                              **head_options) -> SemanticClassifier:
    head, width, extra = _build_head(head_kind, subset, num_categories, rng,
                                     num_classes=num_classes, **head_options)
    classifier = Dense(width, num_classes, rng=rng)
    return SemanticClassifier(head, classifier, head_kind, subset, num_categories,
                              num_classes, extra)


def build_global_classifier(cfg: FusionConfig, rng: np.random.Generator | None) -> GlobalClassifier:
    fc1 = Dense(cfg.global_input_width, cfg.global_width, rng=rng)
    classifier = Dense(cfg.global_width, cfg.num_classes, rng=rng)
    return GlobalClassifier(fc1, classifier, cfg)


def build_fusion_classifier(cfg: FusionConfig, head_kind: str, subset: FeatureSubset,
                            num_categories: int, rng: np.random.Generator | None,
                            base: Checkpoint | None = None,
                            **head_options) -> FusionClassifier:
    """Assemble the fusion model, optionally loading the global branch from step 1."""
    head, width, extra = _build_head(head_kind, subset, num_categories, rng,
                                     num_classes=cfg.num_classes, **head_options)
    if width != cfg.semantic_width:
        raise ValidationError(f"head emits width {width}, fusion expects {cfg.semantic_width}")
    fc1 = Dense(cfg.global_input_width, cfg.global_width, rng=rng)
    fc3 = Dense(cfg.fused_width, cfg.fc3_width, rng=rng)
    fc4 = Dense(cfg.fc3_width, cfg.num_classes, rng=rng)
    model = FusionClassifier(fc1, head, fc3, fc4, head_kind, subset, cfg,
                             num_categories, extra)
    if base is not None:
        if base.descriptor.get("model") != "global":
            raise CheckpointError(f"expected a step-1 global checkpoint, got model "
                                  f"{base.descriptor.get('model')!r}")
        for field in ("global_input_width", "global_width", "num_classes"):
            if base.descriptor.get(field) != model.descriptor()[field]:
                raise CheckpointError(f"step-1 checkpoint {field}={base.descriptor.get(field)} "
                                      f"does not match fusion config {model.descriptor()[field]}")
        for name, tensor in fc1.params():
            key = f"global_fc1.{name}"
            if key not in base.params:
                raise CheckpointError(f"step-1 checkpoint is missing {key!r}")
            if base.params[key].shape != tensor.data.shape:
                raise CheckpointError(f"step-1 block {key!r} has shape {base.params[key].shape}, "
                                      f"expected {tensor.data.shape}")
            tensor.data = np.array(base.params[key], dtype=np.float64, order="C")
    return model


def build_from_descriptor(desc: dict, rng: np.random.Generator | None = None):
    """Rebuild a model from a checkpoint's architecture descriptor."""
    kind = desc.get("model")
    if kind == "semantic":
        options = {}
        if "hidden" in desc:
            options["hidden"] = tuple(desc["hidden"])
        if "pc_channels" in desc:
            options["pc_channels"] = tuple(desc["pc_channels"])
        if "head_width" in desc:
            options["head_width"] = desc["head_width"]
        return build_semantic_classifier(desc["head"], FeatureSubset.parse(desc["subset"]),
                                         desc["num_categories"], desc["num_classes"], rng,
                                         **options)
    if kind == "global":
        cfg = FusionConfig(global_input_width=desc["global_input_width"],
                           num_classes=desc["num_classes"],
                           global_width=desc["global_width"])
        return build_global_classifier(cfg, rng)
    if kind == "fusion":
        cfg = FusionConfig(global_input_width=desc["global_input_width"],
                           num_classes=desc["num_classes"],
                           global_width=desc["global_width"],
                           semantic_width=desc["semantic_width"],
                           fc3_width=desc["fc3_width"])
        options = {}
        if "hidden" in desc:
            options["hidden"] = tuple(desc["hidden"])
        if "pc_channels" in desc:
            options["pc_channels"] = tuple(desc["pc_channels"])
        if "head_width" in desc:
            options["head_width"] = desc["head_width"]
        return build_fusion_classifier(cfg, desc["head"], FeatureSubset.parse(desc["subset"]),
                                       desc["num_categories"], rng, **options)
    raise CheckpointError(f"unknown model kind {kind!r} in descriptor")


def load_model(ckpt: Checkpoint):
    model = build_from_descriptor(ckpt.descriptor)
    model.load_arrays(ckpt.params)
    return model


def param_count(model) -> int:
    return sum(t.size for _, t in model.parameters())


def predict(model, ssf: np.ndarray | None, global_vec: np.ndarray | None = None
            ) -> tuple[int, np.ndarray]:
    """Classify one sample; ties break toward the lowest class index."""
    ssf_b = None if ssf is None else np.asarray(ssf)[None, :, :]
    g_b = None if global_vec is None else np.asarray(global_vec)[None, :]
    logits = model.forward(ssf_b, g_b)[0]
    return int(np.argmax(logits)), logits


def _run_split(model, data: LoadedDataset, idx: np.ndarray, batch_size: int) -> tuple[float, float]:
    """Forward-only loss and accuracy over the given sample indices, in order."""
    total_loss = 0.0
    correct = 0
    for start in range(0, len(idx), batch_size):
        sel = idx[start : start + batch_size]
        ssf = data.ssf[sel]
        g = None if data.global_vecs is None else data.global_vecs[sel]
        logits = model.forward(ssf, g)
        loss, _ = softmax_cross_entropy(logits, data.labels[sel])
        total_loss += loss * len(sel)
        correct += int((np.argmax(logits, axis=1) == data.labels[sel]).sum())
    n = max(1, len(idx))
    return total_loss / n, correct / n


_STAGE_MODEL = {"semantic_only": "semantic", "step1_global": "global", "step2_fusion": "fusion"}


def train(plan: TrainPlan, data: LoadedDataset, model) -> tuple[Checkpoint, list[dict]]:
    """Run the training loop; returns the final checkpoint and per-epoch metrics."""
    kind = model.descriptor()["model"]
    if _STAGE_MODEL[plan.stage] != kind:
        raise ValidationError(f"stage {plan.stage!r} cannot train a {kind!r} model")
    if kind in ("global", "fusion") and data.global_vecs is None:
        raise ValidationError("dataset has no global feature vectors")

    frozen = set(plan.frozen)
    all_names = [name for name, _ in model.parameters()]
    unknown = frozen - set(all_names)
    if unknown:
        raise ValidationError(f"frozen parameter names not in model: {sorted(unknown)}")
    if plan.stage == "step2_fusion":
        required = set(model.global_param_names())
        if not required <= frozen:
            raise ValidationError(f"step 2 must freeze the global branch: {sorted(required - frozen)}")

    trainable = [(name, t) for name, t in model.parameters() if name not in frozen]
    if not trainable:
        raise ValidationError("no trainable parameters left after freezing")
    opt = Adam(trainable, learning_rate=plan.learning_rate, weight_decay=plan.weight_decay)

    metrics: list[dict] = []
    for epoch in range(plan.epochs):
        epoch_loss = 0.0
        correct = 0
        for batch, sel in enumerate(shuffled_batches(data.train_idx, plan.batch_size,
                                                     plan.seed, epoch)):
            ssf = data.ssf[sel]
            g = None if data.global_vecs is None else data.global_vecs[sel]
            labels = data.labels[sel]
            logits = model.forward(ssf, g)
            loss, grad = softmax_cross_entropy(logits, labels)
            if not np.isfinite(loss):
                raise ArithmeticError(f"training diverged: loss {loss} at epoch {epoch}, "
                                      f"batch {batch}")
            model.backward(grad)
            opt.step()
            model.zero_grad()
            epoch_loss += loss * len(sel)
            correct += int((np.argmax(logits, axis=1) == labels).sum())
        n_train = max(1, len(data.train_idx))
        test_loss, test_acc = _run_split(model, data, data.test_idx, plan.batch_size)
        metrics.append({"epoch": epoch, "split": "train",
                        "loss": epoch_loss / n_train, "accuracy": correct / n_train})
        metrics.append({"epoch": epoch, "split": "test",
                        "loss": test_loss, "accuracy": test_acc})

    final = {m["split"]: {"loss": m["loss"], "accuracy": m["accuracy"]}
             for m in metrics[-2:]}
    ckpt = Checkpoint(
        descriptor=model.descriptor(),
        params=model.state_arrays(),
        metadata={"stage": plan.stage, "epochs": plan.epochs, "seed": plan.seed,
                  "batch_size": plan.batch_size, "learning_rate": plan.learning_rate,
                  "weight_decay": plan.weight_decay, "frozen": sorted(frozen),
                  "final_metrics": final},
    )
    return ckpt, metrics
