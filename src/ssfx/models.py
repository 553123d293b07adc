"""Classifier heads over the feature matrix, fusion with a global vector,
and the two-step training protocol.

Three heads emit a fixed-width semantic feature vector from an L x k
feature matrix: a three-layer 2-D conv stack (channels 64/128/64, kernel 3,
stride 1, padding 1) followed by one FC layer; a plain FC stack; and a 1-D
conv head over the count column alone.

Every model is one graph: an ordered list of named branches, each reading
one input (``ssf``, the feature matrix, or ``global``, an ingested feature
vector) through its own layers; a concatenation of the branch outputs,
global-first; and a trunk of FC layers producing logits. A semantic model
is the ``head`` branch under a ``classifier`` trunk; a global model is the
``global_fc1`` branch under a ``classifier`` trunk; the fusion model is both
branches under an ``fc3``/ReLU/``fc4`` trunk.

Training runs in two steps: step 1 fits the global model on the global
vectors alone; step 2 loads those weights into the fusion model's global
branch, freezes them, and trains the semantic head plus the fusion FC
layers. Backward skips a branch whose parameters are all frozen.
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
    "SsfInput",
    "Branch",
    "Model",
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


class SsfInput:
    """First layer of an ``ssf`` branch: picks a subset's columns of a
    (B, L, 5) feature batch and lays them out as its head reads them.

    The feature batch is model input, so backward passes no gradient on.
    """

    def __init__(self, num_categories: int, subset: FeatureSubset, head_kind: str) -> None:
        self.num_categories = num_categories
        self.columns = list(subset.column_indices())
        self.head_kind = head_kind

    def params(self) -> list[tuple[str, Tensor]]:
        return []

    def forward(self, ssf: np.ndarray) -> np.ndarray:
        if ssf.ndim != 3 or ssf.shape[1] != self.num_categories or ssf.shape[2] != 5:
            raise ValidationError(f"expected feature batch of shape (B, {self.num_categories}, 5), "
                                  f"got {ssf.shape}")
        x = ssf[:, :, self.columns]
        if self.head_kind == "cnn":
            return x[:, None, :, :]
        if self.head_kind == "pc1d":
            return x.transpose(0, 2, 1)
        return x

    def backward(self, grad_out: np.ndarray) -> None:
        return None

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        return self.forward(np.zeros(in_shape)).shape

    def flop_count(self, in_shape: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        return 0, self.out_shape(in_shape)


@dataclass
class Branch:
    """One input path of a model.

    ``input`` names what the branch reads: ``ssf`` for (B, L, 5) feature
    batches, ``global`` for (B, W) global vectors. ``desc`` holds the
    descriptor keys that rebuild the branch. Parameter names are those of
    ``layers``, so a branch names its layers with their checkpoint prefix.
    """

    name: str
    input: str
    layers: Sequential
    desc: dict

    def sample(self) -> np.ndarray:
        """A batch-1 zero input of the shape this branch reads."""
        if self.input == "ssf":
            return np.zeros((1, self.desc["num_categories"], 5))
        return np.zeros((1, self.desc["global_input_width"]))


class Model:
    """Branches concatenated global-first, then a trunk producing logits."""

    def __init__(self, kind: str, branches: list[Branch], trunk: Sequential, desc: dict) -> None:
        self.kind = kind
        self.branches = list(branches)
        self.trunk = trunk
        self._desc = dict(desc)
        self._widths = [b.layers.out_shape(b.sample().shape)[1] for b in self.branches]

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [p for b in self.branches for p in b.layers.params()] + self.trunk.params()

    def global_param_names(self) -> tuple[str, ...]:
        return tuple(name for b in self.branches if b.input == "global"
                     for name, _ in b.layers.params())

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

    def forward(self, ssf: np.ndarray | None, global_vec: np.ndarray | None = None) -> np.ndarray:
        inputs = {"ssf": ssf, "global": global_vec}
        outs = []
        for b in self.branches:
            if inputs[b.input] is None:
                raise ValidationError(f"{self.kind} model needs {b.input} input for branch {b.name!r}")
            outs.append(b.layers.forward(np.asarray(inputs[b.input], dtype=np.float64)))
        return self.trunk.forward(outs[0] if len(outs) == 1 else fuse_concat(*outs))

    def backward(self, grad_logits: np.ndarray, frozen: set[str] | tuple[str, ...] = ()) -> None:
        """Backpropagate, skipping each branch whose parameter names are all in ``frozen``."""
        grad = self.trunk.backward(grad_logits)
        start = 0
        for b, width in zip(self.branches, self._widths):
            if not all(name in frozen for name, _ in b.layers.params()):
                b.layers.backward(grad[:, start : start + width])
            start += width

    def descriptor(self) -> dict:
        d = {"model": self.kind, **self._desc}
        for b in self.branches:
            d.update(b.desc)
        return d

    def sample_inputs(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Batch-1 zero inputs ``(ssf, global_vec)``; None for an input no branch reads."""
        inputs = {"ssf": None, "global": None}
        for b in self.branches:
            inputs[b.input] = b.sample()
        return inputs["ssf"], inputs["global"]

    def flop_count(self) -> int:
        return (sum(b.layers.flop_count(b.sample().shape)[0] for b in self.branches)
                + self.trunk.flop_count((1, sum(self._widths)))[0])


def _ssf_branch(head_kind: str, subset: FeatureSubset, num_categories: int,
                rng: np.random.Generator | None, *,
                hidden: tuple[int, ...] = (512, 1024),
                pc_channels: tuple[int, int] = (32, 64),
                head_width: int = 1024) -> tuple[Branch, int]:
    """The ``head`` branch and the width it emits."""
    if head_kind not in HEAD_KINDS:
        raise ValidationError(f"unknown head kind {head_kind!r}; expected one of {HEAD_KINDS}")
    k = subset.num_columns
    if head_kind == "cnn":
        head = build_ssf_cnn(SsfCnnConfig(num_categories, k, head_width), rng)
        width, extra = head_width, {"head_width": head_width}
    elif head_kind == "nn":
        cfg = SsfNnConfig(num_categories, k, tuple(hidden))
        head = build_ssf_nn(cfg, rng)
        width, extra = cfg.hidden[-1], {"hidden": list(cfg.hidden)}
    else:
        if subset.spec_string() != "pc":
            raise ValidationError("the 1-D conv head consumes the count column only; use subset 'pc'")
        cfg = PcConv1dConfig(num_categories, tuple(pc_channels), head_width)
        head = build_pc_conv1d_head(cfg, rng)
        width, extra = head_width, {"pc_channels": list(cfg.channels), "head_width": head_width}
    layers = Sequential([("input", SsfInput(num_categories, subset, head_kind)), ("head", head)])
    desc = {"head": head_kind, "subset": subset.spec_string(),
            "num_categories": num_categories, **extra}
    return Branch("head", "ssf", layers, desc), width


def _global_branch(cfg: FusionConfig, rng: np.random.Generator | None) -> Branch:
    layers = Sequential([("global_fc1", Dense(cfg.global_input_width, cfg.global_width, rng=rng)),
                         ("relu", ReLU())])
    return Branch("global_fc1", "global", layers,
                  {"global_input_width": cfg.global_input_width, "global_width": cfg.global_width})


def build_semantic_classifier(head_kind: str, subset: FeatureSubset, num_categories: int,
                              num_classes: int, rng: np.random.Generator | None,
                              **head_options) -> Model:
    if num_classes < 2:
        raise ValidationError(f"num_classes must be >= 2, got {num_classes}")
    head, width = _ssf_branch(head_kind, subset, num_categories, rng, **head_options)
    trunk = Sequential([("classifier", Dense(width, num_classes, rng=rng))])
    return Model("semantic", [head], trunk, {"num_classes": num_classes})


def build_global_classifier(cfg: FusionConfig, rng: np.random.Generator | None) -> Model:
    branch = _global_branch(cfg, rng)
    trunk = Sequential([("classifier", Dense(cfg.global_width, cfg.num_classes, rng=rng))])
    return Model("global", [branch], trunk, {"num_classes": cfg.num_classes})


def build_fusion_classifier(cfg: FusionConfig, head_kind: str, subset: FeatureSubset,
                            num_categories: int, rng: np.random.Generator | None,
                            base: Checkpoint | None = None,
                            **head_options) -> Model:
    """Assemble the fusion model, optionally loading the global branch from step 1."""
    # Weights are drawn head first, then global_fc1, fc3 and fc4, as seeded
    # checkpoints were always built; the branches are listed global-first.
    head, width = _ssf_branch(head_kind, subset, num_categories, rng, **head_options)
    if width != cfg.semantic_width:
        raise ValidationError(f"head emits width {width}, fusion expects {cfg.semantic_width}")
    glob = _global_branch(cfg, rng)
    trunk = Sequential([("fc3", Dense(cfg.fused_width, cfg.fc3_width, rng=rng)),
                        ("relu", ReLU()),
                        ("fc4", Dense(cfg.fc3_width, cfg.num_classes, rng=rng))])
    model = Model("fusion", [glob, head], trunk,
                  {"num_classes": cfg.num_classes, "semantic_width": cfg.semantic_width,
                   "fc3_width": cfg.fc3_width})
    if base is not None:
        if base.descriptor.get("model") != "global":
            raise CheckpointError(f"expected a step-1 global checkpoint, got model "
                                  f"{base.descriptor.get('model')!r}")
        for field in ("global_input_width", "global_width", "num_classes"):
            if base.descriptor.get(field) != model.descriptor()[field]:
                raise CheckpointError(f"step-1 checkpoint {field}={base.descriptor.get(field)} "
                                      f"does not match fusion config {model.descriptor()[field]}")
        for key, tensor in glob.layers.params():
            if key not in base.params:
                raise CheckpointError(f"step-1 checkpoint is missing {key!r}")
            if base.params[key].shape != tensor.data.shape:
                raise CheckpointError(f"step-1 block {key!r} has shape {base.params[key].shape}, "
                                      f"expected {tensor.data.shape}")
            tensor.data = np.array(base.params[key], dtype=np.float64, order="C")
    return model


def build_from_descriptor(desc: dict, rng: np.random.Generator | None = None) -> Model:
    """Rebuild a model from a checkpoint's architecture descriptor."""
    kind = desc.get("model")
    if kind not in ("semantic", "global", "fusion"):
        raise CheckpointError(f"unknown model kind {kind!r} in descriptor")
    options = {key: desc[key] for key in ("hidden", "pc_channels", "head_width") if key in desc}
    if kind == "semantic":
        return build_semantic_classifier(desc["head"], FeatureSubset.parse(desc["subset"]),
                                         desc["num_categories"], desc["num_classes"], rng,
                                         **options)
    cfg = FusionConfig(**{key: desc[key] for key in ("global_input_width", "num_classes",
                                                      "global_width", "semantic_width",
                                                      "fc3_width") if key in desc})
    if kind == "global":
        return build_global_classifier(cfg, rng)
    return build_fusion_classifier(cfg, desc["head"], FeatureSubset.parse(desc["subset"]),
                                   desc["num_categories"], rng, **options)


def load_model(ckpt: Checkpoint) -> Model:
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


def train(plan: TrainPlan, data: LoadedDataset, model: Model) -> tuple[Checkpoint, list[dict]]:
    """Run the training loop; returns the final checkpoint and per-epoch metrics."""
    kind = model.kind
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
            model.backward(grad, frozen)
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
