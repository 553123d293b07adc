"""Classifier heads over the feature matrix, fusion with a global vector,
and the two-step training protocol.

Three heads emit a fixed-width semantic feature vector from an L x k
feature matrix: a 2-D conv stack, a dense stack, and a 1-D conv stack over
the count column alone. ``_ssf_branch`` builds all three and holds their
default widths.

Every model is one graph: an ordered list of named branches, each reading
one input (``ssf``, the feature matrix, or ``global``, an ingested feature
vector) through one flat ``Sequential`` of its own and stating the width it
emits (``Branch.width``, set by the builder); a concatenation of the branch
outputs, global-first; and a trunk of FC layers producing logits.
A semantic model is the ``head`` branch under a ``classifier`` trunk; a
global model is the ``global_fc1`` branch under a ``classifier`` trunk; the
fusion model is both branches under an ``fc3``/ReLU/``fc4`` trunk.

Training runs in two steps: step 1 fits the global model on the global
vectors alone; step 2 loads those weights into the fusion model's global
branch, freezes them, and trains the semantic head plus the fusion FC
layers. Backward skips wholly frozen branches and gives the inputs no gradient.
A wholly frozen branch maps each sample to the same output for the whole of
a ``train`` call, so ``train`` runs it once over the dataset, before the
first step, and every step and test pass reads its output rows instead.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .data import LoadedDataset, ordered_batches, shuffled_batches, usable_cpus
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
    Layer,
    ReLU,
    Sequential,
    Tensor,
    softmax_cross_entropy,
)
from .nn.optim import check_rates

__all__ = [
    "BATCH_SIZE",
    "CNN_CHANNELS",
    "HEAD_KINDS",
    "STAGES",
    "FusionConfig",
    "TrainPlan",
    "SsfInput",
    "Branch",
    "Model",
    "build_semantic_classifier",
    "build_global_classifier",
    "build_fusion_classifier",
    "check_descriptor",
    "build_from_descriptor",
    "load_model",
    "fuse_concat",
    "param_count",
    "train",
    "predict",
    "forward_batches",
    "score_split",
]

# Samples per training step, and per batch of every forward-only pass.
BATCH_SIZE = 32
CNN_CHANNELS = (64, 128, 64)
HEAD_KINDS = ("cnn", "nn", "pc1d")
STAGES = ("semantic_only", "step1_global", "step2_fusion")


@dataclass(frozen=True)
class FusionConfig:
    global_input_width: int
    num_classes: int
    global_width: int = 1024
    semantic_width: int = 1024
    fc3_width: int = 512

    def __post_init__(self) -> None:
        _check_widths(global_input_width=self.global_input_width, global_width=self.global_width,
                      semantic_width=self.semantic_width, fc3_width=self.fc3_width)
        if self.num_classes < 2:
            raise ValidationError(f"num_classes must be >= 2, got {self.num_classes}")

    @property
    def fused_width(self) -> int:
        return self.global_width + self.semantic_width


@dataclass(frozen=True)
class TrainPlan:
    stage: str
    epochs: int = 100
    batch_size: int = BATCH_SIZE
    learning_rate: float = 1e-4
    weight_decay: float = 5e-4
    seed: int = 0
    frozen: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValidationError(f"unknown training stage {self.stage!r}; expected one of {STAGES}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be positive")
        check_rates(self.learning_rate, self.weight_decay)


def _check_widths(**widths) -> None:
    """Refuse a width below 1, and an empty width list or one holding a width below 1."""
    for name, value in widths.items():
        values = tuple(value) if isinstance(value, (tuple, list)) else (value,)
        if not values or min(values) < 1:
            raise ValidationError(f"{name} must be positive, got {value!r}")


def fuse_concat(global_vec: np.ndarray, semantic_vec: np.ndarray) -> np.ndarray:
    """Concatenate global features then semantic features along the last axis."""
    g = np.asarray(global_vec, dtype=np.float64)
    s = np.asarray(semantic_vec, dtype=np.float64)
    if g.ndim != s.ndim or g.ndim not in (1, 2):
        raise ValidationError(f"fuse_concat expects matching 1-D or 2-D inputs, got {g.shape} and {s.shape}")
    if not (np.isfinite(g).all() and np.isfinite(s).all()):
        raise ValidationError("fuse_concat inputs must be finite")
    return np.concatenate([g, s], axis=-1)


class SsfInput(Layer):
    """First layer of an ``ssf`` branch: picks a subset's columns of a
    (B, L, 5) feature batch and lays them out as its head reads them.

    The feature batch is data, so no backward call reaches this layer.
    """

    def __init__(self, num_categories: int, subset: FeatureSubset, head_kind: str) -> None:
        self.num_categories = num_categories
        self.columns = list(subset.column_indices())
        self.head_kind = head_kind

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


@dataclass
class Branch:
    """One input path of a model.

    ``input`` names what the branch reads: ``ssf`` for (B, L, 5) feature
    batches, ``global`` for (B, W) global vectors. ``desc`` holds the
    descriptor keys that rebuild the branch, and ``width`` is the width of
    its output. Parameter names are those of ``layers``, so a branch names
    its layers with their checkpoint prefix.
    """

    name: str
    input: str
    layers: Sequential
    desc: dict
    width: int


class Model:
    """Branches concatenated global-first, then a trunk producing logits."""

    def __init__(self, kind: str, branches: list[Branch], trunk: Sequential, desc: dict) -> None:
        self.kind = kind
        self.branches = list(branches)
        self.trunk = trunk
        self._desc = dict(desc)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [p for b in self.branches for p in b.layers.params()] + self.trunk.params()

    def global_param_names(self) -> tuple[str, ...]:
        return tuple(name for b in self.branches if b.input == "global"
                     for name, _ in b.layers.params())

    def release(self) -> None:
        """Drop the buffers the layers keep between calls: forward caches,
        im2col workspaces and gradient arrays."""
        for b in self.branches:
            b.layers.release()
        self.trunk.release()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.parameters()}

    def load_arrays(self, params: dict[str, np.ndarray]) -> None:
        """Set every parameter to a copy of the array of its name in ``params``."""
        for tensor, arr in self._match(params):
            tensor.data = np.array(arr, dtype=np.float64, order="C")

    def _match(self, params: dict[str, np.ndarray]) -> list[tuple[Tensor, np.ndarray]]:
        """Pair each parameter with its array in ``params``; the names and
        shapes must match the architecture exactly, and every value be finite."""
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
            if not np.isfinite(arr).all():
                raise CheckpointError(f"parameter {name!r} is not finite")
        return [(own[name], arr) for name, arr in params.items()]

    def forward(self, ssf: np.ndarray | None, global_vec: np.ndarray | None = None) -> np.ndarray:
        inputs = {"ssf": ssf, "global": global_vec}
        outs = []
        for b in self.branches:
            if inputs[b.input] is None:
                raise ValidationError(f"{self.kind} model needs {b.input} input for branch {b.name!r}")
            outs.append(b.layers.forward(np.asarray(inputs[b.input], dtype=np.float64)))
        return self.trunk.forward(outs[0] if len(outs) == 1 else fuse_concat(*outs))

    def backward(self, grad_logits: np.ndarray, frozen: set[str] | tuple[str, ...] = (),
                 on_ready=None) -> None:
        """Backpropagate through the trunk, then through each branch not wholly in ``frozen``
        down to its first parameterised layer, which computes no gradient for the data.

        ``on_ready``, if given, is called with each of a layer's parameter
        tensors right after that layer's backward returns: no later layer reads
        them or writes their gradients, so ``train`` passes ``Adam.ready`` and
        each update can start while the layers below are still being walked.
        """
        def walk(layer, grad, **kwargs):
            grad = layer.backward(grad, **kwargs)
            if on_ready is not None:
                for _, tensor in layer.params():
                    on_ready(tensor)
            return grad

        grad = grad_logits
        for _, layer in reversed(self.trunk.layers):
            grad = walk(layer, grad)
        start = 0
        for b in self.branches:
            g, start = grad[:, start : start + b.width], start + b.width
            if all(name in frozen for name, _ in b.layers.params()):
                continue
            layers = [layer for _, layer in b.layers.layers]
            first = next(i for i, layer in enumerate(layers) if layer.params())
            for layer in reversed(layers[first + 1 :]):
                g = walk(layer, g)
            walk(layers[first], g, input_grad=False)

    def descriptor(self) -> dict:
        d = {"model": self.kind, **self._desc}
        for b in self.branches:
            d.update(b.desc)
        return d

    def sample_inputs(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Batch-1 zero inputs ``(ssf, global_vec)``; None for an input no branch reads."""
        d = self.descriptor()
        return (np.zeros((1, d["num_categories"], 5)) if "num_categories" in d else None,
                np.zeros((1, d["global_input_width"])) if "global_input_width" in d else None)

    def flop_count(self) -> int:
        """FLOPs of a batch-1 forward: two per multiply-accumulate of a weight;
        biases and activations are not counted. A dense weight is applied once.
        A conv weight is applied once per position of the matrix its branch
        reads: L x k for ``cnn``, L for ``pc1d``. Each conv is 3x3 or 3-tap
        with padding 1, so it keeps that size."""
        total = 0
        for chain in [b.layers for b in self.branches] + [self.trunk]:
            first = chain.layers[0][1]
            positions = (first.num_categories * len(first.columns)
                         if isinstance(first, SsfInput) else 1)
            total += sum(2 * layer.weight.size * (positions if isinstance(layer, Conv2D) else 1)
                         for _, layer in chain.layers if isinstance(layer, (Conv2D, Dense)))
        return total


def _ssf_branch(head_kind: str, subset: FeatureSubset, num_categories: int,
                rng: np.random.Generator | None, *,
                hidden: tuple[int, ...] = (512, 1024),
                pc_channels: tuple[int, int] = (32, 64),
                head_width: int = 1024) -> Branch:
    """The ``head`` branch over the subset's L x k columns.

    ``cnn``: three 3x3 convs of ``CNN_CHANNELS`` (stride 1, padding 1, so each
    keeps L x k), then a dense layer to ``head_width``. ``nn``: dense layers of
    the ``hidden`` widths over the flattened matrix. ``pc1d``: two 1-D convs of
    ``pc_channels`` (kernel 3, padding 1) along the count column, then a dense
    layer to ``head_width``. Every conv and dense layer is followed by a ReLU.
    """
    if head_kind not in HEAD_KINDS:
        raise ValidationError(f"unknown head kind {head_kind!r}; expected one of {HEAD_KINDS}")
    _check_widths(num_categories=num_categories, hidden=hidden, pc_channels=pc_channels,
                  head_width=head_width)
    k = subset.num_columns
    if head_kind == "cnn":
        c1, c2, c3 = CNN_CHANNELS
        head = [
            ("conv1", Conv2D(1, c1, rng=rng)),
            ("relu1", ReLU()),
            ("conv2", Conv2D(c1, c2, rng=rng)),
            ("relu2", ReLU()),
            ("conv3", Conv2D(c2, c3, rng=rng)),
            ("relu3", ReLU()),
            ("flatten", Flatten()),
            ("fc", Dense(c3 * num_categories * k, head_width, rng=rng)),
            ("relu4", ReLU()),
        ]
        width, options = head_width, {"head_width": head_width}
    elif head_kind == "nn":
        layers: list[tuple[str, object]] = [("flatten", Flatten())]
        width = num_categories * k
        for i, h in enumerate(hidden, start=1):
            layers += [(f"fc{i}", Dense(width, h, rng=rng)), (f"relu{i}", ReLU())]
            width = h
        head, options = layers, {"hidden": list(hidden)}
    else:
        if subset.spec_string() != "pc":
            raise ValidationError("the 1-D conv head consumes the count column only; use subset 'pc'")
        c1, c2 = pc_channels
        head = [
            ("conv1", Conv1D(1, c1, rng=rng)),
            ("relu1", ReLU()),
            ("conv2", Conv1D(c1, c2, rng=rng)),
            ("relu2", ReLU()),
            ("flatten", Flatten()),
            ("fc", Dense(c2 * num_categories, head_width, rng=rng)),
            ("relu3", ReLU()),
        ]
        width, options = head_width, {"pc_channels": [c1, c2], "head_width": head_width}
    layers = Sequential([("input", SsfInput(num_categories, subset, head_kind)),
                         *((f"head.{name}", layer) for name, layer in head)])
    desc = {"head": head_kind, "subset": subset.spec_string(),
            "num_categories": num_categories, **options}
    return Branch("head", "ssf", layers, desc, width)


def _global_branch(cfg: FusionConfig, rng: np.random.Generator | None) -> Branch:
    layers = Sequential([("global_fc1", Dense(cfg.global_input_width, cfg.global_width, rng=rng)),
                         ("relu", ReLU())])
    desc = {"global_input_width": cfg.global_input_width, "global_width": cfg.global_width}
    return Branch("global_fc1", "global", layers, desc, cfg.global_width)


def build_semantic_classifier(head_kind: str, subset: FeatureSubset, num_categories: int,
                              num_classes: int, rng: np.random.Generator | None,
                              **head_options) -> Model:
    if num_classes < 2:
        raise ValidationError(f"num_classes must be >= 2, got {num_classes}")
    head = _ssf_branch(head_kind, subset, num_categories, rng, **head_options)
    trunk = Sequential([("classifier", Dense(head.width, num_classes, rng=rng))])
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
    # checkpoints were always built; global_fc1 is drawn even when ``base``
    # replaces it, so fc3 and fc4 do not depend on ``base``. The branches are
    # listed global-first.
    head = _ssf_branch(head_kind, subset, num_categories, rng, **head_options)
    if head.width != cfg.semantic_width:
        raise ValidationError(f"head emits width {head.width}, fusion expects {cfg.semantic_width}")
    glob = _global_branch(cfg, rng)
    trunk = Sequential([("fc3", Dense(cfg.fused_width, cfg.fc3_width, rng=rng)),
                        ("relu", ReLU()),
                        ("fc4", Dense(cfg.fc3_width, cfg.num_classes, rng=rng))])
    if base is not None:
        if base.descriptor.get("model") != "global":
            raise CheckpointError(f"expected a step-1 global checkpoint, got model "
                                  f"{base.descriptor.get('model')!r}")
        for field in ("global_input_width", "global_width", "num_classes"):
            if base.descriptor.get(field) != getattr(cfg, field):
                raise CheckpointError(f"step-1 checkpoint {field}={base.descriptor.get(field)} "
                                      f"does not match fusion config {getattr(cfg, field)}")
        step1 = build_global_classifier(cfg, None)
        step1.load_arrays(base.params)
        glob = step1.branches[0]
    return Model("fusion", [glob, head], trunk,
                 {"num_classes": cfg.num_classes, "semantic_width": cfg.semantic_width,
                  "fc3_width": cfg.fc3_width})


# The keys each model kind's descriptor must hold, and the type of every key
# a descriptor may hold; head options and FusionConfig widths have defaults.
_REQUIRED_KEYS = {
    "semantic": ("head", "subset", "num_categories", "num_classes"),
    "global": ("global_input_width", "num_classes"),
    "fusion": ("head", "subset", "num_categories", "global_input_width", "num_classes"),
}
_STR, _INT, _INTS, _INT_PAIR = "a string", "an integer", "a list of integers", "a list of 2 integers"
_KEY_TYPES = {"head": _STR, "subset": _STR, "num_categories": _INT, "num_classes": _INT,
              "global_input_width": _INT, "global_width": _INT, "semantic_width": _INT,
              "fc3_width": _INT, "head_width": _INT, "hidden": _INTS, "pc_channels": _INT_PAIR}


def _has_type(value, kind: str) -> bool:
    if kind == _STR:
        return isinstance(value, str)
    if kind == _INT:
        return isinstance(value, int) and not isinstance(value, bool)
    return (isinstance(value, list) and all(_has_type(v, _INT) for v in value)
            and (kind == _INTS or len(value) == 2))


def check_descriptor(desc: dict) -> dict:
    """Return ``desc`` if it names a model kind, holds every key that kind
    needs, and gives each key it holds the right type; else raise
    ``CheckpointError`` naming the key."""
    kind = desc.get("model")
    if kind not in _REQUIRED_KEYS:
        raise CheckpointError(f"unknown model kind {kind!r} in descriptor")
    for key in _REQUIRED_KEYS[kind]:
        if key not in desc:
            raise CheckpointError(f"{kind} model descriptor lacks key {key!r}")
    for key, kind_of in _KEY_TYPES.items():
        if key in desc and not _has_type(desc[key], kind_of):
            raise CheckpointError(f"descriptor key {key!r} must be {kind_of}, got {desc[key]!r}")
    return desc


def build_from_descriptor(desc: dict, rng: np.random.Generator | None = None) -> Model:
    """Rebuild a model from a checkpoint's architecture descriptor."""
    kind = check_descriptor(desc)["model"]
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
    """Rebuild the model a checkpoint describes, with its parameters.

    The model takes ownership of ``ckpt.params``: its parameters are those
    arrays (copied only if one is not a writable C-ordered float64 array),
    so training the model changes them.
    """
    try:
        model = build_from_descriptor(ckpt.descriptor)
    except MemoryError:
        raise CheckpointError(f"descriptor {ckpt.descriptor} describes a model too large "
                              f"to allocate") from None
    for tensor, arr in model._match(ckpt.params):
        tensor.data = np.require(arr, np.float64, ("C", "W"))
    return model


def param_count(model) -> int:
    return sum(t.size for _, t in model.parameters())


def predict(model, ssf: np.ndarray | None, global_vec: np.ndarray | None = None
            ) -> tuple[int, np.ndarray]:
    """Classify one sample; ties break toward the lowest class index."""
    ssf_b = None if ssf is None else np.asarray(ssf)[None, :, :]
    g_b = None if global_vec is None else np.asarray(global_vec)[None, :]
    try:
        logits = model.forward(ssf_b, g_b)[0]
    finally:
        model.release()
    return int(np.argmax(logits)), logits


def forward_batches(model, data: LoadedDataset, batches):
    """Run ``model.forward`` on each index batch in turn; yields its logits and labels.

    The one loop over a split, for training steps, test passes and ``evaluate``.
    Logits not ``data.num_classes`` wide raise a ``ValidationError`` at the
    first batch, before any step. A caller that runs no backward calls
    ``model.release()`` after, to drop what the layers cached for one.
    """
    for sel in batches:
        g = None if data.global_vecs is None else data.global_vecs[sel]
        logits = model.forward(data.ssf[sel], g)
        if logits.shape[1] != data.num_classes:
            raise ValidationError(f"model has {logits.shape[1]} classes but the dataset has "
                                  f"{data.num_classes}")
        yield logits, data.labels[sel]


def score_split(model, data: LoadedDataset, idx: np.ndarray,
                batch_size: int) -> tuple[float, np.ndarray]:
    """Mean loss and confusion matrix (rows true class, columns predicted) of a
    forward-only pass over a non-empty ``idx`` in batches, adding the batch
    losses in order. The caller releases the model's buffers."""
    confusion = np.zeros((data.num_classes,) * 2, dtype=np.int64)
    total_loss = 0.0
    for logits, labels in forward_batches(model, data, ordered_batches(idx, batch_size)):
        loss, _ = softmax_cross_entropy(logits, labels)
        total_loss += loss * len(labels)
        np.add.at(confusion, (labels, np.argmax(logits, axis=1)), 1)
    return total_loss / len(idx), confusion


_STAGE_MODEL = {"semantic_only": "semantic", "step1_global": "global", "step2_fusion": "fusion"}
# The dataset field that holds each branch input.
_INPUT_FIELD = {"ssf": "ssf", "global": "global_vecs"}


class _Ran(Sequential):
    """Stands in for a frozen branch's ``layers`` once ``train`` has run them
    over the dataset: the same layers and parameters, but ``forward`` returns
    its input, which is then the branch's output rows."""

    def __init__(self, layers: Sequential) -> None:
        super().__init__(layers.layers)
        self.original = layers

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x


def _run_frozen(model: Model, data: LoadedDataset, frozen: set[str],
                batch_size: int) -> LoadedDataset:
    """Run each branch of ``model`` whose parameters are all in ``frozen`` over
    every sample, in ``ordered_batches`` of ``batch_size`` as a test pass does,
    then swap that branch's layers for a ``_Ran`` of them. Returns ``data``
    with each such branch's input replaced by its output rows, so
    ``model.forward`` of a batch reads them."""
    outputs = {}
    for b in model.branches:
        if not all(name in frozen for name, _ in b.layers.params()):
            continue
        field = _INPUT_FIELD[b.input]
        x = getattr(data, field)
        outputs[field] = np.empty((len(x), b.width))
        for sel in ordered_batches(np.arange(len(x)), batch_size):
            outputs[field][sel] = b.layers.forward(np.asarray(x[sel], dtype=np.float64))
        b.layers = _Ran(b.layers)
    return replace(data, **outputs)


def train(plan: TrainPlan, data: LoadedDataset, model: Model) -> tuple[Checkpoint, list[dict]]:
    """Run the training loop; returns the final checkpoint and per-epoch metrics.

    Each epoch gives a ``train`` and a ``test`` line with the split's loss,
    accuracy and ``seconds``: the wall time of the step loop, or of the test
    pass. The checkpoint's ``final_metrics`` keep only loss and accuracy.

    A step's Adam updates start during backward: ``Model.backward`` hands
    each parameter to ``Adam.ready`` as soon as its gradient is final. When
    the process may use two CPUs (``data.usable_cpus``, as for
    ``map_masks``), a helper thread that lives for this call runs those
    updates while the calling thread goes on with backward, and both finish
    what is left in ``Adam.step``; on one CPU, ``step`` runs them all. The
    parameters get the same bits either way (see ``nn.optim``). On every
    exit the helper is joined before the gradient arrays are released.

    A branch whose parameters are all frozen (step 2's ``global_fc1``) runs
    once, over every sample in batches of ``plan.batch_size``, before the
    first step; its time counts in epoch 0's train ``seconds``. For the rest
    of the call that branch's layers pass their input through (``_Ran``) and
    the steps and test passes give them the branch's output rows, so they
    still go through ``model.forward`` and ``model.backward``. The layers are
    put back, and the output rows dropped, on every exit.

    The rows have the bits that running the branch in each step gives: its
    weights do not change during the call, and each row is computed from its
    sample's input alone, in batches of the size the steps use. OpenBLAS
    rounds a GEMM row the same whatever rows sit beside it, but not always
    whatever the row count: a one-row product (a GEMV), or a few rows
    against many, may round differently. So where a short last batch (of
    this pass, of an epoch or of a test pass) has such a count, one sample
    say, rows can differ in the last bits from a forward per step. Runs
    stay reproducible from their seed.
    """
    kind = model.kind
    if _STAGE_MODEL[plan.stage] != kind:
        raise ValidationError(f"stage {plan.stage!r} cannot train a {kind!r} model")
    if kind in ("global", "fusion") and data.global_vecs is None:
        raise ValidationError("dataset has no global feature vectors")
    for split, idx in (("train", data.train_idx), ("test", data.test_idx)):
        if len(idx) == 0:
            raise ValidationError(f"split {split!r} is empty")
    n_train = len(data.train_idx)

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
    try:
        if usable_cpus() >= 2:
            opt.start_helper()
        start = time.perf_counter()
        data = _run_frozen(model, data, frozen, plan.batch_size)
        for epoch in range(plan.epochs):
            epoch_loss = 0.0
            correct = 0
            batches = shuffled_batches(data.train_idx, plan.batch_size, plan.seed, epoch)
            for batch, (logits, labels) in enumerate(forward_batches(model, data, batches)):
                loss, grad = softmax_cross_entropy(logits, labels)
                if not np.isfinite(loss):
                    raise ArithmeticError(f"training diverged: loss {loss} at epoch {epoch}, "
                                          f"batch {batch}")
                model.backward(grad, frozen, opt.ready)
                opt.step()
                epoch_loss += loss * len(labels)
                correct += int((np.argmax(logits, axis=1) == labels).sum())
            trained = time.perf_counter()
            test_loss, confusion = score_split(model, data, data.test_idx, plan.batch_size)
            test_acc = int(np.trace(confusion)) / len(data.test_idx)
            tested = time.perf_counter()
            if not np.isfinite(test_loss):
                raise ArithmeticError(f"training diverged: test loss {test_loss} at epoch {epoch}")
            metrics.append({"epoch": epoch, "split": "train", "loss": epoch_loss / n_train,
                            "accuracy": correct / n_train, "seconds": trained - start})
            metrics.append({"epoch": epoch, "split": "test", "loss": test_loss,
                            "accuracy": test_acc, "seconds": tested - trained})
            start = tested
    finally:
        for b in model.branches:
            if isinstance(b.layers, _Ran):
                b.layers = b.layers.original
        del data
        # Join Adam's helper before the gradient arrays it reads are dropped,
        # then free the moments and the step buffers before the checkpoint
        # copies the parameters; a failed run keeps none of them either.
        opt.close()
        del opt
        model.release()

    for name, t in model.parameters():
        if not np.isfinite(t.data).all():
            raise ArithmeticError(f"training diverged: parameter {name!r} is not finite "
                                  f"after epoch {plan.epochs - 1}")
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
