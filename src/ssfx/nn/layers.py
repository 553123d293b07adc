"""Network layers with explicit forward/backward passes.

Convolutions are 3x3 (3 taps in 1-D) stride-1 cross-correlations with
zero padding 1, so each keeps its input's spatial size; they are the only
kind ssfx's heads use. They run as GEMMs over an im2col matrix
(Chellapilla et al., 2006): forward copies every receptive window of a
channels-last padded input into one row of a ``(B*Ho*Wo, C*kh*kw)``
matrix, multiplies it by the flattened kernel once, and keeps the matrix
for backward. Backward gets the weight gradient as one GEMM with that
matrix and the input gradient as one GEMM per kernel tap, scatter-added
into a padded buffer. ``Conv1D`` is a height-1 ``Conv2D``.

Inside ``helper.helper_scope``, which ``models.train`` opens, and when the
BLAS runs one thread, a forward product of at least ``SPLIT_MACS``
multiply-adds runs in two halves: on two CPUs one on the calling thread
and one on the scope's helper thread, on one CPU one after the other, so
the bits do not depend on the CPU count. A conv splits the batch: each
half pads its own samples, writes their rows of the im2col matrix and
multiplies them into its rows of the output. ``Dense`` splits the output
features, so each thread reads half of the weight instead of all of it.
With OpenBLAS 0.3.31 (Haswell kernels), every head at the default widths
gave the bytes of the unsplit forward, which ``evaluate`` and ``predict``
compute, at L = 13, 37, 40, 100 and 150 and batches 32, 28, 4 and 1;
other shapes and BLAS builds were not checked. With one BLAS thread,
B=32 and L=40, the ``cnn`` head's forward went from 28.8 to 15.5 ms for
conv2, from 38.8 to 19.4 ms for conv3 and from 25.1 to 13.3 ms for fc on a
2-vCPU VM.

Backward splits under the same gate, sized by the same product: the
calling thread computes the input gradient (a conv's nine tap GEMMs and
their scatter-add) while the helper computes the weight and bias
gradients. Each half is a whole product of its own, so the bits are those
of the unsplit backward at any shape. The gradient arrays are taken on the
calling thread before the split, so the first backward allocates them
from that thread's heap rather than the helper's.

Every layer caches what its backward pass needs during forward (``Layer``
holds that contract); calling backward without a cached forward is a
usage error. With ``input_grad=False``, ``Dense`` and the convs return
None and skip the input gradient: a model's inputs are data and need none.

Backward overwrites each parameter's gradient array (``Tensor.grad_array``)
with the gradient of the batch it was given; nothing accumulates across calls.
``Sequential`` has no backward: ``models.Model.backward`` walks its layers.

The largest arrays of a training step live from one step to the next
instead of being allocated fresh each time: a conv layer writes its im2col
matrix into a workspace it keeps (a prefix of it for a smaller batch; a
larger batch replaces it), and every weight and bias gradient is written
into its parameter's one gradient array. Arrays this large come straight
from the kernel, so a fresh one costs a page fault per 4 KiB page on first
write. ``release`` drops these buffers and every forward cache;
``models.train`` calls it when it returns or raises, and
``models.predict``, ``evaluation.evaluate`` and ``measure_complexity`` when
their forward passes are done.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mask import ValidationError
from .helper import Helper, active
from .tensor import Tensor

__all__ = [
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
]


class ShapeError(ValidationError):
    """An activation or parameter has the wrong shape."""


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer's kind and widths. Checkpoints do
    not store it; they store only the model descriptor the layers are rebuilt from."""

    kind: str  # conv2d | conv1d | fully_connected | relu | flatten
    in_channels: int = 0
    out_channels: int = 0

    def __post_init__(self) -> None:
        kinds = ("conv2d", "conv1d", "fully_connected", "relu", "flatten")
        if self.kind not in kinds:
            raise ValidationError(f"unknown layer kind {self.kind!r}")


# Kernel extent per spatial axis and zero padding of every conv.
KERNEL = 3
PADDING = 1


# Products of at least this many multiply-adds run in two halves inside a
# helper scope (``_splitter``); so do the two products of a backward, each
# as large as its forward product. At batch 32 and L=40 that is the ``cnn``
# head's conv2 and conv3 (472M each) and fc (419M), ``global_fc1`` (67M),
# the fusion trunk's fc3 (34M) and the ``nn`` head's fc2 (16.8M).
# Below it a half's work barely covers handing it over: the ``cnn`` conv1
# (3.7M) took 0.96 ms whole or split, and at batch 16 (1.8M) 0.49 ms whole
# against 0.59 ms split.
SPLIT_MACS = 2**23


def _splitter(macs: int) -> Helper | None:
    """The open scope's helper, if it splits products and one of ``macs``
    multiply-adds is worth splitting."""
    helper = active()
    return helper if helper is not None and helper.splits and macs >= SPLIT_MACS else None


def he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """What every layer shares: no parameters unless it says otherwise, and a
    forward cache that one backward call consumes."""

    _cache = None

    def params(self) -> list[tuple[str, Tensor]]:
        return []

    def release(self) -> None:
        """Drop the forward cache and the parameters' gradient arrays."""
        self._cache = None
        for _, tensor in self.params():
            tensor.release()

    def _take_cache(self):
        """Hand backward what forward cached, and clear it."""
        cache = self._cache
        if cache is None:
            raise RuntimeError(f"{type(self).__name__.lower()} backward called before forward")
        self._cache = None
        return cache


class Conv2D(Layer):
    """2-D cross-correlation over (batch, channels, height, width) inputs."""

    kind = "conv2d"
    kernel_shape = (KERNEL, KERNEL)

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.spec = LayerSpec(self.kind, in_channels, out_channels)
        shape = (out_channels, in_channels, *self.kernel_shape)
        if rng is None:
            weight = np.zeros(shape)
        else:
            weight = he_uniform(rng, shape, in_channels * int(np.prod(self.kernel_shape)))
        self.weight = Tensor(weight)
        self.bias = Tensor(np.zeros(out_channels))
        self._workspace: np.ndarray | None = None

    def _geometry(self) -> tuple[int, int, int, int]:
        """Kernel height and width, then zero padding along height and width."""
        return KERNEL, KERNEL, PADDING, PADDING

    def params(self) -> list[tuple[str, Tensor]]:
        return [("weight", self.weight), ("bias", self.bias)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"conv2d input must be 4-D, got shape {x.shape}")
        return self._forward(x)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        kh, kw, ph, pw = self._geometry()
        w4 = self.weight.data.reshape(self.spec.out_channels, self.spec.in_channels, kh, kw)
        o, c = w4.shape[:2]
        b, _, h, w = x.shape
        if x.shape[1] != c:
            raise ShapeError(f"{self.kind} expects {c} input channels, got {x.shape[1]}")
        ho, wo = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
        rows = ho * wo                                           # column rows per sample
        cols = self._columns(b * rows, kh * kw * c)
        kernel = w4.transpose(0, 2, 3, 1).reshape(o, kh * kw * c).T
        out = np.empty((b * rows, o))

        def run(lo: int, hi: int) -> None:
            """Samples ``lo:hi``: their channels-last padded input, whose windows
            flattened in (i, j, c) order are their rows of the column matrix,
            and the GEMM of those rows."""
            padded = np.zeros((hi - lo, h + 2 * ph, w + 2 * pw, c))
            padded[:, ph : ph + h, pw : pw + w, :] = x[lo:hi].transpose(0, 2, 3, 1)
            windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
            part = cols[lo * rows : hi * rows]                   # windows: (n, ho, wo, c, kh, kw)
            np.copyto(part.reshape(hi - lo, ho, wo, kh, kw, c), windows.transpose(0, 1, 2, 4, 5, 3))
            np.matmul(part, kernel, out=out[lo * rows : hi * rows])

        helper = _splitter(b * rows * kernel.size) if b > 1 else None
        if helper is None:
            run(0, b)
        else:
            mid = (b + 1) // 2
            helper.split(lambda: run(0, mid), lambda: run(mid, b))
        out += self.bias.data
        self._cache = (x.shape, cols)
        return out.reshape(b, ho, wo, o).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        x_shape, cols = self._take_cache()
        kh, kw, ph, pw = self._geometry()
        w4 = self.weight.data.reshape(self.spec.out_channels, self.spec.in_channels, kh, kw)
        o, c = w4.shape[:2]
        b, _, h, w = x_shape
        ho, wo = grad_out.shape[2], grad_out.shape[3]
        g = grad_out.transpose(0, 2, 3, 1).reshape(b * ho * wo, o)

        w_grad, b_grad = self.weight.grad_array(), self.bias.grad_array()

        def weight_grad() -> None:
            np.sum(g, axis=0, out=b_grad)
            np.copyto(w_grad.reshape(o, c, kh, kw),
                      (g.T @ cols).reshape(o, kh, kw, c).transpose(0, 3, 1, 2))

        if not input_grad:
            weight_grad()
            return None
        # Input gradient: one GEMM per kernel tap, scatter-added into a
        # channels-last padded buffer.
        taps = np.ascontiguousarray(w4.transpose(2, 3, 0, 1))   # (kh, kw, out, in)
        grad_padded = np.zeros((b, h + 2 * ph, w + 2 * pw, c))

        def data_grad() -> None:
            for i in range(kh):
                for j in range(kw):
                    grad_padded[:, i : i + ho, j : j + wo, :] += (g @ taps[i, j]).reshape(b, ho, wo, c)

        helper = _splitter(len(g) * self.weight.size)
        if helper is None:
            weight_grad()
            data_grad()
        else:
            helper.split(data_grad, weight_grad)
        return grad_padded[:, ph : ph + h, pw : pw + w, :].transpose(0, 3, 1, 2)

    def _columns(self, rows: int, width: int) -> np.ndarray:
        """A ``(rows, width)`` view of the workspace, grown if it is too small."""
        if self._workspace is None or self._workspace.size < rows * width:
            self._workspace = None   # let the old one go before allocating
            self._workspace = np.empty(rows * width)
        return self._workspace[: rows * width].reshape(rows, width)

    def release(self) -> None:
        """Drop the forward cache, the im2col workspace and gradient arrays."""
        super().release()
        self._workspace = None


class Conv1D(Conv2D):
    """1-D cross-correlation over (batch, channels, length) inputs.

    Runs as a height-1 ``Conv2D`` with a 1 x 3 kernel; the weight keeps its
    (out, in, 3) shape.
    """

    kind = "conv1d"
    kernel_shape = (KERNEL,)

    def _geometry(self) -> tuple[int, int, int, int]:
        return 1, KERNEL, 0, PADDING

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ShapeError(f"conv1d input must be 3-D, got shape {x.shape}")
        return self._forward(x[:, :, None, :])[:, :, 0, :]

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        grad_in = super().backward(grad_out[:, :, None, :], input_grad)
        return None if grad_in is None else grad_in[:, :, 0, :]


class Dense(Layer):
    """Affine layer y = W x + b with W of shape (out_features, in_features)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.spec = LayerSpec("fully_connected", in_features, out_features)
        if rng is None:
            weight = np.zeros((out_features, in_features))
        else:
            weight = he_uniform(rng, (out_features, in_features), in_features)
        self.weight = Tensor(weight)
        self.bias = Tensor(np.zeros(out_features))

    def params(self) -> list[tuple[str, Tensor]]:
        return [("weight", self.weight), ("bias", self.bias)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ShapeError(f"dense input must be 2-D, got shape {x.shape}")
        if x.shape[1] != self.spec.in_channels:
            raise ShapeError(f"dense expects {self.spec.in_channels} input features, "
                             f"got {x.shape[1]}")
        self._cache = x
        w = self.weight.data
        helper = _splitter(x.shape[0] * w.size) if w.shape[0] >= 16 else None
        if helper is None:
            return x @ w.T + self.bias.data
        # Halves of a multiple of 8 output features. With OpenBLAS 0.3.31
        # (Haswell kernels), each half then had the bits of the whole product
        # in 300 random shapes whose width was a multiple of 8; split at
        # width // 2, 46 and 58 of two sets of 150 random shapes differed.
        out, h = np.empty((x.shape[0], w.shape[0])), w.shape[0] // 16 * 8
        helper.split(lambda: np.matmul(x, w[:h].T, out=out[:, :h]),
                     lambda: np.matmul(x, w[h:].T, out=out[:, h:]))
        out += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        x = self._take_cache()
        w_grad, b_grad = self.weight.grad_array(), self.bias.grad_array()

        def weight_grad() -> None:
            np.matmul(grad_out.T, x, out=w_grad)
            np.sum(grad_out, axis=0, out=b_grad)

        if not input_grad:
            weight_grad()
            return None
        grad_in = np.empty(x.shape)

        def data_grad() -> None:
            np.matmul(grad_out, self.weight.data, out=grad_in)

        helper = _splitter(len(x) * self.weight.size)
        if helper is None:
            weight_grad()
            data_grad()
        else:
            helper.split(data_grad, weight_grad)
        return grad_in


class ReLU(Layer):
    """Elementwise max(x, 0); the subgradient at exactly 0 is 0."""

    spec = LayerSpec("relu")

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x > 0
        return np.where(self._cache, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return np.where(self._take_cache(), grad_out, 0.0)


class Flatten(Layer):
    """Collapse every non-batch axis, C-order."""

    spec = LayerSpec("flatten")

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._take_cache())


class Sequential:
    """A named chain of layers applied in order."""

    def __init__(self, layers: list[tuple[str, object]]) -> None:
        names = [name for name, _ in layers]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate layer names in {names}")
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for _, layer in self.layers:
            x = layer.forward(x)
        return x

    def params(self) -> list[tuple[str, Tensor]]:
        out = []
        for name, layer in self.layers:
            for pname, tensor in layer.params():
                out.append((f"{name}.{pname}", tensor))
        return out

    def release(self) -> None:
        """Drop every buffer the layers keep between calls."""
        for _, layer in self.layers:
            layer.release()
