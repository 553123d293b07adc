"""Parameter container used by the network layers."""
from __future__ import annotations

import numpy as np

from ..mask import ValidationError


class Tensor:
    """A float64 array of up to 4 dimensions with a lazily allocated gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data) -> None:
        arr = np.asarray(data, dtype=np.float64, order="C")
        if arr.ndim > 4:
            raise ValidationError(f"tensors are limited to 4 dimensions, got {arr.ndim}")
        self.data = arr
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def add_grad(self, g: np.ndarray) -> None:
        """Accumulate ``g`` into the gradient slot.

        On first use the slot takes ``g`` itself, without a copy, when it is a
        C-contiguous float64 array; later calls add into it in place. The
        caller gives ``g`` up: it must hand over a fresh array and must not
        read or write it afterwards.
        """
        if g.shape != self.data.shape:
            raise ValidationError(f"gradient shape {g.shape} does not match parameter shape {self.data.shape}")
        if self.grad is None:
            self.grad = np.require(g, np.float64, ("C", "W"))
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None
