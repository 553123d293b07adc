"""Parameter container used by the network layers."""
from __future__ import annotations

import numpy as np

from ..mask import ValidationError


class Tensor:
    """A float64 array of up to 4 dimensions with a lazily allocated gradient.

    The gradient array outlives ``zero_grad`` as a spare that the next
    backward may write into (``grad_buffer``), so a training step need not
    map fresh pages for a large gradient; ``release`` drops it.
    """

    __slots__ = ("data", "grad", "_spare")

    def __init__(self, data) -> None:
        arr = np.asarray(data, dtype=np.float64, order="C")
        if arr.ndim > 4:
            raise ValidationError(f"tensors are limited to 4 dimensions, got {arr.ndim}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self._spare: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def grad_buffer(self) -> np.ndarray | None:
        """An array the caller may overwrite with this step's gradient and
        then pass to ``add_grad``: the array ``zero_grad`` last cleared.

        None when there is no such array yet, or when a gradient is pending
        (a second backward accumulates into it, so it needs a fresh array).
        """
        return self._spare if self.grad is None else None

    def add_grad(self, g: np.ndarray) -> None:
        """Accumulate ``g`` into the gradient slot.

        On first use after ``zero_grad`` the slot takes ``g`` itself, without
        a copy, when it is a C-contiguous float64 array; later calls add into
        it in place. The caller gives ``g`` up: it must hand over a fresh
        array or the one ``grad_buffer`` gave, and must not read or write it
        afterwards.
        """
        if g.shape != self.data.shape:
            raise ValidationError(f"gradient shape {g.shape} does not match parameter shape {self.data.shape}")
        if self.grad is None:
            self.grad = np.require(g, np.float64, ("C", "W"))
        else:
            self.grad += g

    def zero_grad(self) -> None:
        """Clear the gradient. Its array stays with the tensor as the spare
        that ``grad_buffer`` hands out, so a later backward may overwrite it:
        copy a gradient that must outlive this call."""
        if self.grad is not None:
            self._spare, self.grad = self.grad, None

    def release(self) -> None:
        """Drop the gradient and the spare array."""
        self.grad = self._spare = None
