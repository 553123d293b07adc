"""Parameter container used by the network layers."""
from __future__ import annotations

import numpy as np

from ..mask import ValidationError


class Tensor:
    """A float64 array of up to 4 dimensions and its gradient.

    ``grad`` is None until the first backward; from then on it is one array
    that each backward overwrites with that pass's gradient (nothing
    accumulates), so a training step maps no fresh pages for it. It lives
    until ``release``.
    """

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

    def grad_array(self) -> np.ndarray:
        """The gradient array for backward to overwrite, allocated on first use."""
        if self.grad is None:
            self.grad = np.empty_like(self.data, order="C")
        return self.grad

    def release(self) -> None:
        """Drop the gradient array."""
        self.grad = None
