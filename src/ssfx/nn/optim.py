"""Adam with decoupled weight decay.

Decay is applied as a multiplicative shrink ``p *= 1 - lr * wd`` before the
moment-based update, so it never leaks into the running moments:

    m_t = b1 * m_{t-1} + (1 - b1) * g
    v_t = b2 * v_{t-1} + (1 - b2) * g^2
    p  -= lr * (m_t / (1 - b1^t)) / (sqrt(v_t / (1 - b2^t)) + eps)

The update walks each parameter in blocks of ``BLOCK`` elements and does
every operation in place or in two block-sized scratch arrays, so a step
allocates nothing in proportion to the parameter count. Each element still
goes through the same IEEE operations in the same order as the full-array
formula above, so the result is bit-identical to it.

The moments start unwritten (``np.empty``), and the first step writes them
without reading them: ``m_1 = (1 - b1) * g + 0.0`` and
``v_1 = g^2 * (1 - b2)``. These are the bits of ``0 * b + x`` that the rule
gives from zero moments: ``0.0 * b`` is +0.0, and ``x + 0.0`` equals
``0.0 + x`` for every ``x``, a -0.0 becoming +0.0 in both; ``v_1`` is never
-0.0, so adding +0.0 to it would change no bit. A moment of a few
megabytes or more arrives as fresh pages, so reading zeros first would
fault every page twice, once to map the zero page and once to copy it on
the write. A step counts (``step_count``) only once every range has been
updated, so a first step that raised part way is run again as a first
step, and no step reads a moment that no step wrote.

Inside a ``helper.helper_scope``, ``step()`` updates the block ranges in
two halves with ``Helper.split``, alternate ranges to each, so on two CPUs
one half runs on the scope's helper thread; it does so whatever the BLAS
thread count, as the update calls no BLAS. Backward has ended by then
(``models.train`` calls ``step()`` after ``Model.backward``), so no range
is read before its gradient is final. The bits cannot depend on which
thread took a range: the rule is elementwise, both halves compute the
same bias corrections from the step number, and each half has its own
scratch pair.
"""
from __future__ import annotations

import math

import numpy as np

from ..mask import ValidationError
from .helper import active
from .tensor import Tensor

# Elements per block: 32768 f64 is 256 KiB per array, so a block of the
# parameter, gradient, both moments and both scratch arrays stays in cache
# across the dozen passes the update makes over it.
BLOCK = 32768
# The moments of Kingma & Ba ("Adam", ICLR 2015); every ssfx model trains with them.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def check_rates(learning_rate: float, weight_decay: float) -> None:
    """Refuse a learning rate that is not positive and finite, a weight decay
    that is not non-negative and finite, and a product of the two of 1 or more."""
    if not 0 < learning_rate < math.inf:
        raise ValidationError(f"learning rate must be positive and finite, got {learning_rate}")
    if not 0 <= weight_decay < math.inf:
        raise ValidationError(f"weight decay must be non-negative and finite, got {weight_decay}")
    if learning_rate * weight_decay >= 1:
        raise ValidationError(
            f"learning rate x weight decay must be below 1, got {learning_rate} x "
            f"{weight_decay}: the decay shrink factor would be zero or negative")


class Adam:
    def __init__(self, params: list[tuple[str, Tensor]], learning_rate: float,
                 weight_decay: float = 0.0) -> None:
        check_rates(learning_rate, weight_decay)
        self.params = list(params)
        self.lr = learning_rate
        self.weight_decay = weight_decay
        self.step_count = 0
        # Unwritten until the first step writes them (see the module docstring).
        self._m = [np.empty(t.data.size) for _, t in self.params]
        self._v = [np.empty(t.data.size) for _, t in self.params]
        self._scratch = (self._scratch_pair(), self._scratch_pair())  # one per half

    def _scratch_pair(self) -> tuple[np.ndarray, np.ndarray]:
        size = min(BLOCK, max((t.data.size for _, t in self.params), default=0))
        return np.empty(size), np.empty(size)

    def step(self) -> None:
        """Update every parameter, each of which must have a gradient. An error
        raised on the helper's half is raised here once the other half ends.
        A step counts only once both halves have ended without one."""
        for name, p in self.params:
            if p.grad is None:
                raise ValidationError(f"parameter {name!r} has no gradient to step on")
        t = self.step_count + 1
        ranges = [(i, lo, min(lo + BLOCK, p.size))
                  for i, (_, p) in enumerate(self.params) for lo in range(0, p.size, BLOCK)]
        helper = active()
        if helper is None:
            self._update(ranges, t, self._scratch[0])
        else:
            helper.split(lambda: self._update(ranges[0::2], t, self._scratch[0]),
                         lambda: self._update(ranges[1::2], t, self._scratch[1]))
        self.step_count = t

    def _update(self, ranges: list[tuple[int, int, int]], t: int,
                scratch: tuple[np.ndarray, np.ndarray]) -> None:
        """Apply the rule of step ``t`` to elements ``lo:hi`` of parameter
        ``i``, one block at most, for each ``(i, lo, hi)`` of ``ranges``."""
        b1, b2, lr, eps = BETA1, BETA2, self.lr, EPS
        bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
        for i, lo, hi in ranges:
            name, p = self.params[i]
            pb, gb = _flat(name, p.data)[lo:hi], _flat(name, p.grad)[lo:hi]
            mb, vb = self._m[i][lo:hi], self._v[i][lo:hi]
            a, b = scratch[0][: hi - lo], scratch[1][: hi - lo]
            if self.weight_decay:
                pb *= 1.0 - lr * self.weight_decay
            if t == 1:  # 0 * b + x, written without reading the unwritten moments
                np.multiply(gb, 1.0 - b1, out=mb)
                mb += 0.0
                np.multiply(gb, gb, out=vb)
                vb *= 1.0 - b2
            else:
                mb *= b1
                vb *= b2
                np.multiply(gb, 1.0 - b1, out=a)
                mb += a
                np.multiply(gb, gb, out=a)
                a *= 1.0 - b2
                vb += a
            np.divide(mb, bc1, out=a)
            a *= lr
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            pb -= a


def _flat(name: str, arr: np.ndarray) -> np.ndarray:
    """A 1-D view of ``arr``; refuses arrays whose flat form would be a copy."""
    if not arr.flags.c_contiguous:
        raise ValidationError(f"parameter {name!r}: Adam updates C-contiguous arrays in "
                              f"place, got a non-contiguous array of shape {arr.shape}")
    return arr.reshape(-1)
