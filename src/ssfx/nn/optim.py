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

A step's updates may start before backward ends. ``ready(tensor)`` hands
over one parameter whose gradient is final, as ``models.Model.backward``
does right after each layer's backward returns: its block ranges join a
queue. ``step()`` hands over every parameter not yet handed, then the
calling thread updates ranges from the back of the queue until it is empty.
Inside a ``helper.helper_scope`` that started a thread, each hand-over also
gives the helper a job that updates ranges from the front until the queue
is empty; so on two CPUs the update of a layer runs while the calling
thread computes the backward of the layers below it. The helper runs its
jobs one at a time and in order, and a job that finds the queue empty
just returns.
``step()`` returns once the queue is empty and the helper's jobs have
ended. If an error cuts a step short before ``step()``, the helper's jobs
drain the queue and end before the scope joins the helper. The bits
cannot depend on which thread took a range or when: the rule is
elementwise, the bias corrections are fixed when the step's first range is
queued, each thread has its own scratch pair, and no range is queued before
its gradient is final or read after ``step()`` returns.
"""
from __future__ import annotations

import math
import threading
from collections import deque
from concurrent.futures import Future

import numpy as np

from ..mask import ValidationError
from .helper import active, collect
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
        self._m = [np.zeros(t.data.size) for _, t in self.params]
        self._v = [np.zeros(t.data.size) for _, t in self.params]
        self._scratch = self._scratch_pair()
        self._index = {id(t): i for i, (_, t) in enumerate(self.params)}
        self._handed = [False] * len(self.params)  # handed over in the step under way
        self._corrections: tuple[float, float] | None = None  # of the step under way
        self._helper_scratch: tuple[np.ndarray, np.ndarray] | None = None
        # Shared with the helper, under ``_lock``: the queue of (parameter, lo, hi)
        # ranges. ``_drains`` holds the jobs given in the step under way.
        self._lock = threading.Lock()
        self._queue: deque[tuple[int, int, int]] = deque()
        self._drains: list[Future] = []

    def _scratch_pair(self) -> tuple[np.ndarray, np.ndarray]:
        size = min(BLOCK, max((t.data.size for _, t in self.params), default=0))
        return np.empty(size), np.empty(size)

    def ready(self, tensor: Tensor) -> None:
        """Queue the update of ``tensor``, whose gradient is final. A tensor
        this optimizer does not own, such as a frozen one, is ignored."""
        i = self._index.get(id(tensor))
        if i is not None and not self._handed[i]:
            self._hand_over([i])

    def step(self) -> None:
        """Finish one update: queue every parameter not yet handed over (each
        must have a gradient), then update from the back of the queue until it
        is empty and the helper's jobs have ended. An error raised on the
        helper is raised here."""
        try:
            self._hand_over([i for i, handed in enumerate(self._handed) if not handed])
            while (item := self._take_last()) is not None:
                self._update(item, self._scratch)
        finally:
            with self._lock:
                self._queue.clear()
            failed = [e for e in map(collect, self._drains) if e is not None]
            self._drains = []
            self._handed = [False] * len(self.params)
            self._corrections = None
        if failed:
            raise failed[0]

    def _hand_over(self, indices: list[int]) -> None:
        for i in indices:
            name, p = self.params[i]
            if p.grad is None:
                raise ValidationError(f"parameter {name!r} has no gradient to step on")
        if self._corrections is None:
            self.step_count += 1
            t = self.step_count
            self._corrections = (1.0 - BETA1**t, 1.0 - BETA2**t)
        ranges = [(i, lo, min(lo + BLOCK, self.params[i][1].size))
                  for i in indices for lo in range(0, self.params[i][1].size, BLOCK)]
        for i in indices:
            self._handed[i] = True
        helper = active()
        with self._lock:
            self._queue.extend(ranges)
        if helper is not None:
            self._drains.append(helper.submit(self._drain_front))

    def _take_last(self) -> tuple[int, int, int] | None:
        with self._lock:
            return self._queue.pop() if self._queue else None

    def _drain_front(self) -> None:
        """A job for the helper: update ranges from the front of the queue until it is empty."""
        if self._helper_scratch is None:
            self._helper_scratch = self._scratch_pair()
        while True:
            with self._lock:
                if not self._queue:
                    return
                item = self._queue.popleft()
            self._update(item, self._helper_scratch)

    def _update(self, item: tuple[int, int, int],
                scratch: tuple[np.ndarray, np.ndarray]) -> None:
        """Apply the rule to elements ``lo:hi`` of parameter ``i``, one block at most."""
        i, lo, hi = item
        name, t = self.params[i]
        b1, b2, lr, eps = BETA1, BETA2, self.lr, EPS
        bc1, bc2 = self._corrections
        pb, gb = _flat(name, t.data)[lo:hi], _flat(name, t.grad)[lo:hi]
        mb, vb = self._m[i][lo:hi], self._v[i][lo:hi]
        a, b = scratch[0][: hi - lo], scratch[1][: hi - lo]
        if self.weight_decay:
            pb *= 1.0 - lr * self.weight_decay
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
