"""The CPUs this process may use, and the one helper thread that works on
the second of them.

Two callers open a ``helper_scope``: ``models.train`` for the whole call,
and ``data.map_masks`` around the two halves of a list of large masks.
When the process may use two CPUs or more, the scope starts one thread; on
one CPU it starts none. Its one primitive is ``Helper.split``: the calling
thread runs one half of a job while the helper runs the other (on one CPU,
the calling thread runs the helper's half first), and the call returns
once both have ended. Its callers:

- ``data.map_masks``: the two halves of its masks;
- ``layers.Dense`` and ``layers.Conv2D``: the two halves of a large
  forward product, and in backward the input gradient and the weight
  gradient, each a whole product of its own;
- ``optim.Adam.step``: two halves of the parameters' block ranges.

A half given to the helper runs in a copy of the giver's context where
``active()`` is None, so code inside it that may split runs whole instead
of waiting for ever on a half queued behind itself; and it runs the same
way on one CPU, so the bits cannot depend on the CPU count. The copy keeps
every other context variable, so a numpy ``errstate`` (a context variable
in numpy 2) holds on the helper as well; a new thread would start at
numpy's default.

Products split only when the BLAS runs one thread (``blas_threads``). A
BLAS running more already spreads a large product over the CPUs, and two
of its calls at once wait for each other: with the default two OpenBLAS
threads on a 2-vCPU VM, splitting made the ablation acceptance run take
125 s instead of 67 s. At a given BLAS thread count a product is cut in
the same two halves whether one CPU runs them or two, so the bits cannot
depend on the CPU count: OpenBLAS does not always give a half the bits the
whole product would (see ``layers.Dense``). Code outside a scope
(``evaluate``, ``predict``, ``measure_complexity``) sees no helper, as
``active()`` is None, and runs each product whole on its own thread. So
does a thread other than the one that opened the scope, as a new thread
starts with an empty context.

``split`` waits for the helper's half before it returns or raises, so no
half outlives the call that gave it, and the scope joins the thread on
every exit.
"""
from __future__ import annotations

import contextvars
import os
import re
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager

__all__ = ["usable_cpus", "blas_threads", "Helper", "helper_scope", "active"]


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Where OpenBLAS, the BLAS of numpy's wheels, reads its thread count when it
# loads, in this order; a variable that is unset or not a positive integer
# is passed over, and with none it runs one thread per usable CPU.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_threads() -> int:
    """The number of threads OpenBLAS runs a large product on, as it reads it.

    This assumes the BLAS is OpenBLAS and that the variables were set before
    numpy was imported: OpenBLAS reads them once, when it loads, so a
    variable changed later, a call to ``openblas_set_num_threads`` or
    another BLAS such as MKL is not seen here. ``run_record.json`` records
    the value."""
    for name in BLAS_THREAD_VARIABLES:
        digits = re.match(r"\s*(\d+)", os.environ.get(name, ""))
        if digits and int(digits.group(1)) > 0:
            return int(digits.group(1))
    return usable_cpus()


def _through_interrupts(wait) -> None:
    """Call ``wait()`` until it returns. An exception raised in it, such as the
    KeyboardInterrupt of a Ctrl-C arriving while the main thread waits, is
    raised once ``wait()`` has returned."""
    pending = None
    while True:
        try:
            wait()
            break
        except BaseException as exc:
            pending = pending or exc
    if pending is not None:
        raise pending


class Helper:
    """A thread that runs the second halves of ``split``, until ``close``.
    Made with ``threaded=False`` it has no thread, and the calling thread
    runs both halves. ``splits`` says whether products are to be split on it."""

    def __init__(self, threaded: bool, splits: bool) -> None:
        self.splits = splits
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="ssfx-helper") if threaded else None

    def split(self, first, second) -> None:
        """Run ``first()`` on the calling thread while the helper runs
        ``second()`` (before it, if there is no thread), in a copy of the
        calling thread's context that has no active helper; return once both
        have ended. The calling thread's error is raised if it had one, else
        the helper's."""
        context = contextvars.copy_context()
        context.run(_active.set, None)
        if self._pool is not None:
            job = self._pool.submit(context.run, second)
        else:
            job = Future()
            try:
                job.set_result(context.run(second))
            except BaseException as exc:  # raised below, once first() has run
                job.set_exception(exc)
        try:
            first()
        finally:
            _through_interrupts(job.exception)
        if job.exception() is not None:
            raise job.exception()

    def close(self) -> None:
        """End the thread and wait for it."""
        if self._pool is not None:
            _through_interrupts(self._pool.shutdown)


_active: contextvars.ContextVar[Helper | None] = contextvars.ContextVar("ssfx_helper",
                                                                       default=None)


def active() -> Helper | None:
    """The helper of the scope the calling code runs in, if any."""
    return _active.get()


@contextmanager
def helper_scope():
    """Open a helper for the code inside, with a thread if the process may
    use two CPUs; join the thread on every exit. Yields the helper. Products
    split on it when the BLAS runs one thread."""
    helper = Helper(threaded=usable_cpus() >= 2, splits=blas_threads() == 1)
    token = _active.set(helper)
    try:
        yield helper
    finally:
        _active.reset(token)
        helper.close()
