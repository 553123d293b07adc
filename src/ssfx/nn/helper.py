"""The CPUs this process may use, and the one helper thread that works on
the second of them.

Two callers open a ``helper_scope``: ``models.train`` for the whole call,
and ``data.map_masks`` around the two halves of a list of large masks.
When the process may use two CPUs or more, the scope starts one thread; on
one CPU it starts none, and its helper runs each job on the calling thread
as the job is given. The jobs run on the helper one at a time and in the
order they were given:

- the second half of the masks of ``data.map_masks``, given with
  ``Helper.split`` while the calling thread reads the first half;
- the second half of a large forward product, which ``layers.Dense`` and
  ``layers.Conv2D`` hand over with ``Helper.split`` while the calling
  thread computes the first half;
- Adam's updates from the front of its queue during backward
  (``optim.Adam``).

A job must never split on the helper that runs it: its second half would
wait in the queue behind the job itself, and the job would wait for it
for ever. A job runs in a copy of the giver's context, where ``active()``
is that same helper, so code that may split opens a scope of its own.

Forward products split only when the BLAS runs one thread
(``blas_threads``). A BLAS running more already spreads a large product
over the CPUs, and two of its calls at once wait for each other: with the
default two OpenBLAS threads on a 2-vCPU VM, splitting made the ablation
acceptance run take 125 s instead of 67 s. At a given BLAS thread count a
product is cut in the same two halves whether one CPU runs them or two, so
the bits cannot depend on the CPU count: OpenBLAS does not always give a
half the bits the whole product would (see ``layers.Dense``). Code outside
a scope (``evaluate``, ``predict``, ``measure_complexity``) sees no
helper, as ``active()`` is None, and runs each product whole on its own
thread. So does a thread other than the one that opened the scope, as a
new thread starts with an empty context.

Each job runs in a copy of the context of the thread that gave it, so a
numpy ``errstate`` (a context variable in numpy 2) holds on the helper as
well; a new thread would start at numpy's default. Whoever gives a job
collects it (``collect``) before returning or raising, so no job
outlives the call that gave it, and the scope joins the thread on every exit.
"""
from __future__ import annotations

import contextvars
import os
import re
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager

__all__ = ["usable_cpus", "blas_threads", "collect", "Helper", "helper_scope", "active"]


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


def collect(job: Future) -> BaseException | None:
    """Wait for a job given to a helper to end; the error it raised, or None."""
    _through_interrupts(job.exception)
    return job.exception()


class Helper:
    """A thread that runs the jobs it is given, one at a time and in order,
    until ``close``. Made with ``threaded=False`` it has no thread and runs
    each job as it is given. ``splits`` says whether forward products are to
    be split on it."""

    def __init__(self, threaded: bool, splits: bool) -> None:
        self.splits = splits
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="ssfx-helper") if threaded else None

    def submit(self, fn) -> Future:
        """Run ``fn()`` on the helper, in a copy of the calling thread's context."""
        context = contextvars.copy_context()
        if self._pool is not None:
            return self._pool.submit(context.run, fn)
        job = Future()
        try:
            job.set_result(context.run(fn))
        except BaseException as exc:  # returned by collect() on the giving thread
            job.set_exception(exc)
        return job

    def split(self, first, second) -> None:
        """Run ``first()`` on the calling thread while the helper runs
        ``second()`` (before it, if there is no thread); return once both
        have ended. The calling thread's error is raised if it had one, else
        the helper's."""
        job = self.submit(second)
        try:
            first()
        finally:
            error = collect(job)
        if error is not None:
            raise error

    def close(self) -> None:
        """Run the jobs still queued, then end the thread and wait for it."""
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
    use two CPUs; join the thread on every exit. Yields the helper. Forward
    products split on it when the BLAS runs one thread."""
    helper = Helper(threaded=usable_cpus() >= 2, splits=blas_threads() == 1)
    token = _active.set(helper)
    try:
        yield helper
    finally:
        _active.reset(token)
        helper.close()
