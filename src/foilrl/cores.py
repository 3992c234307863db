"""The process-wide settings that decide how work uses the host's cores.

Two settings, each held for the length of a `with` block and restored on
the way out, also when the block raises:

* the thread count of numpy's own BLAS (OpenBLAS), found lazily through
  `ctypes`. LU results depend on it above ~100 unknowns, so the panel
  solve holds it at one (`one_blas_thread`) and gives the same bits on
  any core count;
* the interpreter's thread switch interval, shortened while two threads
  share the work (`both_cores`), so that one thread's pure-Python loop
  hands the interpreter lock to the other's numpy call sooner.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import functools
import sys

import numpy as np

# How long, in seconds, a thread may hold the interpreter lock inside `both_cores`
# before another thread that waits for it gets it (Python's default is 5 ms).
_SWITCH_INTERVAL_S = 1e-4

# OpenBLAS's thread-count getter and setter: as numpy's wheels and as a system library name them.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_control():
    """(get, set) of the thread count of numpy's own BLAS, or None when it exports neither pair."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's BLAS at one thread for the block; restore the entry count afterwards.

    Where numpy's BLAS has no thread control, this does nothing.
    """
    control = _blas_thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _one_after_other(here, there):
    return here(), there()


@contextlib.contextmanager
def both_cores():
    """A runner `run(here, there) -> (here(), there())` that calls `there` on a second thread.

    The second thread is a one-worker standard-library executor's, started
    by the first call and shut down (joined) when the block ends, also
    when it raises. A call returns or raises only once `there` has finished.
    For the length of the block numpy's BLAS is held to one thread, so the
    two threads' products do not fight BLAS's own helper thread for the
    cores, and the switch interval is `_SWITCH_INTERVAL_S`; both entry
    values are restored on the way out, also when the block raises. Where
    numpy's BLAS has no thread control, the runner calls the two one after
    the other on this thread.
    """
    if _blas_thread_control() is None:
        yield _one_after_other
        return
    interval = sys.getswitchinterval()
    sys.setswitchinterval(_SWITCH_INTERVAL_S)
    try:
        with one_blas_thread(), \
                concurrent.futures.ThreadPoolExecutor(1, "foilrl-worker") as worker:
            def run(here, there):
                theirs = worker.submit(there)
                try:
                    return here(), theirs.result()
                finally:  # `there` never outlives the call, also when `here` raises
                    concurrent.futures.wait([theirs])

            yield run
    finally:
        sys.setswitchinterval(interval)
