"""Ask numpy's OpenBLAS which core it runs and pin it to one thread, with no dependency beyond ctypes."""

from __future__ import annotations

import contextlib
import ctypes
import itertools

# numpy's wheel bundles OpenBLAS under suffixed names; a system OpenBLAS uses the plain ones
_SPELLINGS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads")
_CORENAME_SPELLINGS = ("scipy_openblas_get_corename64_", "openblas_get_corename")


def _openblas_libraries() -> list[ctypes.CDLL]:
    """Every OpenBLAS this process has mapped, found through ``/proc/self/maps``; none without procfs."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
        return [ctypes.CDLL(path) for path in paths]
    except OSError:  # no procfs (not Linux), or a library deleted since it was mapped
        return []


def openblas_core() -> str | None:
    """The OpenBLAS core whose kernels numpy's BLAS runs, or None where it cannot be asked.

    This is the core chosen at load time (or forced by ``OPENBLAS_CORETYPE``),
    not the target named in the library's build string.
    """
    for name, lib in itertools.product(_CORENAME_SPELLINGS, _openblas_libraries()):
        if hasattr(lib, name):
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode("ascii")
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Pin OpenBLAS to one thread; yields the thread count it replaced, or None when unpinned.

    None means another BLAS or no procfs. The previous count is restored on
    every exit path. A count already at 1 is left alone: in a forked child,
    any set restarts OpenBLAS's thread pool, and so starts a thread.
    """
    get = set_ = None
    for spelling, lib in itertools.product(_SPELLINGS, _openblas_libraries()):
        if hasattr(lib, spelling.format("set")) and hasattr(lib, spelling.format("get")):
            get, set_ = getattr(lib, spelling.format("get")), getattr(lib, spelling.format("set"))
            break
    if get is None:
        yield None
        return
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    previous = get()
    if previous == 1:
        yield 1
        return
    try:
        set_(1)
        yield previous if get() == 1 else None
    finally:
        set_(previous)
