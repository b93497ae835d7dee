"""Pin numpy's OpenBLAS to one thread, with no dependency beyond ctypes."""

from __future__ import annotations

import contextlib
import ctypes
import itertools

# numpy's wheel bundles OpenBLAS under suffixed names; a system OpenBLAS uses the plain ones
_SPELLINGS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads")


@contextlib.contextmanager
def single_blas_thread():
    """Pin OpenBLAS to one thread; yields the thread count it replaced, or None when unpinned.

    The library is found through its entry in ``/proc/self/maps``. None means
    another BLAS or no procfs. The previous count is restored on every exit path.
    """
    get = set_ = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
        for spelling, lib in itertools.product(_SPELLINGS, [ctypes.CDLL(path) for path in paths]):
            if hasattr(lib, spelling.format("set")) and hasattr(lib, spelling.format("get")):
                get, set_ = getattr(lib, spelling.format("get")), getattr(lib, spelling.format("set"))
                break
    except OSError:  # no procfs (not Linux), or a library deleted since it was mapped
        pass
    if get is None:
        yield None
        return
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    previous = get()
    try:
        set_(1)
        yield previous if get() == 1 else None
    finally:
        set_(previous)
