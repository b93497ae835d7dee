"""Keep freed activations in the heap: glibc's malloc tuned once, through ctypes.

By default glibc serves large arrays with ``mmap`` and returns freed heap tops
to the kernel, so each training step page-faults its activations back in.
"""

from __future__ import annotations

import ctypes

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers
_MMAP_THRESHOLD = 32 * 2 ** 20  # glibc's ceiling on 64-bit: smaller blocks come from the heap
_TRIM_THRESHOLD = 128 * 2 ** 20  # free heap top kept mapped before any is returned


def keep_freed_memory() -> bool:
    """Apply the policy process-wide; True if glibc accepted it, False (and no change) without glibc.

    Idempotent, with nothing to restore: freed memory stays mapped for reuse.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library to ask, or one without mallopt
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1 and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1
