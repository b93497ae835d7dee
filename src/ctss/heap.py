"""Keep freed activations in the heap: glibc's malloc tuned once, through ctypes.

By default glibc serves large arrays with ``mmap`` and returns freed heap tops
to the kernel, so each training step page-faults its activations back in. It
also gives each new thread a malloc arena of its own, so memory that network f
freed on the calling thread could not serve network g's validation on the
helper thread: the helper's arena grew beside it. So every thread shares the
main arena, at the cost of one arena lock that both threads take. The policy
is process-wide and never undone.
"""

from __future__ import annotations

import ctypes

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # glibc's mallopt parameter numbers
_MMAP_THRESHOLD = 32 * 2 ** 20  # glibc's ceiling on 64-bit: smaller blocks come from the heap
_TRIM_THRESHOLD = 128 * 2 ** 20  # free heap top kept mapped before any is returned
_ARENA_MAX = 1  # threads started afterwards allocate from the main arena, where the other thread's frees land


def keep_freed_memory() -> bool:
    """Apply the policy process-wide; True if glibc accepted all of it, False (and no change) without glibc.

    Idempotent, with nothing to restore: freed memory stays mapped for reuse.
    Call it before starting a thread, since a thread keeps the arena it first
    allocated from.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library to ask, or one without mallopt
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    settings = (_M_MMAP_THRESHOLD, _MMAP_THRESHOLD), (_M_TRIM_THRESHOLD, _TRIM_THRESHOLD), (_M_ARENA_MAX, _ARENA_MAX)
    return all(mallopt(param, value) == 1 for param, value in settings)
