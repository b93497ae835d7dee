"""The heap policy: freed arrays stay mapped, so reuse does not page-fault, and all threads share one arena."""

import ctypes
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ctss.heap
from ctss.heap import keep_freed_memory


def has_glibc(symbol: str) -> bool:
    try:
        os.confstr("CS_GNU_LIBC_VERSION")
        return hasattr(ctypes.CDLL(None), symbol)
    except (OSError, ValueError, AttributeError):
        return False


needs_glibc = pytest.mark.skipif(not has_glibc("mallopt"), reason="no glibc mallopt in this process")

# in a fresh interpreter, so no earlier allocation of this process shapes the heap
REUSE_SCRIPT = """
import resource
import numpy as np
from ctss.heap import keep_freed_memory
assert keep_freed_memory()
np.ones(2 ** 20)  # 8 MiB, written and freed at once
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
np.ones(2 ** 20)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


# the policy first, so no thread (OpenBLAS's included) has allocated yet; malloc_stats prints to C's stderr
ONE_ARENA_SCRIPT = """
import ctypes
import threading
from ctss.heap import keep_freed_memory
assert keep_freed_memory()
import numpy as np
thread = threading.Thread(target=lambda: np.ones(2 ** 17))  # 1 MiB, allocated and freed on the new thread
thread.start()
thread.join(30)
assert not thread.is_alive()
ctypes.CDLL(None).malloc_stats()
"""


def run_fresh(script: str) -> subprocess.CompletedProcess:
    src = str(Path(ctss.heap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          check=True, timeout=60)


@needs_glibc
def test_freed_block_is_reused_without_page_faults():
    assert int(run_fresh(REUSE_SCRIPT).stdout) < 64  # an 8 MiB block faulted back in would cost 2048 4-KiB pages


@pytest.mark.skipif(not has_glibc("malloc_stats"), reason="no glibc malloc_stats in this process")
def test_a_new_thread_allocates_from_the_main_arena():
    arenas = re.findall(r"^Arena \d+:$", run_fresh(ONE_ARENA_SCRIPT).stderr, flags=re.MULTILINE)
    assert len(arenas) == 1, arenas  # without the cap glibc gives the thread an arena of its own


@needs_glibc
def test_applying_twice_is_harmless():
    assert keep_freed_memory()
    assert keep_freed_memory()


def test_failed_lookup_is_a_no_op(monkeypatch):
    def no_library(name):
        raise OSError(f"cannot load {name!r}")

    monkeypatch.setattr(ctss.heap.ctypes, "CDLL", no_library)
    assert keep_freed_memory() is False
    monkeypatch.setattr(ctss.heap.ctypes, "CDLL", lambda name: object())  # a C library without mallopt
    assert keep_freed_memory() is False


# mallopt parameter -> documented value: M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 128 MiB, M_ARENA_MAX 1
DOCUMENTED = {-3: 32 * 2 ** 20, -1: 128 * 2 ** 20, -8: 1}


class FakeLibc:
    """A C library whose ``mallopt`` records each (param, value) and refuses ``refused``."""

    def __init__(self, refused=None):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 0 if param == refused else 1

        self.mallopt = mallopt


def test_policy_sets_the_documented_values(monkeypatch):
    libc = FakeLibc()
    monkeypatch.setattr(ctss.heap.ctypes, "CDLL", lambda name: libc)
    assert keep_freed_memory() is True
    assert sorted(libc.calls) == sorted(DOCUMENTED.items())


@pytest.mark.parametrize("refused", DOCUMENTED)
def test_any_refused_setting_makes_the_policy_fail(monkeypatch, refused):
    libc = FakeLibc(refused)
    monkeypatch.setattr(ctss.heap.ctypes, "CDLL", lambda name: libc)
    assert keep_freed_memory() is False
    assert (refused, DOCUMENTED[refused]) in libc.calls
