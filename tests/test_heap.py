"""The heap policy: freed arrays stay mapped, so the next allocation does not page-fault."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctss.heap
from ctss.heap import keep_freed_memory


def has_glibc_mallopt() -> bool:
    try:
        os.confstr("CS_GNU_LIBC_VERSION")
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, ValueError, AttributeError):
        return False


needs_glibc = pytest.mark.skipif(not has_glibc_mallopt(), reason="no glibc mallopt in this process")

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


@needs_glibc
def test_freed_block_is_reused_without_page_faults():
    src = str(Path(ctss.heap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", REUSE_SCRIPT], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert int(done.stdout) < 64  # an 8 MiB block faulted back in would cost 2048 4-KiB pages


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
