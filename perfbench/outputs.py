"""Output digests, the per-checkout digest store, and machine facts."""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import sys
from contextlib import redirect_stdout
from pathlib import Path

WALL_TIME_FIELD = "wall_time_seconds"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def digest_dir(root) -> str:
    """SHA-256 over every file's relative path and bytes.

    The only field left out is the wall time in ``manifest.json``: that file
    is hashed as canonical JSON without it.
    """
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        blob = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(blob)
            manifest.pop(WALL_TIME_FIELD, None)
            blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
        h.update(rel.encode("utf-8") + b"\0" + str(len(blob)).encode("ascii") + b"\0" + blob)
    return h.hexdigest()


def dir_bytes(root) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def source_hash(src: Path) -> str:
    """Identifies the program under test: a hash over every file under ``src``."""
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*.py") if "__pycache__" not in p.parts):
        h.update(path.relative_to(src).as_posix().encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Digests of earlier runs in this checkout, keyed by program source, output kind and seed.

    Repeats of one input on one program must be bitwise identical, also
    across runs, so a later run checks its digest against the first one.
    """

    def __init__(self, path: Path, source: str):
        self.path = path
        self.source = source

    def _load(self) -> dict:
        try:
            return json.loads(self.path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return {}

    def get(self, kind: str, seed: int) -> str | None:
        return self._load().get(f"{self.source}/{kind}/{seed}")

    def check(self, kind: str, seed: int, digest: str) -> bool:
        """True when ``digest`` equals the stored one; stores it when none is stored yet."""
        table = self._load()
        key = f"{self.source}/{kind}/{seed}"
        if key in table:
            return table[key] == digest
        table[key] = digest
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(table, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)
        return True


def _blas_line(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 only prints
        buf = io.StringIO()
        with redirect_stdout(buf):
            numpy.show_config()
        lines = [ln.strip() for ln in buf.getvalue().splitlines() if "blas" in ln.lower()]
        return lines[0] if lines else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """The commit named by ``.git/HEAD`` when the checkout is a git work tree."""
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def machine_facts(root: Path, source: str) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "blas": _blas_line(numpy),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "source_hash": source,
    }
