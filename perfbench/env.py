"""Loading the measured tree's `rieffel` and stamping results with their environment.

Nothing here imports numpy at module level: the BLAS thread variables must be
set before numpy is first imported, so `pin_threads` runs before `load_rieffel`.
"""
from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One client in one process; a single BLAS thread keeps the 2x2 LAPACK calls
# and the FFTs off each other's cores and the figures steady.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class TreeError(RuntimeError):
    """The measured tree's `rieffel` package cannot be loaded from its own src/."""


def pin_threads(threads: int = BLAS_THREADS) -> None:
    """Set every BLAS/OpenMP thread variable; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy imported before the thread count was pinned")
    threads = max(1, min(threads, os.cpu_count() or 1))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)


def load_rieffel():
    """Import `rieffel` from ROOT/src and refuse any other copy."""
    if not (SRC / "rieffel" / "__init__.py").is_file():
        raise TreeError(f"no rieffel package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rieffel
    where = Path(rieffel.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise TreeError(f"rieffel imported from {where}, not from {SRC}")
    return rieffel


def _llc_bytes() -> int | None:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10, check=False).stdout.strip()
        return int(out) if out else None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def _revision() -> str:
    """git HEAD of the measured tree, or 'unavailable' outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() or "unavailable"


def _src_digest() -> str:
    """sha256 over src/rieffel/*.py, which identifies the tree without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "rieffel").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp() -> dict:
    """Environment of the run: versions, BLAS, cores, threads, cache, revision."""
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": BLAS_THREADS,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "llc_bytes": _llc_bytes(),
        "git_revision": _revision(),
        "src_sha256_16": _src_digest(),
        "platform": platform.platform(),
    }
