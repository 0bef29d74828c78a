"""Where the package lives, how it is imported, and the run's provenance.

This module imports no numpy at module level: ``pin_blas`` has to run
before the first numpy import of the process.
"""

from __future__ import annotations

import importlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "circulants"
OUT = Path(__file__).resolve().parent / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The benchmark was started outside a checkout that holds the package."""


def pin_blas() -> None:
    """One BLAS thread: the loop is a single caller on a small machine, and
    with default threads `eigenvalues` at n=97 ranged from 0.36 to 8 ms."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_circulants():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (PACKAGE / "__init__.py").is_file():
        raise CheckoutError(f"no package source at {PACKAGE}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("circulants")
    importlib.import_module("circulants.cli")  # also binds circulants.documents
    return module


def _openblas():
    """(version string, thread count) read from the OpenBLAS numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if not libs:
        return None, None
    lib = ctypes.CDLL(libs[0])
    version = threads = None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        config = getattr(lib, f"{prefix}_get_config{suffix}", None)
        count = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        if config is not None and count is not None:
            config.restype = ctypes.c_char_p
            count.restype = ctypes.c_int
            version, threads = config().decode(), count()
            break
    return version, threads


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy as np

    version, threads = _openblas()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": version,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
    }
