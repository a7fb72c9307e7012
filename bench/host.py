"""Host control and fingerprint.

Every result carries the host it was measured on, because the numbers are
only comparable between runs of one host class.  The BLAS thread pins must be
in the environment *before* numpy is imported (worker processes inherit
them): with OpenBLAS at its default two threads a 1 ms forward has a p95 of
tens of milliseconds on a two-core host.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
from typing import Any, Dict

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Pin every BLAS/OpenMP pool to one thread; call before importing numpy."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas_threads() must run before numpy is imported")
    for name in THREAD_VARS:
        os.environ[name] = "1"


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its waited-for children, in MiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(seed: int) -> Dict[str, Any]:
    """Cores, BLAS, native kernel, load and versions of the measuring host."""
    import numpy
    from repro.engine import native_available

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    native = bool(native_available())
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "native_available": native,
        "int8_kernel": "vnni" if native else "skipped",
        "loadavg_1min": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }
