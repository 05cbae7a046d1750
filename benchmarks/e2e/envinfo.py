"""Environment record and noise guard written into every result.

A slow box must be distinguishable from a slow commit: the record carries the
core count, interpreter and library versions, the pinned thread counts, the
load average when the run started, and two fixed-work calibration spins (a
pure-Python loop and a 512x512 GEMM) timed after the measured section.
"""

from __future__ import annotations

import os
import platform
import sys
from time import perf_counter
from typing import Dict

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def load_average() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def _blas() -> str:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name', '?')} {info.get('version', '?')}"
    except (KeyError, TypeError):
        return "unknown"


def record(load_at_start: float) -> Dict[str, object]:
    import numpy as np
    import scipy

    cores = nproc()
    env: Dict[str, object] = {
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "load_1min_at_start": load_at_start,
        "noisy": load_at_start > cores / 2,
    }
    if env["noisy"]:
        print(
            f"warning: 1-min load average {load_at_start:.2f} exceeds nproc/2 "
            f"({cores / 2:g}); host timings of this run are suspect",
            file=sys.stderr,
        )
    return env


def calibrate() -> Dict[str, float]:
    """Best-of-three seconds for a fixed pure-Python loop and a 512^2 GEMM."""
    import numpy as np

    def python_spin() -> float:
        start = perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i & 7
        return perf_counter() - start

    a = np.ones((512, 512))

    def gemm_spin() -> float:
        start = perf_counter()
        a @ a
        return perf_counter() - start

    return {
        "env.calib_py_s": min(python_spin() for _ in range(3)),
        "env.calib_gemm_s": min(gemm_spin() for _ in range(3)),
    }
