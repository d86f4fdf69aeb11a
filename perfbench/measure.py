"""Resident-set sampling and the run's environment."""

from __future__ import annotations

import os
import platform
import threading
from pathlib import Path

_PAGE = os.sysconf("SC_PAGE_SIZE")


class RssPeak:
    """Peak resident set size while the ``with`` block runs.

    A background thread reads /proc/self/statm every ``interval`` seconds.
    The kernel's own high-water mark cannot be reset from inside the
    process, and on score-bulk it is set in set-up, not in the timed phase.
    Allocations that live shorter than the interval can be missed.
    """

    def __init__(self, interval: float = 0.002):
        self.interval = interval
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = None
        self._fd = None

    def _sample(self) -> None:
        resident_pages = int(os.pread(self._fd, 128, 0).split()[1])
        self.peak_bytes = max(self.peak_bytes, resident_pages * _PAGE)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._sample()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, name="rss-sampler", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()
        os.close(self._fd)
        return False

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / 1e6


def environment(src: Path) -> dict:
    """What a run prints beside its metrics, so figures can be compared."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    thread_env = {key: os.environ.get(key, "unset") for key in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DPDL_THREADS")}
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.rglob("*.py")))
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "thread_env": thread_env,
        "src_py_lines": src_lines,
    }
