"""Host-speed calibration for timings taken on a shared machine.

The benchmark runs on a host shared with other tenants.  There the same op
takes up to 60% longer in one minute than in the next, and a fixed
numpy-and-Python kernel slows down with it.  The kernel is therefore timed
just before each timed op (and again just after a long one), and the op's
time is scaled by it:

    normalized seconds = op seconds * REFERENCE_S / kernel seconds

A normalized time is the op's time on a host where the kernel takes
REFERENCE_S, which is this kernel's time on a 2-core Intel Xeon VM whose
host is quiet.  The kernel does not touch the library, so a change to the
library moves normalized times in the same proportion as wall times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 2.0e-3

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((24, 12))
_GRID = _rng.standard_normal((32, 32, 32)) + 0j


def _kernel() -> float:
    """FFT, SVD and a dict-heavy Python loop, the library's own mix."""
    t0 = time.perf_counter()
    for _ in range(3):
        np.fft.fftn(_GRID)
        np.linalg.svd(_MATRIX, full_matrices=False)
    acc = {}
    for i in range(3000):
        key = (i % 7, i % 11)
        acc[key] = acc.get(key, 0.0) + 0.5 * i
    return time.perf_counter() - t0


def sample() -> float:
    """Seconds the kernel takes now, run warm (the second of two runs)."""
    _kernel()
    return _kernel()


def scale(samples: int = 5) -> float:
    """Factor REFERENCE_S / kernel time, from the median of a few samples."""
    return REFERENCE_S / statistics.median(sample() for _ in range(samples))
