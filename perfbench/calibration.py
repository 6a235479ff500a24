"""Host-speed calibration for the timed metrics.

On a shared host, outside load slows a whole process by up to 2x for
seconds to minutes at a time. A fixed kernel of numpy and pure-Python
work, which uses no hinv code, is timed in the same process as each
measurement. The measurement is then rescaled to the speed at which the
kernel takes ``REFERENCE_S``:

    rescaled = measured * REFERENCE_S / kernel time

The kernel mixes the kinds of work the workloads do: a complex GEMM, many
small ``eigh`` calls, a mid-size ``eigvalsh`` and an interpreter loop. It
allocates no more than a few hundred KB, so it does not move
``peak_rss_mb``.
"""

from __future__ import annotations

import time

import numpy as np

# median kernel time over 15 fresh processes on the reference host (2-vCPU
# Intel Xeon VM, numpy 2.4.6, scipy-openblas 0.3.31, one BLAS thread); it only
# sets the scale, so rescaled times there are close to unscaled ones
REFERENCE_S = 0.031


def _inputs():
    idx = np.add.outer(np.arange(96), np.arange(96))
    A = (np.cos(idx) + 1j * np.sin(0.5 * idx)) / 96
    H = np.cos(np.add.outer(np.arange(4), np.arange(4)))
    S = np.cos(np.add.outer(np.arange(64), np.arange(64)))
    return A, H, S


def kernel_s(reps: int = 3) -> float:
    """Median time of ``reps`` runs of the calibration kernel."""
    A, H, S = _inputs()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(60):
            A @ A
        for _ in range(375):
            np.linalg.eigh(H)
        for _ in range(30):
            np.linalg.eigvalsh(S)
        acc = 0
        for i in range(150000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return sorted(times)[reps // 2]


def rescale(seconds: float, kernel_seconds: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_seconds``, at reference speed."""
    return seconds * REFERENCE_S / kernel_seconds
