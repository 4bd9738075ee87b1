"""The host's speed around each operation, read from a fixed calibration kernel.

Other tenants of the machine slow every process on it by 20-40% for
seconds to minutes at a time (README, "Steadiness"), so the same code
reads differently from run to run.  A run therefore times a kernel that
does not use the package right before every operation (and once more at
the end of each round), and divides the operation's time by the speed
factor

    factor = median(the 12 kernel timings nearest the operation) / reference

The end-to-end timings are so reported in reference seconds: the time the
run would have taken on a host where the kernel takes ``reference``.  A
change to the package changes the operations' times and not the kernel's,
so it shows in full.

Two kernels, because contention slows compute and memory traffic by
different amounts: ``compute`` (a scalar Python loop and small numpy
arrays, like the series evaluators and the CLI's start-up) and ``memory``
(one pair pass over N = 512 points in the plane, like the ring descent's
N x N x d temporaries).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

_SMALL = np.random.default_rng(0).random((192, 2))
_LARGE = np.random.default_rng(1).random((512, 2))
# Half-width of the window of kernel timings that sets an operation's factor.
WINDOW = 6


def compute_kernel() -> float:
    acc = 0.0
    for k in range(4000):
        acc += math.sqrt(k + 0.5)
    for k in range(200):
        n = np.arange(k, k + 64, dtype=float)
        acc += float(np.cumprod((n + 0.5) / (n + 1.5)).sum())
    for _ in range(2):
        diff = _SMALL[:, None, :] - _SMALL[None, :, :]
        acc += float(np.sqrt((diff * diff).sum(axis=2)).sum())
    return acc


def memory_kernel() -> float:
    diff = _LARGE[:, None, :] - _LARGE[None, :, :]
    dist2 = np.sum(diff * diff, axis=2)
    np.fill_diagonal(dist2, 1.0)
    coef = dist2**0.5 - dist2**-0.125
    return float(np.sum(coef[:, :, None] * diff))


# Kernel and its reference time in seconds (about its median on the host
# of the reference figures in a quiet spell).
KERNELS = {"compute": (compute_kernel, 0.005), "memory": (memory_kernel, 0.020)}


class Speed:
    """Kernel timings of one run, in the order they were taken."""

    def __init__(self, kind: str):
        self.kernel, self.reference = KERNELS[kind]
        self.samples: list[float] = []
        self.kernel()  # the first call pays for numpy's first-use set-up

    def sample(self) -> int:
        """Time the kernel once; return the index of this timing."""
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def factor(self, index: int | None = None) -> float:
        """Speed factor around timing ``index`` (taken just before an
        operation), or over the whole run when index is None."""
        window = self.samples
        if index is not None:
            window = self.samples[max(0, index - WINDOW + 1): index + WINDOW + 1]
        return statistics.median(window) / self.reference
