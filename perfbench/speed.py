"""The host's speed per CPU second, from a fixed unit of numpy work.

On the reference machine, a 2-vCPU guest on a shared host, the CPU time
of fixed work drifts too: by up to 30% within one ten-run set, as other
guests load the same cores and caches.  Steal (``steal.py``) does not
cover that, because the work does run; it only runs slower.  So the child
runs this unit before the first timed iteration and after each one, and
scales the run's times by ``REFERENCE_S / median unit CPU time``: what
they would be at the reference machine's usual speed.

The unit mixes the two kinds of work the kpblab layers do: 2-D FFTs on a
256x256 complex array, and elementwise arithmetic on 8 MB arrays.  It is
the benchmark's own code and does not use kpblab, so no change to the
program moves it.  It is timed in thread CPU time, so steal does not
count twice.

``python3 perfbench/speed.py`` prints the unit's median over 31 runs;
``REFERENCE_S`` was set from it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median CPU seconds of one unit on the reference machine (2-vCPU KVM
# guest, Intel Xeon, numpy 2.4 with pocketfft).
REFERENCE_S = 0.15

_FFT_INPUT = np.random.default_rng(0).standard_normal((256, 256)) + 0j


def unit_seconds() -> float:
    """Thread CPU seconds of one unit of work."""
    start = time.thread_time()
    a = _FFT_INPUT.copy()
    for _ in range(20):
        a = np.fft.ifft2(np.fft.fft2(a) * 0.999)
    x = np.ones(1_000_000)
    y = np.empty_like(x)
    for _ in range(40):
        np.multiply(x, 1.0001, out=y)
        np.add(y, x, out=y)
    return time.thread_time() - start


def factor(units: list[float]) -> float:
    """Scales times measured alongside ``units`` to the reference speed."""
    return REFERENCE_S / statistics.median(units)


if __name__ == "__main__":
    unit_seconds()
    times = [unit_seconds() for _ in range(31)]
    print(f"median {statistics.median(times):.4f} s "
          f"(min {min(times):.4f}, max {max(times):.4f})")
