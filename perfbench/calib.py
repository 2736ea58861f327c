"""Host-speed calibration of wall-clock measurements.

A shared 2-core box changes speed from run to run and within a run
(frequency scaling, neighbours on the same core).  A fixed pure-Python
kernel is timed right before and right after every measured unit; the
unit's wall time is rescaled to what it would have taken on a host where
the kernel takes ``CAL_REF_S``:

    calibrated = raw * CAL_REF_S / mean(kernel_before, kernel_after)

The kernel is a tight interpreter loop.  It touches no memory outside the
core's caches, so its time depends on the host and not on the program's
own heap; the kernel median is reported on its own
(``host.calibration_us``) so host drift can be told apart from a code
change.
"""

from __future__ import annotations

import statistics
import time

#: Median kernel time on the reference host (2-core x86-64 container,
#: CPython 3.11).  A committed constant: changing it rescales every
#: calibrated metric.
CAL_REF_S = 270e-6


def kernel() -> int:
    """Fixed interpreter-bound work, about 0.27 ms on the reference host."""
    acc = 0
    for i in range(2500):
        acc = (acc * 31 + i) % 1000003
    return acc


def time_kernel(clock=time.perf_counter, repeats: int = 5) -> float:
    """Median of ``repeats`` timings of :func:`kernel`, in seconds."""
    timings = []
    for _ in range(repeats):
        start = clock()
        kernel()
        timings.append(clock() - start)
    return statistics.median(timings)


def calibrate(raw_s: float, before_s: float, after_s: float, ref_s: float = CAL_REF_S) -> float:
    """Rescale ``raw_s`` by the reference kernel time over the mean of the
    kernel timings taken around the unit."""
    if raw_s < 0 or before_s <= 0 or after_s <= 0:
        raise ValueError("raw time must be >= 0 and kernel timings > 0")
    return raw_s * ref_s / ((before_s + after_s) / 2.0)


class Calibrator:
    """Times units of work and returns (raw, calibrated) seconds."""

    def __init__(self, ref_s: float = CAL_REF_S, clock=time.perf_counter) -> None:
        self.ref_s = ref_s
        self._clock = clock
        self.samples: list[float] = []
        self._before = 0.0
        self._start = 0.0

    def _sample(self) -> float:
        value = time_kernel(self._clock)
        self.samples.append(value)
        return value

    def begin(self) -> None:
        self._before = self._sample()
        self._start = self._clock()

    def end(self) -> tuple[float, float]:
        raw = self._clock() - self._start
        after = self._sample()
        return raw, calibrate(raw, self._before, after, self.ref_s)

    def median_us(self) -> float:
        return statistics.median(self.samples) * 1e6
