"""Host-speed calibration for the end-to-end timings.

The machines this benchmark runs on share their cores: the same operation's
wall time and CPU time both swing by up to 2x within a minute, for stretches
of several seconds, as other work lands on the host. So while the
operations run, a timer interrupts the program every ``INTERVAL_S`` and times
a fixed kernel (interpreted tuple building and sorting plus numpy float32
draws, like the package's own mix). An operation's time is scaled by
``REFERENCE_S`` over the median kernel time around it, which gives its time on
a host where the kernel takes ``REFERENCE_S``. The kernel shares no code with
the package, so a faster program still reads faster. The handler's own time
is taken out of the operation it interrupted.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# Samples this far either side of an operation set its scale; host-speed
# stretches last several seconds, and ~40 samples keep the kernel's own
# jitter out of the figure.
WINDOW_S = 2.0
# About the median kernel time on the 2-core host the reference figures
# come from, when the kernel interrupts the package's work.
REFERENCE_S = 1.0e-3


class HostClock:
    """Kernel timings on a SIGALRM timer, active inside a ``with`` block."""

    def __init__(self):
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self.stolen_s = 0.0  # total time spent in the handler
        self._previous = None
        self._xs = [float(i) * 0.37 for i in range(1200)]
        self._rng = np.random.default_rng(0)
        self._buf = np.empty(20_000, dtype=np.float32)

    def kernel(self) -> None:
        cells = []
        xs = self._xs
        for i in range(len(xs) - 1):
            a, b = xs[i], xs[i + 1]
            cells.append((a, b, a * b - 0.5 * (a + b)))
        cells.sort(key=lambda cell: cell[2])
        self._rng.standard_normal(dtype=np.float32, out=self._buf)
        np.exp(self._buf, out=self._buf)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.kernel_s.append(t1 - t0)
        self.stolen_s += t1 - t0

    def __enter__(self) -> "HostClock":
        self._tick(None, None)  # so every run has a sample at each end
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time from start - WINDOW_S to end + WINDOW_S."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        window = self.kernel_s[lo:hi]
        return REFERENCE_S / statistics.median(window)
