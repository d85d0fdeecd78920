"""A clock in reference seconds, corrected for the host's changing speed.

On shared hosts the speed of one core moves in steps, for seconds at a time:
on a 2-core Xeon a fixed loop ran at 15 ms or 21 ms per call, and a 1.5 s
check suite at 1.0 s or 1.8 s, depending on the neighbours.  Wall
times of runs that happen to fall in different states then differ by more
than a regression worth catching.

:class:`SpeedClock` times a short fixed probe loop every ``INTERVAL_S`` (on
``SIGALRM``, in the main thread) and integrates elapsed time scaled by the
probe's recent median speed: a reference second is the time the benchmark would have
taken had every probe run in ``REFERENCE_PROBE_S``.  The probe's own time is
left out.  A change that makes tractorlab faster shows in full, since the
probe does not use tractorlab.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

import numpy as np

INTERVAL_S = 0.05
#: The speed applied is the median of this many latest probes, which damps
#: the jitter of a 0.2 ms measurement; the host's states last seconds.
SMOOTHING = 5
#: Probe time that defines a reference second (the probe's time in the
#: faster state of the host the benchmark was written on).
REFERENCE_PROBE_S = 2.0e-4

# The probe mimics the shape of tractorlab's hot path (small objects whose
# products are a numpy gather, a multiply and a bincount), without calling
# tractorlab: a pure-Python loop under-reads how much the host's slow state
# slows this kind of code (1.47x against 1.74x on the 2-core Xeon), which
# left a 15% spread where this probe leaves 5%.
_II = np.array([0, 1, 2, 3, 1, 2, 3, 4, 5, 6])
_JJ = np.array([0, 0, 0, 0, 1, 1, 2, 3, 3, 4])
_BASE = np.arange(15.0)


class _Coeffs:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        return _Coeffs(np.bincount(_II, weights=self.c[_II] * other.c[_JJ],
                                   minlength=15))

    def __add__(self, other):
        return _Coeffs(self.c + other.c)


def _probe() -> None:
    a = _Coeffs(_BASE * 0.01)
    b = _Coeffs(_BASE * 0.02)
    for _ in range(50):
        a = a * b + b


class SpeedClock:
    """Context manager; :meth:`now` reads reference seconds while it is open."""

    def __init__(self):
        self.reference_s = 0.0
        self.wall_s = 0.0
        self._rate = 1.0
        self._recent: deque[float] = deque(maxlen=SMOOTHING)
        self._last = 0.0
        self._old_handler = None

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _probe()
        end = time.perf_counter()
        self._recent.append(REFERENCE_PROBE_S / (end - start))
        rate = statistics.median(self._recent)
        # the interval since the last probe gets the mean of the speeds
        # measured at its two ends
        elapsed = start - self._last
        self.reference_s += elapsed * 0.5 * (self._rate + rate)
        self.wall_s += elapsed
        self._rate = rate
        self._last = end

    def __enter__(self) -> "SpeedClock":
        for _ in range(3):  # first calls into numpy run slower
            _probe()
        self._last = time.perf_counter()
        for _ in range(SMOOTHING):
            self._sample()
        self.reference_s = self.wall_s = 0.0
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def now(self) -> float:
        """Reference seconds since the clock was opened."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self.reference_s + (time.perf_counter() - self._last) * self._rate
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def mean_speed(self) -> float:
        """Reference seconds per wall second so far."""
        return self.reference_s / self.wall_s if self.wall_s else self._rate
