"""Core-speed reference, sampled on the timed thread while it runs.

On a shared host the same CPU-bound call can take up to twice as long from
one minute to the next, because other tenants load the core's caches and
execution units.  CPU time does not see this.  ``SpeedSampler`` fires a
profiling timer every ``INTERVAL_S`` of CPU time, and its handler times a
fixed snippet of Python and small-matrix numpy work, the two kinds of work
binse does per frame.  The snippet runs on the same core at the same moments
as the code being timed, so its durations during a call tell how fast the
core was during that call.  The handler runs the snippet once untimed first,
so the timed run finds its own code and data in cache and depends little on
what the interrupted code had loaded there.

``normalized(cpu_s)`` rescales a CPU time to a core on which the snippet
takes ``REFERENCE_S``: the CPU seconds the call would take at that speed.
Samples come every ``INTERVAL_S`` of CPU time, so each stands for an equal
share of the call's CPU time, and the rescaled time is the CPU time times
the mean relative speed ``REFERENCE_S / duration`` of the samples.  A mean
of speeds, not a median of durations, weighs fast and slow stretches of a
call by their share, and a sample stretched by an interruption counts for
next to nothing.
The handler adds under 1 % of CPU time; it reads no state of the program and
so cannot change its outputs.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.04
# The warm snippet's fastest durations inside a CPU-bound numpy loop on an
# otherwise idle 2.1 GHz Xeon core were 93-94 us; the unit core is that one.
REFERENCE_S = 1.0e-4

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((24, 24))
_VECTOR = _rng.standard_normal(200)


def snippet():
    """The fixed reference work: an interpreted loop, then small numpy calls."""
    s = 0
    for i in range(500):
        s += i * i
    for _ in range(5):
        np.linalg.solve(_MATRIX, _MATRIX[0])
        np.dot(_VECTOR, _VECTOR)
        np.cumsum(_VECTOR)
    return s


class SpeedSampler:
    """Context manager: samples the snippet's duration while the body runs."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _handler(self, signum, frame):
        snippet()
        t0 = time.perf_counter()
        snippet()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def slowdown(self):
        """Harmonic mean of the snippet durations over REFERENCE_S; 1.0 without samples."""
        if not self.samples:
            return 1.0
        return statistics.harmonic_mean(self.samples) / REFERENCE_S

    def normalized(self, cpu_s):
        return cpu_s / self.slowdown()

