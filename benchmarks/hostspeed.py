"""The host's speed, probed through every timed segment of the benchmark.

On a shared host a core's speed changes as other tenants start and stop on
it: a fixed kernel runs up to twice as slow, in stretches from under a
second to a minute.  Medians within one run do not remove that, because the
share of slow time differs from run to run, and a probe only before and
after a segment misses the changes inside it.

So a ``SegmentClock`` probes the host before and after each timed segment
and, through a ``SIGALRM`` interval timer, every ``TICK_S`` seconds inside
it.  A probe runs two small fixed kernels that use no fedoms code: an
interpreter loop of small numpy calls (the shape of a round at small M) and
an RFF-like matmul and cosine (the shape of a feature map).  Its slowdown
is the mean of the kernels' times over their reference times.  A segment's
scaled time is its measured time, less the probes inside it, times the mean
of 1/slowdown over its probes: the work it did, in reference seconds.  A
change to fedoms moves the scaled time by the same share as the measured
one; the host's changes move the probes too and cancel out.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Seconds each probe kernel takes at about its median speed on the host the
# benchmark was built on (2-vCPU Intel Xeon, Python 3.11, numpy 2.4, one
# BLAS thread); there the slowdown ranged from about 0.6 to 1.6.
REFERENCE_S = {"interpreter": 4.0e-4, "vector": 6.0e-4}
TICK_S = 0.05  # a probe costs about 1 ms, so ticks take about 2 % of a segment
BRACKET_PROBES = 5  # median of this many before and after each segment


class HostSpeed:
    """Fixed probe kernels on fixed inputs; ``probe()`` runs them now."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240415)  # fixed: not the workload seed
        self._rows = rng.random((200, 16))
        self._table = rng.random((200, 18))
        self._weights = rng.random((18, 100))

    def _interpreter(self) -> float:
        total = 0.0
        for i in range(150):
            total += float(self._rows[i].sum())
        return total

    def _vector(self) -> float:
        return float(np.cos(self._table @ self._weights).sum())

    def probe(self) -> float:
        """The host's slowdown now: mean over the kernels of time / reference."""
        start = perf_counter()
        self._interpreter()
        middle = perf_counter()
        self._vector()
        end = perf_counter()
        return ((middle - start) / REFERENCE_S["interpreter"]
                + (end - middle) / REFERENCE_S["vector"]) / 2

    def bracket(self) -> float:
        return statistics.median(self.probe() for _ in range(BRACKET_PROBES))


class SegmentClock:
    """Times named segments back to back, scaled by the host's slowdown.

    The probe after one segment is the probe before the next.  The clock
    owns ``SIGALRM`` from its creation on, so it must be made and used on
    the main thread; a tick that arrives between segments does nothing.
    """

    def __init__(self, host: HostSpeed) -> None:
        self._host = host
        self._samples: list[float] | None = None  # the open segment's probes
        self._probe_s = 0.0  # time the open segment's ticks spent probing
        signal.signal(signal.SIGALRM, self._on_tick)
        self._last = host.bracket()
        self.measured: dict[str, float] = {}
        self.slowdown: dict[str, float] = {}

    def _on_tick(self, signum, frame) -> None:
        if self._samples is None:
            return
        start = perf_counter()
        self._samples.append(self._host.probe())
        self._probe_s += perf_counter() - start

    @contextmanager
    def segment(self, name: str):
        samples = self._samples = [self._last]
        self._probe_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = perf_counter()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start
            self._samples = None
        self._last = self._host.bracket()
        samples.append(self._last)
        self.measured[name] = elapsed - self._probe_s
        # harmonic mean: the ticks are even in wall time, not in work done
        self.slowdown[name] = 1.0 / statistics.fmean(1.0 / s for s in samples)

    def scaled(self, name: str) -> float:
        return self.measured[name] / self.slowdown[name]
