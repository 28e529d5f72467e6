"""Times at the host's reference speed.

The host is shared, and its speed moves by tens of percent over tens of
seconds with other tenants' load, which a run cannot average away.  A fixed
loop of Fraction and dict work, the kind of work wpx does, tracks that
speed: a span's time times the loop's reference time over the loop's time
during the span is the span's time at the reference speed.  The loop is
benchmark code, so a change to wpx moves scaled times as much as raw ones.
"""

import bisect
import heapq
import signal
import time
from fractions import Fraction

# The reference speed: the median time of one iteration of the loop on a
# shared 2-vCPU 2.0 GHz Xeon host with Python 3.11, between and during the
# operations of these workloads.  Scaled times read close to the times
# measured there.
REF_S_PER_ITERATION = 0.020 / 6000
# ``Sampler`` runs the loop this many times, about 1 ms, every
# SAMPLE_INTERVAL_S; a span with fewer samples in it uses the
# NEAREST_SAMPLES samples nearest to it.
SAMPLE_ITERATIONS = 300
SAMPLE_INTERVAL_S = 0.05
NEAREST_SAMPLES = 3


def calibrate(iterations: int = 6000) -> float:
    """Seconds per iteration of the fixed loop, run ``iterations`` times."""
    t0 = time.perf_counter()
    total = Fraction(0)
    counts = {}
    for i in range(1, iterations + 1):
        total += Fraction(i % 17, i % 13 + 1)
        counts[i % 97] = counts.get(i % 97, 0) + i
    return (time.perf_counter() - t0) / iterations


def scaled(seconds: float, per_iteration: float) -> float:
    """``seconds`` at the reference speed, given the loop's time per
    iteration over the same stretch."""
    return seconds * REF_S_PER_ITERATION / per_iteration


class Sampler:
    """Runs a short loop every ``SAMPLE_INTERVAL_S`` of wall time, from a
    SIGALRM handler, so it samples the host's speed during operations as
    well as between them.  ``stolen`` is the total time spent in the
    handler, which callers take out of the spans they time."""

    def __init__(self) -> None:
        self.times = []
        self.loops = []
        self.stolen = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        per_iteration = calibrate(SAMPLE_ITERATIONS)
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.loops.append(per_iteration)
        self.stolen += t1 - t0

    def start(self) -> None:
        """Take a sample, then one every ``SAMPLE_INTERVAL_S``."""
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling, then take a last sample."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def speed(self, t0: float, t1: float) -> float:
        """The mean loop time per iteration of the samples taken between
        ``t0`` and ``t1``, or, when fewer than ``NEAREST_SAMPLES`` were, of
        the ``NEAREST_SAMPLES`` samples nearest the middle of that span."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        chosen = range(lo, hi)
        if len(chosen) < NEAREST_SAMPLES:
            middle = (t0 + t1) / 2
            chosen = heapq.nsmallest(
                NEAREST_SAMPLES, range(len(self.times)), key=lambda i: abs(self.times[i] - middle))
        return sum(self.loops[i] for i in chosen) / len(chosen)
