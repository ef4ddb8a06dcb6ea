"""The host's speed over a run, sampled by a fixed reference kernel.

This host's neighbours slow it down by up to 1.8x, for periods from a
few seconds to longer than a whole run, and that moves every operation's
wall time.  A timer interrupts the run every ``INTERVAL`` seconds and
times ``kernel()``, a fixed piece of big-integer ``Fraction`` arithmetic
that does not depend on toricjac.  An operation's calibrated time is its
wall time with the probes taken out, scaled by ``REFERENCE_S`` over the
mean probe time while it ran: the seconds it would take on a host where
the kernel takes ``REFERENCE_S``.  A slow spell lengthens the operation
and the probes alike, so it cancels; a change to toricjac moves only the
operation.
"""

import signal
import time
from fractions import Fraction

INTERVAL = 0.1
# About the kernel's median time on the 2-vCPU host the benchmark was
# tuned on, so calibrated seconds read close to its wall seconds.
REFERENCE_S = 0.0035


def kernel():
    """Sum 1/i for i < 700: about 3.5 ms of growing-denominator arithmetic."""
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(1, i)
    return total


def kernel_seconds():
    """Seconds of one run of ``kernel()``."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(seconds, speed):
    """Seconds taken at a kernel time of ``speed``, rescaled to REFERENCE_S."""
    return seconds * REFERENCE_S / speed


class Probe:
    """Times ``kernel()`` from a SIGALRM timer while it is running."""

    def __init__(self):
        self.samples = []  # (start, seconds) of each kernel run

    def _sample(self, signum, frame):
        self.samples.append((time.perf_counter(), kernel_seconds()))

    def __enter__(self):
        kernel()  # warm up outside the samples
        self._sample(None, None)  # so that the first span has a probe before it
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrate(self, start, seconds):
        """Calibrated seconds of a span of wall time that began at ``start``.

        The probes that ran inside the span are taken out of it.  The
        host's speed is that of those probes, and of the last one before
        the span, so that a span shorter than ``INTERVAL`` has one too.
        """
        end = start + seconds
        before = [s for s in self.samples if s[0] < start][-1:]
        inside = [s for s in self.samples if start <= s[0] < end]
        window = before + inside
        if not window:
            raise RuntimeError("no host-speed probe before or during the span")
        speed = sum(d for _, d in window) / len(window)
        return scale(seconds - sum(d for _, d in inside), speed)
