"""A speed probe that turns wall time into reference seconds.

This benchmark runs on a few vCPUs of a shared host, where the same pass can
take 1x or 2x its time from one minute to the next, because of load outside
the machine.  Only the rate changes: the work is the same.  The probe
measures that rate while a pass runs.  Every ``PERIOD_S`` a ``SIGALRM``
handler times one fixed slice of ``Fraction`` arithmetic, the kind of exact
work the program does.  Of the slices tried (Fraction arithmetic, C-level
integer gcd, object churn, random memory access, a plain loop), Fraction
arithmetic followed the program's slowdowns most closely.  A slice takes
``REF_SLICE_S`` on an unloaded machine, so ``REF_SLICE_S / slice time`` is
the machine's speed at that moment, and ``ref_seconds`` is the time a
stretch of program work would have taken at reference speed.

The slices are the probe's own time, about 3% of the wall time at the
default period.  ``ref_seconds`` leaves them out; what it keeps of the probe
is the delivery of the signal and the call of the handler.

The probe and the program share one thread and one interpreter, so the
probe has no process of its own to start or stop.  ``PERIOD_S`` is wall time,
so a slower machine gets no fewer slices per second.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

#: Time between two slices.
PERIOD_S = 0.01
#: Time of one slice on an unloaded 2-vCPU Intel Xeon virtual machine with
#: CPython 3.11.7.  It only sets the scale of the reference seconds.
REF_SLICE_S = 0.00025
#: Each stretch of program time is scaled by the median speed of this many
#: slices around it, so that one slice slowed by an interrupt counts little.
WINDOW = 5

_rng = random.Random(20051267)
_OPERANDS = [
    Fraction(_rng.randrange(1, 10**15), _rng.randrange(1, 10**15)) for _ in range(32)
] + [Fraction(_rng.randrange(1, 1000), _rng.randrange(1, 1000)) for _ in range(32)]


def _slice():
    acc = Fraction(0)
    for i in range(60):
        if i % 6:
            acc = acc * _OPERANDS[i % 64] + _OPERANDS[(7 * i + 3) % 64]
        else:
            acc = _OPERANDS[(5 * i) % 64]
    return acc


class SpeedProbe:
    """Times a probe slice every ``PERIOD_S`` between ``start`` and ``stop``."""

    def __init__(self):
        self.samples = []  # (start, duration) of each slice, in time order
        self._speeds = None
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        _slice()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._handler(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        half = WINDOW // 2
        durations = [d for _, d in self.samples]
        self._speeds = [
            REF_SLICE_S / statistics.median(durations[max(0, k - half): k + half + 1])
            for k in range(len(durations))
        ]

    def speed(self, a=float("-inf"), b=float("inf")):
        """Median speed over the slices that started between ``a`` and ``b``,
        or over the first slice if none did; 1.0 is the reference machine."""
        starts = [s for s, _ in self.samples]
        first = bisect.bisect_left(starts, a)
        last = max(first + 1, bisect.bisect_left(starts, b))
        return statistics.median(self._speeds[first:last])

    def ref_seconds(self, a, b):
        """Program time between ``a`` and ``b`` (``perf_counter`` values), in
        reference seconds.

        The probe's own slices are left out.  Each stretch of program time
        between two slices is scaled by the speed at the slice that ends it;
        the last stretch by the speed at the last slice before ``b``.
        """
        starts = [s for s, _ in self.samples]
        first = bisect.bisect_left(starts, a)
        last = bisect.bisect_left(starts, b)
        total, t = 0.0, a
        for k in range(first, last):
            s, d = self.samples[k]
            total += (s - t) * self._speeds[k]
            t = s + d
        return total + (b - t) * self._speeds[max(0, last - 1)]
