"""Host speed, measured by a fixed reference loop, and reference seconds.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
up to 2x over tens of seconds, as other tenants come and go.  The same
pass, on the same code, then takes anywhere from 1x to 2x as long; a
minute of passes is too short to average that out.  So every timing is
also given in reference seconds: the time it would have taken at the
host speed where reference_loop() takes REF_LOOP_S.

    reference seconds = measured seconds * mean(REF_LOOP_S / loop time)

over loop timings taken during the measured stretch.  The loop is
benchmark code, never qcool's, so a slower qcool still reads slower:
only the host's speed divides out.  On the tuning host, over ten
60-second runs, this took the spread of generate's wall_s across runs
from 0.14 of its median to 0.035.
"""

from __future__ import annotations

import signal
import statistics
import time

# About reference_loop()'s median time on the tuning host (2 vCPUs of an
# Intel Xeon, Python 3.11).  Any fixed value would do; this one makes
# reference seconds read close to that host's typical wall seconds.
REF_LOOP_S = 0.0008
SAMPLE_PERIOD_S = 0.1


class _Gate:
    __slots__ = ("target", "controls")

    def __init__(self, target, controls):
        self.target = target
        self.controls = controls


def _step(a: int, b: int) -> int:
    return a + b if a & 1 else a - b


def reference_loop() -> int:
    """About a millisecond of the kinds of work qcool's pure-Python paths
    do: integer arithmetic, calls, small objects, generators and tuple
    copying."""
    x = 0
    for i in range(1500):
        x = _step((x * 31 + i) & 0xFFFFFFFF, i)
    t = ()
    for i in range(120):
        t = t + (i, x)
    gates = ()
    for i in range(40):
        controls = tuple((p, (i >> p) & 1) for p in range(10) if p != 3)
        gates = gates + (_Gate(i & 7, controls),)
    return x + len(t) + len(gates)


def time_loop() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def speed_factor(loop_times: list[float]) -> float:
    """Host speed relative to the reference, averaged over the samples.

    Speeds, not times, are averaged: a sample stretched by a preemption
    then counts for little instead of dominating.
    """
    return statistics.fmean(REF_LOOP_S / t for t in loop_times)


class Sampler:
    """Times reference_loop() every SAMPLE_PERIOD_S seconds of wall time,
    on SIGALRM, in the main thread of this process (forked children do
    not inherit the timer), and once at each mark()."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, *_) -> None:
        self.samples.append(time_loop())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> None:
        """Take one sample now."""
        self._tick()
