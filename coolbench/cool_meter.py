"""Host-speed meter: timings in seconds at a fixed nominal speed.

Shared hosts change speed by up to a factor of two over minutes (other
tenants, clock boost), which swamps a 25% bound on 10-20 s measurements.  While
work runs, the meter samples two frozen calibration loops every
``PERIOD_S`` from a ``SIGALRM`` handler: an arithmetic loop (core
speed) and a walk over scattered integers (cache and memory speed),
each the best of three back-to-back runs, so the loops measure the host
rather than the cache state the interrupted program left.  A sample's
speed is the geometric mean of the two loops' speeds against their
nominal times.  The loops are benchmark code, so no change to the
program can move them.

The loops see a slower core but not a core taken away: when the
hypervisor or another process holds the CPU, a best-of-three loop still
runs at full speed while the program's wall time grows (two busy
processes on the 2-CPU host stretched a ``store_warm`` pass by 65% and
its CPU time by 9%).  So an interval's *nominal* duration is the main
thread's CPU time in it (the kernel leaves stolen time out), minus the
meter's own sampling, times the mean speed over the samples inside it:
the time the same work would take on a dedicated host where the loops
take their nominal times.  Time spent blocked, such as waiting for the
disk, is not counted either.  All timed work runs in the main thread,
where the ``SIGALRM`` handler runs too; the process's CPU time would also
count the BLAS threads that spin while numpy is imported.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

#: Calibration-loop times that define nominal speed (about the typical
#: speed of the 2-CPU host the benchmark was written on).
NOMINAL_LOOP_S = 25e-6
NOMINAL_WALK_S = 65e-6
PERIOD_S = 0.05
#: Shortest window the speed of an interval is averaged over: single
#: samples jitter by about a tenth, the host's speed drifts over seconds.
WINDOW_S = 1.0


def calibration_loop() -> int:
    total = 0
    for i in range(300):
        total += i * i % 7
    return total


_RNG = random.Random(20)
#: 200k boxed integers (about 8 MB) and 1000 scattered picks into them.
_POOL = [_RNG.randrange(10**9, 10**12) for _ in range(200_000)]
_PICKS = [_RNG.randrange(len(_POOL)) for _ in range(1000)]


def memory_walk() -> int:
    pool = _POOL
    total = 0
    for index in _PICKS:
        total += pool[index]
    return total


def _best_of_three(loop) -> float:
    best = float("inf")
    for _ in range(3):
        begun = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - begun)
    return best


def sample_speed() -> float:
    """Host speed now, against nominal (1.0 = nominal, 2.0 = twice)."""
    return ((NOMINAL_LOOP_S / _best_of_three(calibration_loop))
            * (NOMINAL_WALK_S / _best_of_three(memory_walk))) ** 0.5


class SpeedMeter:
    """Samples host speed while active (a context manager)."""

    def __init__(self) -> None:
        #: Per sample: when it started and the host speed.
        self.times: list[float] = []
        self.speeds: list[float] = []
        #: ``perf_counter`` and the main thread's CPU seconds outside
        #: the meter, at entry and at the end of every sample.
        self.clock: list[float] = []
        self.work: list[float] = []
        self._sampling_cpu = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        cpu = time.thread_time()
        speed = sample_speed()
        self.times.append(started)
        self.speeds.append(speed)
        now = time.thread_time()
        self._sampling_cpu += now - cpu
        self.clock.append(time.perf_counter())
        self.work.append(now - self._sampling_cpu)

    def __enter__(self) -> "SpeedMeter":
        self.clock.append(time.perf_counter())
        self.work.append(time.thread_time())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _work_at(self, moment: float) -> float:
        """CPU seconds outside the meter up to ``moment``, interpolated
        between the two nearest points (extrapolated past the last)."""
        i = min(max(bisect.bisect_right(self.clock, moment), 1),
                len(self.clock) - 1)
        t0, t1 = self.clock[i - 1], self.clock[i]
        w0, w1 = self.work[i - 1], self.work[i]
        return w0 + (moment - t0) * (w1 - w0) / (t1 - t0)

    def seconds(self, begin: float, end: float) -> float:
        """Nominal seconds of the ``perf_counter`` interval [begin, end].

        The speed is the mean over the samples inside the interval,
        widened to ``WINDOW_S`` around its middle when it is shorter.
        """
        if not self.speeds:
            raise RuntimeError("no speed samples: the meter was not running")
        middle = (begin + end) / 2
        lo = bisect.bisect_left(self.times, min(begin, middle - WINDOW_S / 2))
        hi = bisect.bisect_right(self.times, max(end, middle + WINDOW_S / 2))
        speeds = self.speeds[lo:hi] or self.speeds[max(0, lo - 1):lo + 1]
        busy = self._work_at(end) - self._work_at(begin)
        return busy * statistics.fmean(speeds)

    def speed(self) -> float:
        """Mean host speed over every sample (1.0 = nominal)."""
        return statistics.fmean(self.speeds)
