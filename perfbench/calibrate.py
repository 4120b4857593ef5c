"""Machine-speed calibration with a fixed kernel that does not use the package.

On the 2-core machine this benchmark was defined on, the speed of the same
single-threaded code moves between states up to 1.7x apart.  A state lasts
from a fraction of a second to minutes (other tenants of the host), so raw
times of 15-second runs spread by about 30% from run to run.  The benchmark
therefore reports times in reference seconds: while a unit runs, a SIGALRM
handler times a short kernel (a tick) every PERIOD_S seconds of wall time,
and each tick's share of the unit is scaled by REFERENCE_S / tick seconds.
Tick time is excluded from the unit's time.  The raw times are printed next
to the scaled ones.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# Tick time at the reference speed (the usual fast state of that machine).
REFERENCE_S = 0.0007

_X = np.linspace(0.0, 1.0, 8)
_M = np.random.default_rng(0).standard_normal((64, 64))


def _tick():
    # interpreter overhead, small NumPy calls and elementwise work on a
    # mid-size array: the kinds of work the workloads do
    x = _X
    for _ in range(150):
        x = x + np.sin(x) * 0.5
    s = 0
    for i in range(6000):
        s += i * i % 7
    for _ in range(4):
        (_M / (_M**2 + 1.0)).sum(axis=1)


def tick_seconds(repeats=25):
    """Median tick time over `repeats` ticks run back to back."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _tick()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Ticks every PERIOD_S seconds of wall time inside a `with` block.

    Signal handlers run in the main thread between bytecodes, so a tick
    never interrupts the package in the middle of a NumPy call.  `wrap`, when
    given, wraps the tick (the tracer uses it to record tick spans).
    """

    def __init__(self, wrap=None):
        self.ticks = []
        self._tick = wrap(_tick, "bench.calibrate") if wrap else _tick

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self._tick()
        self.ticks.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, elapsed):
        """(raw, reference) seconds of a block that took `elapsed` seconds."""
        raw = elapsed - sum(self.ticks)
        ticks = self.ticks or [tick_seconds()]
        return raw, raw * statistics.fmean(REFERENCE_S / t for t in ticks)
