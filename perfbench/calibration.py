"""Machine-speed sampling for normalising timings.

On a shared virtual machine the same code runs at a speed that drifts
by +-20% over seconds to minutes (15-20 s window medians of one fixed
experiment spread 13-27% IQR over 3 minutes), for CPU time as much as
for wall time, so medians of raw times cannot be steady from run to
run.  Probing speed between operations tracked it poorly (per-operation
correlation 0.58): the speed changes within a one-second operation.

So the benchmark samples speed *during* each operation.  A timer signal
interrupts the program every PERIOD_S and the handler times a fixed
probe; the probes' time is subtracted from the operation's time, and
the rest is scaled to nominal speed:

    normalised = (measured - time in probes) * nominal / mean probe time

One probe before and one after the operation make sure a short
operation has samples too.  The probe is a burst of numpy calls on a
tiny array, the kind of work that dominates the program; over 3-minute
probes it brought the IQR of 15 s window medians from 0.21 to 0.09
(tree1k) and from 0.13 to 0.04 (example1).  A fresh interpreter timing
its own imports cannot load numpy first, so set-up uses a pure-Python
loop instead.  Probes cost about 2% of an operation.  The handler runs
between bytecodes of the main thread and changes no state of the
program.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
# Mean probe times on the machine the benchmark was defined on (2 vCPU
# Intel Xeon, Python 3.11.7, numpy 2.4.6) at its typical speed, so
# normalised times read as seconds on that machine.
NOMINAL_NUMPY_S = 0.00035
NOMINAL_PYTHON_S = 0.0012


def python_probe() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    t0 = time.perf_counter()
    n = 0
    for i in range(20_000):
        n += i
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs one operation at a time with speed probes around and inside
    it.  Uses SIGALRM, so only from the main thread."""

    def __init__(self, numpy_probe: bool = True):
        self._samples: list[float] = []
        self._spent = 0.0
        if numpy_probe:
            import numpy as np

            small = np.ones(9)

            def probe() -> float:
                t0 = time.perf_counter()
                for _ in range(120):
                    np.array(small, copy=True).sum()
                return time.perf_counter() - t0

            self._probe, self._nominal = probe, NOMINAL_NUMPY_S
        else:
            self._probe, self._nominal = python_probe, NOMINAL_PYTHON_S

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._samples.append(self._probe())
        self._spent += time.perf_counter() - t0

    def run(self, fn):
        """Returns fn's result, its seconds without probe time, and the
        factor that scales those seconds to nominal speed."""
        self._samples = [self._probe()]
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = elapsed - self._spent
        self._samples.append(self._probe())
        return out, seconds, self._nominal * len(self._samples) / sum(self._samples)
