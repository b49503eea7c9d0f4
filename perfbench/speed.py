"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed changes under it: on
the 2-core KVM guest it was written on, the same call took 0.60 s or
0.85 s from one second to the next, and the mean speed drifted by 30%
over an hour.  So besides the wall time, each timed interval gets a
speed-scaled time: a fixed kernel of pure-Python and numpy work runs
every INTERVAL_S (from a SIGALRM handler, between the bytecodes of the
code being timed), and each stretch of time between two kernel runs is
scaled by REF_S over the mean kernel time at its two ends.  The scaled
time reads in seconds at the speed at which the kernel takes REF_S.
The kernel's own runs are taken out of both times.
"""

from __future__ import annotations

import math
import signal
import time

REF_S = 2.75e-3  # kernel seconds at the reference speed: the unit of scaled times
INTERVAL_S = 0.25
_PY_STEPS = 6000


class Speed:
    def __init__(self):
        import numpy as np  # the package has loaded it by now

        rng = np.random.default_rng(0)
        self._np = np
        self._x = rng.standard_normal(100_000)
        a = rng.standard_normal((200, 200))
        self._spd = a @ a.T + 200.0 * np.eye(200)
        # (start, end, kernel s, its Python half, its numpy half)
        self.samples: list[tuple[float, float, float, float, float]] = []
        self.intervals: list[tuple[float, float]] = []  # measured (t0, t1)
        self._armed = False
        # installed for good: a tick still pending when a measurement ends
        # must find this handler, not the default one, which kills the process
        signal.signal(signal.SIGALRM, self._tick)

    def _kernel(self):
        """Half interpreter work, half numpy and LAPACK work, as the
        package's code paths mix them; the two slow down by different
        factors (1.5 and 1.3) when the machine does."""
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(_PY_STEPS):
            acc += math.hypot(i * 0.5, 3.0) * math.exp(-1e-4 * i)
        t1 = time.perf_counter()
        y = self._np.exp(-self._x * self._x)
        y.sort()
        self._np.linalg.cholesky(self._spd)
        return t1 - t0, time.perf_counter() - t1

    def sample(self):
        """Time the kernel now; the best of two runs sheds an interrupt."""
        t0 = time.perf_counter()
        kp, kn = min(self._kernel(), self._kernel(), key=sum)
        self.samples.append((t0, time.perf_counter(), kp + kn, kp, kn))
        return kp + kn

    def _tick(self, signum, frame):
        if self._armed:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)  # one-shot: never nests

    def measure(self, fn):
        """Run fn() and return (its result, wall s, speed-scaled s)."""
        self.sample()
        first = len(self.samples) - 1
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            t1 = time.perf_counter()
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.intervals.append((t0, t1))
        # a tick may have run between t1 and disarming
        marks = [s for s in self.samples[first:] if s[0] < t1]
        self.sample()
        marks.append(self.samples[-1])
        # the gaps between kernel runs are fn's own time
        edges = [t0] + [x for s in marks[1:-1] for x in s[:2]] + [t1]
        wall = scaled = 0.0
        for i in range(len(marks) - 1):
            gap = edges[2 * i + 1] - edges[2 * i]
            wall += gap
            scaled += gap * 2.0 * REF_S / (marks[i][2] + marks[i + 1][2])
        return out, wall, scaled
