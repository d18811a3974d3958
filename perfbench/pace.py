"""The machine's current speed, sampled while the benchmark runs.

On a few cores of a shared host the same work runs a third slower or
more, for seconds to minutes at a time, while other tenants are busy
(CPU time slows with wall time, so it is not time spent descheduled;
a 1-minute pattern of sweep-eps commands on a 2-core Xeon at 2.1 GHz
ranged 0.25-0.40 s per command). A command's wall
time then says as much about the neighbours as about the program. A
``Pace`` interrupts the process every ``PERIOD`` seconds (SIGALRM, so
the sample runs in the main thread between two bytecodes and never
alongside the program) and times a fixed reference computation: the
same kind of work as the program does, upwind differences, an
elementwise Hamiltonian and a banded solve on a 4096-node periodic
grid, plus some dict and string work. It shares no code with
minmax_hj, so a change to the program cannot change it.

A command's time divided by the median reference time around it is
its cost in reference units: it moves with the program and hardly with
the host. Time spent in the sampler is taken out of the clock that
times the commands.
"""

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.linalg import solve_banded

PERIOD = 0.25       # seconds between samples, about 1.5% of the run
WINDOW = 1.0        # seconds either side of a command to take samples from
N = 4096

_X = np.linspace(0.0, 1.0, N, endpoint=False)
_AB = np.zeros((3, N))
_AB[0], _AB[1], _AB[2] = -1.0, 4.0, -1.0


def reference_work():
    """The fixed computation whose time measures the machine's speed:
    about four parts array work to one part interpreter work (dicts and
    strings, as in config parsing and the command-line layer). Array
    work alone tracks the solver workloads best, and check-media, which
    is mostly interpreter work, needs the interpreter part; this blend
    steadied all three kinds of command."""
    v = np.sin(2 * np.pi * _X)
    for _ in range(40):
        dp = (np.roll(v, -1) - v) * N
        dm = (v - np.roll(v, 1)) * N
        h = np.maximum(np.abs(0.5 * (dp + dm)) - 0.5, 1.0) \
            - 0.01 * (dp - dm)
        v = v - 1e-6 * h
    counts = {}
    for i in range(1600):
        key = "k%d" % (i % 97)
        counts[key] = counts.get(key, 0) + i * 0.5
    return solve_banded((1, 1), _AB, v), sorted(counts.items())


class Pace:
    """Samples reference_work() on a timer between start() and stop()."""

    def __init__(self):
        self.stolen = 0.0           # seconds spent inside the sampler
        self.at = []                # sample times, on clock()
        self.took = []              # seconds each sample took
        self._previous = None

    def clock(self):
        """perf_counter() without the time spent sampling."""
        return time.perf_counter() - self.stolen

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_work()
        took = time.perf_counter() - t0
        self.at.append(t0 - self.stolen)
        self.took.append(took)
        self.stolen += took

    def start(self):
        reference_work()            # warm: first-call costs stay out
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def reference(self, t0, t1):
        """Median reference time of the samples taken within WINDOW of
        the interval [t0, t1] on clock()."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW)
        hi = bisect.bisect_right(self.at, t1 + WINDOW)
        if lo == hi:
            raise RuntimeError("no reference sample near a command")
        return statistics.median(self.took[lo:hi])
