"""Host speed, measured by a fixed reference kernel next to the program.

The benchmark runs on a shared VM whose speed changes by up to 2x within
a fraction of a second and stays changed for seconds or minutes, so the
same work takes very different wall times from run to run.  To take that
out, an untraced unit runs ``kernel`` every few milliseconds between the
program's tasks, and each part of the unit is scaled by ``REF_S`` over the
kernel's time around it: a part's reported time is what it would have
taken on a host that runs the kernel in ``REF_S`` seconds.

The kernel does what the simulator does -- a heap of events, a Python
loop and small numpy updates -- and imports nothing from ``macc``,
so a change to the program moves the program's times and never the
kernel's.  Its time is taken out of every measured part.
"""

import heapq
import random
import statistics
import time

import numpy as np

REF_S = 4.0e-4      # the kernel's time on the 2-CPU Xeon VM of baseline.json, fast phase
PERIOD_S = 5.0e-3   # least program time between two kernel runs
WINDOW = 2          # a part is scaled by the median of the kernel runs within this many of it

_clock = time.perf_counter


def kernel():
    """A fixed event-loop workload of about 0.4 ms; returns its result."""
    rng = random.Random(3)
    queue = []
    for i in range(300):
        heapq.heappush(queue, (rng.random(), i))
    acc = np.zeros(8)
    while queue:
        t, i = heapq.heappop(queue)
        acc[i % 8] += t
        if i < 600 and i % 3 == 0:
            heapq.heappush(queue, (t + rng.random(), i + 300))
    return float(acc.sum())


def time_kernel():
    t0 = _clock()
    kernel()
    return _clock() - t0


class Speed:
    """Kernel runs taken during a unit, and the scale of each part by them."""

    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def maybe_sample(self):
        """Run the kernel if PERIOD_S has passed since the last run; returns the time spent."""
        t0 = _clock()
        if t0 - self._last < PERIOD_S:
            return 0.0
        self.samples.append(time_kernel())
        self._last = _clock()
        return self._last - t0

    @property
    def index(self):
        """The index of the latest kernel run, the one a part that starts now is scaled by."""
        return len(self.samples) - 1

    def scales(self):
        """REF_S over the local kernel time, for each kernel run index."""
        s = self.samples
        return [
            REF_S / statistics.median(s[max(0, i - WINDOW): i + WINDOW + 1])
            for i in range(len(s))
        ]


def scale_now(repeats=21):
    """REF_S over the median kernel time of a burst of runs, for one-off timings."""
    return REF_S / statistics.median(time_kernel() for _ in range(repeats))
