"""Machine speed during a run, from a fixed reference kernel.

On a shared host the speed of the same Python code drifts by a third
and more over seconds to minutes, as neighbours come and go.  To keep
that out of the comparison of two versions of npcc, the run times a
small pure-Python kernel (integer loop, Fraction sums, tuple hashing
and sorting; none of it npcc) between operations, at most every
SAMPLE_EVERY seconds and never inside a timed operation.  An
operation's latency is then scaled by REFERENCE_S over the median
kernel time around it: the latency it would have had at the speed at
which the kernel takes REFERENCE_S.  The kernel does not change
when npcc does, so a faster npcc still reads faster.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

SAMPLE_EVERY = 0.2
WINDOW = 1.0  # seconds around an operation whose kernel samples count
# Median kernel seconds on the machine the benchmark was defined on
# (see README); the scaled figures are in that machine's seconds.
REFERENCE_S = 0.003


def kernel() -> int:
    total = 0
    for i in range(20000):
        total += i * i % 7
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[i * 7919 % 1013] = acc
    rows = [tuple(i * j % 97 for j in range(8)) for i in range(300)]
    ordered = sorted(rows, key=lambda r: (sum(r), r))
    return total + len(table) + len(set(rows)) + len(ordered)


class SpeedProbe:
    """Kernel samples taken between operations, and the scaling they give."""

    def __init__(self):
        self.times: list[float] = []  # start of each sample
        self.seconds: list[float] = []  # kernel duration of each sample

    def sample(self) -> None:
        clock = time.perf_counter
        t0 = clock()
        kernel()
        self.times.append(t0)
        self.seconds.append(clock() - t0)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW of [t0, t1]."""
        i = bisect.bisect_left(self.times, t0 - WINDOW)
        j = bisect.bisect_right(self.times, t1 + WINDOW)
        if j - i < 3:  # too few samples near the interval: take the three nearest
            near = sorted(range(len(self.times)),
                          key=lambda k: max(t0 - self.times[k], self.times[k] - t1, 0.0))
            window = [self.seconds[k] for k in near[:3]]
        else:
            window = self.seconds[i:j]
        return REFERENCE_S / statistics.median(window)
