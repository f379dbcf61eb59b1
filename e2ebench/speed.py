"""The machine-speed probe behind the end-to-end host-time metrics.

On a shared machine the CPU speed available to one process changes by
far more than the differences a benchmark must resolve.  On the 2-vCPU
reference container, with near-zero steal time and CPU time equal to wall
time, interpreted Python runs anywhere from its fast-state speed to
about 2x slower, in spells of one to tens of seconds.  Unscaled, ten
15-second runs per workload spread by up to 0.46 (interquartile range
over median); scaled as below, by at most 0.124.

The probe times one small interpreted kernel that shares no code with
the simulator, between ops.  Each op's host time is multiplied by the
kernel's reference time over its time around the op: the result is the
op's host time on a machine whose interpreter runs at reference speed.
A change to the simulator moves the op and not the kernel, so it shows
in full.  A change in the machine's speed moves both and cancels, as
far as the op slows like interpreted Python.  Native code (big-integer
modexp, hashing, ``min`` over a dict) slows less, so ops that spend
time there are over-corrected in the slow state; a change that moves
an op's time between interpreted and native code changes how much.
Every run therefore keeps the unscaled values beside the scaled ones
(see WORKLOADS.md).
"""

import bisect
import statistics
import time

#: least time between two probes: at a round's start, and between the
#: ops of a round (probing before any short op would slow whichever op
#: happens to follow it, at random)
ROUND_GAP_S = 0.02
OP_GAP_S = 0.1
#: kernel runs per probe; the probe keeps their median
SAMPLES = 3
#: probes on each side of a set-up, which is one call too long to probe
#: inside
BURST = 3
#: probes this close to an op set its speed (the machine's speed states
#: mostly last seconds)
WINDOW_S = 0.25
#: the kernel's time in seconds at reference speed: the fast state of
#: the reference container
REFERENCE_S = 0.00065


def kernel():
    """Dict churn driven by an integer LCG: interpreted Python."""
    table = {}
    x = 12345
    for i in range(1500):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 1023] = i
        if len(table) > 512:
            del table[next(iter(table))]


class SpeedProbe:
    """Kernel times along one run, and the speed scale they imply."""

    def __init__(self):
        self.times = []
        self.ratios = []

    def due(self, gap_s=ROUND_GAP_S):
        """Probe now unless the last probe is less than ``gap_s`` old."""
        now = time.perf_counter()
        if self.times and now - self.times[-1] < gap_s:
            return
        runs = []
        for _ in range(SAMPLES):
            start = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - start)
        self.ratios.append(statistics.median(runs) / REFERENCE_S)
        self.times.append((now + time.perf_counter()) / 2.0)

    def burst(self):
        """``BURST`` probes back to back."""
        for _ in range(BURST):
            self.due(0.0)

    def scale(self, t0, t1):
        """Reference speed over the machine's speed for an op that ran
        over ``[t0, t1]``: the kernel's mean ratio over the probes
        within ``WINDOW_S`` of it, else its nearest probe."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if lo >= hi:
            lo = min(bisect.bisect_left(self.times, t0), len(self.times) - 1)
            hi = lo + 1
        return 1.0 / statistics.fmean(self.ratios[lo:hi])

    def summary(self):
        return {"probes": len(self.ratios),
                "median_ratio": statistics.median(self.ratios),
                "min_ratio": min(self.ratios),
                "max_ratio": max(self.ratios)}
