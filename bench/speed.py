"""The host's speed, measured alongside the workload.

The benchmark runs on shared hosts whose CPU speed swings by a quarter
and more over seconds, as other tenants come and go.  Such a swing moves
the library's calls and a fixed kernel alike, so the kernel is timed
between the workload's calls (a *tick*), and each call's time is scaled
by how fast the kernel ran just before and just after it.  Scaled times
read as if the host ran at the reference speed: the speed at which one
kernel run takes the kernel's reference time.  Only the host's speed
cancels; a change to the library moves its calls and leaves the kernel
alone.

There are two kernels, each like the work it stands for.  In-process
calls are scaled by ``python_kernel``; ``cli`` subprocesses, whose time
is mostly interpreter start and imports, by ``process_kernel``, the
start of a bare interpreter.  On a 2-vCPU VM the scaled times of
4-second stretches varied by about 1% where the raw times varied by
15-20%, and by 5-6% with the other kernel.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from fractions import Fraction

from spans import clock

INTERVAL_S = 0.05  # ``mark`` ticks again once this long has passed


def python_kernel():
    """A fixed mix of what the library spends its time on: small tuples,
    frozensets, dict updates, integer and Fraction arithmetic.  It
    tracks the library's speed on a contended host far better than a
    loop of integer arithmetic alone.  About 0.4 ms."""
    counts: dict[tuple, int] = {}
    total, frac = 0, Fraction(0)
    for i in range(700):
        key = (i % 13, i % 7, i % 5)
        counts[key] = counts.get(key, 0) + len(frozenset(key))
        total += sum(key) * 3 // 7
        if i % 40 == 0:
            frac += Fraction(i, 7)
    return total, frac


def process_kernel():
    """Start and stop an interpreter that skips ``site``.  About 11 ms."""
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)


# kernel -> (seconds per run at the reference speed, runs per tick)
KERNELS = {python_kernel: (0.0005, 5), process_kernel: (0.010, 3)}


class Speedometer:
    """The run's ticks, in order.  A call made after tick ``i`` (its
    *mark*) is scaled by the mean of ticks ``i`` and ``i + 1``, the
    ticks that bracket it."""

    def __init__(self, kernel=python_kernel):
        self.kernel = kernel
        self.reference_s, self.runs = KERNELS[kernel]
        self.ticks: list[float] = []
        self.last = 0.0  # when the latest tick ended

    def tick(self) -> int:
        """Time the kernel and return the new mark.  The median of a few
        runs keeps the brief interruptions that the calls suffer too,
        and drops a rare long one."""
        runs = []
        for _ in range(self.runs):
            t0 = clock()
            self.kernel()
            runs.append(clock() - t0)
        self.ticks.append(statistics.median(runs))
        self.last = clock()
        return len(self.ticks) - 1

    def mark(self) -> int:
        """The mark for a call about to start: a new tick if the latest
        is more than ``INTERVAL_S`` old, so that long calls and runs of
        short ones are bracketed closely without ticking between every
        short call."""
        if not self.ticks or clock() - self.last >= INTERVAL_S:
            return self.tick()
        return len(self.ticks) - 1

    def factor(self, mark: int) -> float:
        around = self.ticks[mark:mark + 2]
        return self.reference_s * len(around) / sum(around)
