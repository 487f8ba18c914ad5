"""A fixed probe of how fast the CPU runs right now.

The benchmark runs on a small shared VM whose CPUs change speed: on a
2-vCPU Xeon VM the same child, doing identical work, took 1.1 s in one
minute and 3.0 s in the next, its CPU time drifting with it; each vCPU
switches between a fast and a slow state (about 1.6x apart) every few
seconds to minutes, independently of the other.  No statistic over one run
removes a drift that lasts longer than the run.

So the harness pins itself and its children to one CPU and times this
probe between every two children, while no child runs.  It reports every
timing at a reference speed: a child's raw time times
``REFERENCE_S / probe``, where ``probe`` is the geometric mean of the probe
timings just before and just after that child.  The probe does not touch
pcctab, so a change to the program moves the reported times fully, while a
change of CPU speed cancels out.  Its mix follows the program's:
small-array numpy calls in a Python loop (IPF on a few hundred cells),
whole-array numpy arithmetic with ``log`` (the pair-loss kernel) and plain
Python dict work (CSV parse, table build).  The raw times stay in the
printout and the run record.
"""

from __future__ import annotations

import math
import time

import numpy as np

# a typical probe time on the 2-vCPU Xeon VM the benchmark was written on
# (the median over one run ranged from 0.09 to 0.19 s), so reported times
# read like that machine's raw times
REFERENCE_S = 0.16

_SMALL = np.random.default_rng(0).random((9, 9, 9)) + 0.5
_LARGE = np.random.default_rng(1).random(200_000) + 0.5


def _work() -> float:
    acc = 0.0
    table = _SMALL.copy()
    for _ in range(4000):
        margin = table.sum(axis=(0, 1))
        table = table * (1.0 / margin)[None, None, :]
        acc += float(margin[0])
    for _ in range(20):
        acc += float(np.sum(_LARGE * np.log(_LARGE / _LARGE.mean())))
    counts: dict[int, int] = {}
    for i in range(250_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    return acc + len(counts)


def probe() -> float:
    """Seconds this process takes for the probe's fixed work."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale that brings a time taken between two probes to reference speed."""
    return REFERENCE_S / math.sqrt(before * after)
