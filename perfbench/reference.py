"""A fixed reference kernel that gauges the host's speed beside each job.

On a shared host the same CPU-bound job can take twice as long from one
minute to the next.  The worker times this kernel before the first job
and after every job; a job's time divided by the mean of the two kernel
times around it is then largely free of that drift, because both ran in
the same process within a few seconds of each other.  The kernel shares no
code with orbitscope, so a change to the program cannot move it.  It
does the kind of work the program does: exact rational arithmetic, dict
and tuple traffic, and small float loops.
"""

from __future__ import annotations

import time
from fractions import Fraction

ROUNDS = 6


def _kernel() -> int:
    acc = Fraction(0)
    table: dict = {}
    x = 0.5
    for i in range(1, 2500):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + i
        x = 3.7 * x * (1.0 - x)
    return len(table) + acc.denominator + int(x > 0.5)


def reference_s() -> float:
    """Mean seconds of ROUNDS runs of the kernel (10 to 30 ms each on a
    2-vCPU shared VM, where the mean of six tracked job times more
    closely than the median of three or of six)."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _kernel()
    return (time.perf_counter() - start) / ROUNDS
