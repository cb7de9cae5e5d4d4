"""Host-speed calibration for the untimed gaps between timed operations.

The shared hosts this benchmark runs on change single-thread speed in
phases (1.4-1.8x, lasting from under a second to over a minute), so a
wall-clock time taken in one phase cannot be compared with one taken in
another. Each timed block of work is bracketed by calibration slots: a
fixed amount of work that depends on numpy and the standard library only,
never on fasloc, in the mix the program spends its time on (small-array
numpy calls, interpreter loops, number formatting and parsing). A block's
time is then expressed at reference host speed:

    normalized = wall * REF_US_PER_UNIT / (mean µs per unit of the slots
                                           before and after the block)

so a faster program moves the normalized time by exactly as much as its
wall time, while a host phase moves it far less than it moves wall time.
REF_US_PER_UNIT is about the unit's typical time on the machine the
benchmark was written on (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy
2.4.6); it is a constant of the benchmark, not a setting, and only sets
the scale.
"""

import statistics
import time

import numpy as np

REF_US_PER_UNIT = 170.0
# Units in the slots around one set-up probe (about 50 ms).
SETUP_UNITS = 300

_X = np.linspace(0.0, 1.0, 24)


def _unit():
    acc = 0.0
    for i in range(12):
        y = np.exp(-_X * (i % 5)) * np.cos(_X * i)
        acc += float(y @ _X) + float(np.sum(y * y))
        acc += sum([v * 0.5 for v in range(16)])
        text = f"{acc:.9g},{i}"
        acc += float(text.split(",")[1])
    return acc


def slot(units, parts=5):
    """Run ``units`` calibration units in ``parts`` equal runs; return the
    median µs per unit, so that one interrupt does not move the slot."""
    per_part = max(1, units // parts)
    times = []
    for _ in range(parts):
        t0 = time.perf_counter_ns()
        for _ in range(per_part):
            _unit()
        times.append((time.perf_counter_ns() - t0) / 1e3 / per_part)
    return statistics.median(times)


def factor(before_us, after_us):
    """Scale from a block's wall time to reference host speed."""
    return REF_US_PER_UNIT / (0.5 * (before_us + after_us))
