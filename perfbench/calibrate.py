"""Host speed calibration.

On a small shared VM the host's speed is not constant: the same fixed
pure-Python loop runs about 1.6x slower for ten seconds or more at a
time, then fast again, as neighbours come and go. No median taken
inside a run removes a change that lasts as long as the run, so the
benchmark measures the host alongside the program and reports the
program's times at a fixed reference speed.

The reference kernel is fixed code that imports nothing from the
program (dict and list churn, a sort, small NumPy set operations: the
mix the program's hot paths are made of), so a change to the program
never changes it. It is run between slices of work, never during
them; a time ``t`` measured between two calibrations ``a`` and ``b`` is
reported as ``t * scale(a, b)``, and a rate as ``rate / scale(a, b)``.

It tracks the program imperfectly. Interleaved with the batch-engine
intersections of ``tc_batch`` for 150 s on a 2-core VM, their 5-second
medians varied by 55% of their median (max - min), and by 15-17% once
scaled. A tight arithmetic loop tracked the batch engine worse (26%);
on the cycle engine it did better in one two-minute test and worse over
ten-seed runs, so one kernel serves every workload.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on a 2-core x86-64 VM (Intel Xeon, Python 3.11) in
# its fast state; it only sets the level at which scaled times are
# reported, not their spread.
REFERENCE_S = 0.0015
REPEATS = 5

_rng = np.random.default_rng(0)
_KEYS = [int(key) for key in _rng.integers(0, 1 << 30, 2000)]
_PAIRS = [(np.sort(_rng.integers(0, 5000, 150)),
           np.sort(_rng.integers(0, 5000, 150))) for _ in range(12)]


def kernel() -> int:
    table = {}
    for index, key in enumerate(_KEYS):
        table[key] = (index, key & 7)
    kept = [table[key][0] for key in _KEYS if table[key][1]]
    kept.sort()
    common = 0
    for a, b in _PAIRS:
        common += np.intersect1d(a, b).size
        common += int(np.isin(a, b).sum())
    return len(kept) + common


def measure() -> float:
    """Median seconds of ``REPEATS`` kernel runs."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between calibrations ``before``
    and ``after`` to the reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)
