"""Machine-speed calibration for timings taken on a shared CPU.

On a shared 2-vCPU machine the same pure-Python work runs at one of two
speeds, about 1.7x apart, switching every ~100 ms as neighbours come and
go; the share of slow time differs from run to run, and CPU time grows with
wall time.  So a fixed kernel (a tuple reach set and an int-table loop, like
the program's hot paths) is timed between operations, never during one: a
reading is SAMPLES kernel runs a few ms apart.  Each operation's time is
multiplied by REFERENCE_S times the mean kernel speed (1 / kernel time) over
the readings within WINDOW of it, which estimates the work it did at the
reference speed.  On a quiet machine the factor is about 1.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.0012   # the kernel on a quiet 2.1 GHz Xeon vCPU
INTERVAL_S = 0.25      # at most one reading per interval between operations
SAMPLES = 3
WINDOW = 10

_PROFILES = [(a, b) for a in range(1, 45) for b in range(1, 39)]
_TABLE = [(i * 7919 + 13) % 4096 for i in range(4096)]


def kernel() -> int:
    acc = 0
    for _ in range(2):
        seen: set = set()
        for a, b in ((3, 5), (7, 2), (1, 11), (5, 9)):
            fresh = {(a, b)}
            for x, y in seen:
                fresh.add((min(x + a, 44), (y + b) % 38 + 1))
            seen |= fresh
        seen |= set(_PROFILES[::2])
        for _ in range(2):
            seen = {((x * 3) % 44 + 1, y) for x, y in seen}
        states = set(range(0, 4096, 3))
        for _ in range(2):
            out = set(states)
            for p in states:
                q = _TABLE[p]
                out.add(q)
                acc += (q + p) & 1
            states = out
        acc += len(seen)
    return acc


class Calibration:
    """Readings (mean kernel speeds, 1/s) in the order taken; an operation is
    bracketed by readings[k] and readings[k + 1], where k is what
    `before_op` returned."""

    def __init__(self):
        self.readings: list[float] = []
        self._last = float("-inf")

    def read(self) -> int:
        speeds = []
        for i in range(SAMPLES):
            if i:
                time.sleep(0.005)
            t = time.perf_counter()
            kernel()
            speeds.append(1 / (time.perf_counter() - t))
        self._last = time.perf_counter()
        self.readings.append(statistics.fmean(speeds))
        return len(self.readings) - 1

    def before_op(self) -> int:
        if time.perf_counter() - self._last >= INTERVAL_S:
            return self.read()
        return len(self.readings) - 1

    def factor(self, k: int) -> float:
        window = self.readings[max(0, k + 1 - WINDOW):k + 1 + WINDOW]
        return REFERENCE_S * statistics.fmean(window)
