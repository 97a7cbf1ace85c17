"""Host-speed reference for scaling pass and set-up times.

The shared host's speed drifts by a third over minutes, which moves
whole runs. A fixed mix of the kinds of work the program does (a
pure-Python loop, Jacobi-style rotations on a 12x12 array, zero-phase
filtering of 360-sample signals, compiling a module's source) is timed
right before every pass. Over ten 25-s runs per workload on a 2-core
host, the spread (IQR over median) of beats / p10 pass time was 0.19,
0.29 and 0.36 on reproduce, law-scan and score-records; of beats over
the median pass / reference time, 0.07, 0.03 and 0.04. The mix uses
only Python, numpy and scipy, never `llt`, so a change to the program
cannot move it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import signal

# Nominal reference seconds: normalised times are scaled to a host on
# which the reference takes this long (about its p10 on the 2-core host
# the bounds were sized on).
REFERENCE_S = 0.06

_SOURCE = "\n".join(
    f"def f{i}(x, y={i}):\n    z = [x * k + y for k in range({i % 7 + 1})]\n"
    f"    return sum(z) if z else {{'k': y, 'v': (x, y)}}\n"
    for i in range(150))


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 12))
        self.matrix = a + a.T
        self.sos = signal.butter(4, 20.0, "lowpass", fs=360.0, output="sos")
        self.signals = rng.standard_normal((60, 360))
        self.times: list[float] = []

    def run(self) -> float:
        """Time one round of the mix; its seconds."""
        t0 = time.perf_counter()
        acc, rows, counts = 0.0, [], {}
        for i in range(40000):
            acc += (i % 7) * 0.5
            rows.append((i, acc))
            counts[i % 101] = counts.get(i % 101, 0) + i
        m = self.matrix.copy()
        for _ in range(24):
            for p in range(11):
                for q in range(p + 1, 12):
                    rp, rq = m[:, p].copy(), m[:, q].copy()
                    m[:, p] = 0.9 * rp - 0.1 * rq
                    m[:, q] = 0.1 * rp + 0.9 * rq
        for x in self.signals:
            signal.sosfiltfilt(self.sos, x)
        compile(_SOURCE, "<reference>", "exec")
        seconds = time.perf_counter() - t0
        self.times.append(seconds)
        return seconds
