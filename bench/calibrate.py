"""Host-speed calibration: the time of a fixed computation.

sample() times KERNEL_REPS runs of kernel(), a fixed mix of the kind of work
quivercover does (modular row reduction in Python lists, small int64 numpy
products, tuple-keyed dicts).  It shares no code with the program, so a
change to the program cannot change it.  run.py scales job times by it
(README.md, "Noise").
"""

from __future__ import annotations

import time

import numpy as np

P = 32003
# About 20 ms on the reference machine.
KERNEL_REPS = 60


def kernel() -> int:
    rows = [[(i * 7 + j * 13 + 1) % P for j in range(12)] for i in range(12)]
    for c in range(12):
        piv = next((r for r in range(c, 12) if rows[r][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], P - 2, P)
        rows[c] = [x * inv % P for x in rows[c]]
        for r in range(12):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % P for x, y in zip(rows[r], rows[c])]
    a = np.arange(64, dtype=np.int64).reshape(8, 8)
    for _ in range(40):
        a = (a @ a.T + 1) % P
    table = {}
    for i in range(400):
        table[(i, i % 7, str(i))] = i
    return int(a[0, 0]) + sum(table.values()) + rows[0][0]


def sample() -> float:
    t0 = time.perf_counter()
    for _ in range(KERNEL_REPS):
        kernel()
    return time.perf_counter() - t0
