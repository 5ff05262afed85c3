"""A fixed reference kernel that tracks this machine's momentary speed.

On a shared machine the same frameflow call can take 30% longer from one
minute to the next (CPU time rises with wall time, so the process is not
waiting: the cores themselves run slower).  The benchmark runs this kernel
between rounds and scales each round's wall times by REFERENCE_S / (mean of
the kernel times just before and just after the round).  Reported times are
therefore in reference seconds: wall seconds on a machine where the kernel
takes REFERENCE_S.  The kernel mixes the two kinds of work the workloads do:
a Python loop of Jacobi-style column rotations on small numpy vectors, and
small dense products with renormalization.
"""

import math
import time

import numpy as np

REFERENCE_S = 0.03

_rng = np.random.default_rng(20221008)
_SYM = _rng.standard_normal((64, 64))
_SYM = _SYM + _SYM.T
_OP = _rng.standard_normal((64, 64)) / 8.0
_X = _rng.standard_normal((64, 8))


def kernel() -> float:
    a = _SYM.copy()
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            col_p, col_q = a[:, p].copy(), a[:, q].copy()
            a[:, p] = c * col_p - s * col_q
            a[:, q] = s * col_p + c * col_q
    y = _X
    for _ in range(600):
        y = _OP @ y
        y = y / np.linalg.norm(y)
    return float(a[0, 0] + y[0, 0])


def measure(repeats: int = 3) -> float:
    """Median wall seconds of a few kernel runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]
