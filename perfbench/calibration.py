"""Machine-speed calibration: a fixed pure-Python kernel timed in every process.

On a shared host the speed of one CPU can switch between a fast and a
slow state every few seconds; on the 2-vCPU host where this benchmark
was written the slow state ran pure-Python code up to 60% slower, in
wall and CPU time alike.  The benchmark therefore times this kernel
around every chunk of calls (about a quarter of a second) and scales
the chunk by ``REFERENCE_S / mean of the two kernel times``: seconds on
a machine where the kernel takes ``REFERENCE_S``.  Measured seconds
are kept in the result file.

The kernel is sparse polynomial multiplication mod p with dict
accumulation and a sort, the kind of work the decomposition does, and
uses no equidim code, so a faster program does not make it faster.
"""

from __future__ import annotations

import random
import statistics
import time

REFERENCE_S = 0.01
_P = 65521
_rng = random.Random(20230216)
_A = [(_rng.randrange(1 << 30), _rng.randrange(_P)) for _ in range(40)]
_B = [(_rng.randrange(1 << 30), _rng.randrange(_P)) for _ in range(40)]


def kernel_time(reps: int = 12) -> float:
    """Seconds taken by one run of the calibration kernel."""
    t0 = time.perf_counter()
    for _ in range(reps):
        acc: dict[int, int] = {}
        for ka, ca in _A:
            for kb, cb in _B:
                k = ka + kb
                acc[k] = (acc.get(k, 0) + ca * cb) % _P
        sorted(acc.items())
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor from measured seconds to reference seconds."""
    return REFERENCE_S / statistics.median(samples)
