"""Host-speed calibration for the timed metrics.

The host's speed drifts by up to 2x over tens of minutes and swings by
tens of percent within seconds, which no median inside one run can
absorb. Each run therefore times a fixed reference kernel in short
chunks, one right before and one right after every pass and, between
its operations, one for every 0.25 s since the last, and scales each
pass by how fast the kernel ran around and during it:

    scaled pass = measured * REFERENCE_CHUNK_S / median(its chunk times)

so a time is given in seconds of a host running at the reference
speed. A chunk has two halves of about equal time, because the host's
interpreter speed and its memory speed drift apart: interpreter work
(integer and float arithmetic, dict and list traffic, method calls and
small numpy calls) and a random gather from a 16 MiB array. Fitted on
blocks of paired measurements on the reference host, this even mix
tracked both the interpreter-bound compile-corpus passes and the
numpy-heavy hardened-calls passes better than either half alone. The
kernel is independent of the program, so a change to the program moves
the scaled times as much as the raw ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: A round figure within the range of median chunk CPU times on the
#: reference host (a 2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6,
#: whose chunks took 4.4-8.2 ms as its speed drifted). It only sets the
#: unit of the scaled times.
REFERENCE_CHUNK_S = 0.008

#: Between a pass's operations, a run takes one chunk for every this
#: many seconds since the last chunk, and at most CATCH_UP at once, so
#: that long operations are sampled as densely as short ones.
INTERVAL_S = 0.25
CATCH_UP = 8

class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: float) -> None:
        self.x = x
        self.y = y

    def step(self, k: int) -> float:
        return self.y + (self.x ^ k) * 0.5


# Everything the kernel touches is allocated once, here: a chunk
# creates no container objects, so it never runs the garbage collector
# over the program's heap, and it maps no fresh pages.
_SMALL = np.arange(64, dtype=np.float64)
_BIG = np.arange(1 << 21, dtype=np.float64)                  # 16 MiB
_GATHER = np.random.default_rng(0).permutation(1 << 21)[:1 << 18]
_OUT = np.empty(len(_GATHER))
_POINTS = [_Point(i, i * 0.25) for i in range(512)]
_TABLE = dict.fromkeys(range(512), 0)


def _kernel() -> float:
    """One chunk of fixed work; its value is only returned so that the
    work cannot be skipped."""
    table, points = _TABLE, _POINTS
    acc = 0.0
    for i in range(4000):
        key = (i * 7919) & 511
        table[key] = (table[key] + i) & 0xFFFF
        acc = points[key].step(i) % 1024.0 + acc * 0.5
        if i % 64 == 0:
            acc += float(np.dot(_SMALL, _SMALL[::-1])) * 1e-9
    for _ in range(3):
        np.take(_BIG, _GATHER, out=_OUT)
        acc += float(_OUT.sum()) * 1e-12
    return acc


class Calibrator:
    """Chunk times of the reference kernel over one run."""

    def __init__(self) -> None:
        #: CPU time of each chunk, in the order taken
        self.samples: List[float] = []
        #: wall and CPU time spent in chunks, to take out of timed spans
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._last = -float("inf")

    def sample(self, n: int = 1) -> None:
        """Time ``n`` chunks, after one untimed chunk that brings the
        kernel's data back into the caches the program has just
        used: every timed chunk starts warm, however much program work
        ran before it."""
        w0, c0 = time.perf_counter(), time.process_time()
        _kernel()
        for _ in range(n):
            c1 = time.process_time()
            _kernel()
            self.samples.append(time.process_time() - c1)
        self.spent_cpu += time.process_time() - c0
        self.spent_wall += time.perf_counter() - w0
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Take a chunk for every :data:`INTERVAL_S` since the last one,
        at most :data:`CATCH_UP`."""
        due = int((time.perf_counter() - self._last) / INTERVAL_S)
        if due:
            self.sample(min(due, CATCH_UP))

    def scale(self, since: int = 0) -> float:
        """Factor from CPU seconds to reference seconds, from the chunks
        taken since the ``since``-th one (by default over the run)."""
        return REFERENCE_CHUNK_S / statistics.median(self.samples[since:])
