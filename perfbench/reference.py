"""A fixed reference kernel that tracks the host's speed during a run.

On a shared host the CPU time of one fixed op drifts by 10-25% over
tens of seconds (the neighbours of a vCPU change how fast it runs), and
a run of one workload sees one stretch of that drift.  The benchmark
therefore runs ``kernel`` between ops, a fixed piece of work that does
not touch sigma_forge, and scales the op times of each pass by
``NOMINAL_S`` over the median kernel time of that pass.  A change to
the program moves the op times and not the kernel, so it shows in full;
a change in host speed moves both, and cancels.

The kernel mixes the two kinds of work the workloads do: per-column
numpy elimination of a dense 0/1 matrix, and elimination of Python-int
bit rows.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

clock = time.process_time

# median CPU time of one kernel call on the 2-vCPU shared Xeon host
# (Python 3.11, numpy 2.4) the benchmark was calibrated on; op times are
# reported at that speed
NOMINAL_S = 0.0087

# seconds of op CPU time between two kernel calls (about 5% overhead)
EVERY_S = 0.2
# kernel calls a pass makes at least, so its median is never one sample
MIN_PER_PASS = 5

_rng = np.random.default_rng(20240229)
_MATRIX = _rng.integers(0, 2, size=(192, 192), dtype=np.uint8)
_ROWS = tuple(int.from_bytes(_rng.bytes(16), "little") for _ in range(112))


def kernel() -> int:
    """Rank of the fixed numpy matrix plus rank of the fixed int rows."""
    m = _MATRIX.copy()
    r = 0
    for c in range(m.shape[1]):
        below = np.flatnonzero(m[r:, c])
        if len(below) == 0:
            continue
        p = r + below[0]
        if p != r:
            m[[r, p]] = m[[p, r]]
        hit = np.flatnonzero(m[:, c])
        hit = hit[hit != r]
        m[hit] ^= m[r]
        r += 1
        if r == m.shape[0]:
            break
    rows = list(_ROWS)
    rank = 0
    for b in range(128):
        bit = 1 << b
        for i in range(rank, len(rows)):
            if rows[i] & bit:
                rows[rank], rows[i] = rows[i], rows[rank]
                pivot = rows[rank]
                for j in range(len(rows)):
                    if j != rank and rows[j] & bit:
                        rows[j] ^= pivot
                rank += 1
                break
    return r + rank


class HostSpeed:
    """Kernel samples taken between ops, one list per pass."""

    def __init__(self):
        self.passes: list = []
        self._next = 0.0
        kernel()  # the first call pays numpy's lazy set-up

    def sample(self) -> float:
        t0 = clock()
        kernel()
        return clock() - t0

    def start_pass(self):
        self.passes.append([])
        self._next = clock() + EVERY_S

    def between_ops(self):
        if clock() >= self._next:
            self.passes[-1].append(self.sample())
            self._next = clock() + EVERY_S

    def end_pass(self) -> float:
        """Factor that brings this pass's op times to the nominal speed."""
        samples = self.passes[-1]
        while len(samples) < MIN_PER_PASS:
            samples.append(self.sample())
        return NOMINAL_S / statistics.median(samples)
