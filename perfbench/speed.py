"""Machine-speed normalisation of the benchmark's times.

On a shared host the speed of the same code drifts by tens of percent over
seconds to minutes as other tenants load it, and whole runs land in a slow
or a fast stretch. Medians inside a run cannot remove that, so every timed
duration is scaled to a nominal machine speed: a fixed reference computation
(pure Python and NumPy, no zdrlab code) is timed between operations, and an
operation's duration is multiplied by ``NOMINAL_S`` over the shorter of the
reference times taken just before and just after it. Raw times are reported
alongside the scaled ones.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

# Reference time at the nominal speed: its time on a 2-vCPU 2.0 GHz Xeon
# virtual machine in a quiet stretch. Scaled times read as seconds at that speed.
NOMINAL_S = 0.075
# Take a reference sample once at least this much timed work has run.
SAMPLE_EVERY_S = 0.5


def reference() -> float:
    """Time a fixed mix of the work zdrlab does: tuple hashing over subsets,
    big-integer bit operations, NumPy table arithmetic and small allocations."""
    t0 = time.perf_counter()
    rows = [tuple((i * j) % 7 for j in range(28)) for i in range(28)]
    distinct = 0
    for cand in itertools.combinations(range(28), 3):
        distinct += len({tuple(rows[v][x] for v in cand) for x in range(28)})
    bits = (1 << 2048) - 1
    for i in range(5000):
        distinct += (bits >> (i % 2048)).bit_count()
    # small chunks, so the reference adds little to the run's peak memory
    for _ in range(4):
        table = np.arange(100_000, dtype=np.int64)
        distinct += int(np.sort(table * 7919 % 100_003)[-1])
    for _ in range(5):
        distinct += len([tuple(range(i % 48)) for i in range(5_000)])
    return time.perf_counter() - t0


class SpeedClock:
    """Accumulates raw and speed-scaled durations of timed work."""

    def __init__(self) -> None:
        reference()  # warm-up
        self.samples: list[float] = [reference()]
        self.raw = 0.0
        self.scaled = 0.0
        self._pending: list[float] = []
        self._since = 0.0

    def add(self, seconds: float) -> None:
        self._pending.append(seconds)
        self._since += seconds

    def sample_if_due(self) -> None:
        if self._since >= SAMPLE_EVERY_S:
            self.sample()

    def sample(self) -> None:
        """Take a reference sample and scale the work done since the last one."""
        ref = reference()
        # the faster of the two neighbouring samples: a stall that hits the
        # short reference itself should not rescale the work around it
        factor = NOMINAL_S / min(self.samples[-1], ref)
        for seconds in self._pending:
            self.raw += seconds
            self.scaled += seconds * factor
        self.samples.append(ref)
        self._pending = []
        self._since = 0.0
