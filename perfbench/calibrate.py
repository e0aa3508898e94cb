"""Machine-speed calibration for timings taken on a shared, noisy host.

On a host shared with other tenants the same op can run up to twice as
slow from one minute to the next, and every op in the process slows
together.  The benchmark therefore times a fixed slice of pure-Python
work between ops.  The slice shares nothing with the repository's code
(no change to ``src/`` can make it faster or slower), but like the
solver it chases pointers through a large heap, so it slows down when
the solver does.  Each op's wall time is divided by the local speed
factor ``slice time / REFERENCE_SLICE_S``, which reports every timing at
the reference speed of the machine the constant was measured on.

Raw (unscaled) timings are kept next to the scaled ones in the run's
report file.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List, Sequence

#: typical slice time on a quiet 2-vCPU x86-64 cloud VM (Python 3.11);
#: only a scale, so timings keep their usual magnitude
REFERENCE_SLICE_S = 0.011

_HEAP_ENTRIES = 3_000_000


def _rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


class Calibrator:
    """A fixed, seeded heap and the slice of work that walks it."""

    def __init__(self) -> None:
        start = time.perf_counter()
        before = _rss_kb()
        # a seeded random successor list of int objects spread over
        # ~110 MB: each step of the walk touches two unrelated cache
        # lines, as the solver's object graph does
        rng = random.Random(20140623)
        self._next = rng.choices(range(_HEAP_ENTRIES), k=_HEAP_ENTRIES)
        # the list is a container the collector would visit (all 3M
        # items) in every full collection of a timed op; freezing moves
        # it, and whatever else exists this early, to the permanent
        # generation, so collections see only the program's objects
        gc.freeze()
        #: resident memory the calibration heap occupies, so peak-RSS
        #: readings can leave it out
        self.heap_mb = max(0, _rss_kb() - before) / 1024.0
        #: seconds spent building the heap, left out of set-up time
        self.build_s = time.perf_counter() - start
        self.samples: List[float] = []

    def slice(self) -> float:
        """Time one slice of work; returns (and records) its seconds."""
        start = time.perf_counter()
        nxt = self._next
        j = acc = 0
        for _ in range(120_000):
            j = nxt[j]
            acc += j & 7
        for i in range(40_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def factor(self, samples: Sequence[float] = ()) -> float:
        """Slowdown against the reference: median slice / reference."""
        return statistics.median(samples or self.samples) / REFERENCE_SLICE_S


def local_factors(slices: Sequence[float], count: int, window: int = 2) -> List[float]:
    """Slowdown around each of ``count`` ops, where ``slices[i]`` was
    taken just before op ``i`` (and one more after the last op): the
    median of the slices within ``window`` ops of it."""
    return [
        statistics.median(slices[max(0, i - window): i + window + 2]) / REFERENCE_SLICE_S
        for i in range(count)
    ]
