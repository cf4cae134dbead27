"""Host speed, measured so that runs on a shared machine compare.

The benchmark's host is a 2-core VM whose speed drifts: for a minute or
two at a time the same pass runs 20% to 2x slower while neighbours are
busy, and the process's CPU time slows with it, so neither more passes
nor CPU time remove the drift.  A fixed pure-Python probe, run between
passes, slows by about the same factor (a 20% episode moved the probe
17%, a mesh pass 20% and a suite pass 20%).  Every time metric is
therefore reported at the reference host's speed: each pass's seconds
times ``REFERENCE_PROBE_S`` over the mean of the probes run just before
and just after it.  The speed changes within seconds, and pairing each
pass with its own two probes followed it better than one factor per
run: over ten minutes of a 20%-2x episode, 20 s windows of mesh, suite
and hext passes spread 5-7% this way and 6-11% with the window's median
probe (22-35% unscaled).  The probe shares no code with the program,
so a faster program still reads faster.  It is only an approximation
(numpy, I/O and the daemon process slow differently from pure Python),
so each run also prints its raw values and median factor, and
``--compare`` refuses to judge times of two sets whose factors differ
by more than a few percent.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

#: The probe's median time on the reference host (2-core x86 VM, calm).
REFERENCE_PROBE_S = 0.065


def probe() -> float:
    """Seconds for a fixed mix of heap, dict and integer work."""
    gc.collect()
    started = time.perf_counter()
    rng = random.Random(1)
    heap: "list[tuple[int, int]]" = []
    table: "dict[int, int]" = {}
    for i in range(60000):
        key = (rng.randrange(1 << 20), i)
        heapq.heappush(heap, key)
        table[key[0] & 4095] = table.get(key[0] & 4095, 0) + 1
        if len(heap) > 1000:
            heapq.heappop(heap)
    return time.perf_counter() - started


class HostSpeed:
    """Probe samples through one run."""

    def __init__(self) -> None:
        self.samples: "list[float]" = []

    def sample(self) -> float:
        self.samples.append(probe())
        return self.samples[-1]

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Factor turning the seconds of work run between two probes
        into reference seconds."""
        return 2.0 * REFERENCE_PROBE_S / (before + after)

    @property
    def scale(self) -> float:
        """The run's factor from its median probe, for reports and for
        telling sets taken at different host speeds apart."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)
