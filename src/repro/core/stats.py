"""Extraction statistics: the host's lap clock and scanline counters.

The paper reports a coarse distribution of extraction time (section 5:
40% parse/sort, 15% list insertion, 20% device computation, 10% storage/
IO/init, 15% miscellaneous) and an expected-complexity analysis in terms
of scanline stops and active-list length.  The scanline host times its
phases with one always-on :class:`LapClock`; :mod:`repro.pipeline`
nests those phases under its stages and derives the section 5 table
from that record.  :class:`ScanStats` holds the counters, and only the
counters: they are compared across engines, band plans and resumed
sweeps, so no wall-clock value lives there.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter


class LapClock:
    """An always-on wall clock that bills each lap to one phase.

    :meth:`lap` charges the time since the previous lap (or since
    :meth:`start`) to ``phase``: one clock read per phase boundary, so a
    loop of consecutive sections pays one read per section and its
    phases add up to the loop's wall time with no gaps.
    """

    __slots__ = ("seconds", "_last")

    def __init__(self, phases: "tuple[str, ...]") -> None:
        self.seconds: dict[str, float] = dict.fromkeys(phases, 0.0)
        self._last = 0.0

    def start(self) -> None:
        """Open a timed section; time before it is billed to no phase."""
        self._last = perf_counter()

    def lap(self, phase: str) -> None:
        now = perf_counter()
        self.seconds[phase] += now - self._last
        self._last = now


@dataclass
class ScanStats:
    """Counters for the complexity claims of section 4."""

    boxes_in: int = 0  #: primitive boxes received from the front-end
    stops: int = 0  #: scanline stops (loop iterations)
    strips: int = 0  #: non-empty strips processed
    active_samples: int = 0  #: sum of active-list lengths over stops
    peak_active: int = 0  #: max total active-list length
    nets_created: int = 0
    devices_created: int = 0
    merges: int = 0  #: interval merge operations
    splits: int = 0  #: continuation splits of taller boxes

    # Event-heap counters (the machine-checkable complexity guardrail:
    # per-stop scheduling work must track events, not active-list size).
    # They count intervals, not heap entries: one heap entry per
    # (layer, bottom) schedules a bucket of intervals.
    heap_pushes: int = 0  #: intervals scheduled on a bottom-edge heap
    heap_pops: int = 0  #: intervals removed (expiries + lazy discards)
    lazy_discards: int = 0  #: intervals removed by merge consumption
    expired: int = 0  #: live intervals retired at their bottom edge
    #: removals plus one stopping peek per layer with rows, at expiry
    #: and at step 2.d, across all stops
    intervals_scanned: int = 0
    max_stop_overhead: int = 0  #: max per-stop examinations beyond removals

    @property
    def mean_active(self) -> float:
        return self.active_samples / self.stops if self.stops else 0.0

    def observe_active(self, total_active: int) -> None:
        self.active_samples += total_active
        if total_active > self.peak_active:
            self.peak_active = total_active
