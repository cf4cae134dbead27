"""The metrics plane: counters, latency quantiles, per-stage timings.

Everything the daemon exposes at ``GET /metrics`` funnels through one
:class:`Metrics` instance.  Design points:

* **Ring, not reservoir** — tail latency is computed over a fixed-size
  ring of the most recent job latencies.  A long-lived daemon must not
  let hour-old outliers pin p99 forever; the ring gives a sliding
  window with O(size log size) snapshot cost and O(1) memory.
* **Counters are monotonic** — scrape deltas, not levels, for rates.
* **Per-stage timings are the pipeline's own record** — each job's
  :class:`~repro.pipeline.Trace` folds in once: its stages as
  ``parse``/``extract``/``wirelist``/``lint`` rows and the extract
  stage's phases as ``scan_*`` (flat and streamed jobs) or ``hext_*``
  rows, the same numbers ``ace-extract --profile`` prints.  Flat jobs
  also contribute :class:`~repro.core.stats.ScanStats` event counters,
  hierarchical jobs :class:`~repro.hext.extractor.HextStats` counters.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..pipeline import Trace


def quantile(ordered: "list[float]", q: float) -> float:
    """Linear-interpolated quantile of an ascending-sorted list."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


class LatencyRing:
    """Fixed-size ring of recent latencies with quantile snapshots."""

    def __init__(self, size: int = 512) -> None:
        if size < 1:
            raise ValueError(f"ring size must be >= 1, got {size}")
        self.size = size
        self._values: "list[float]" = []
        self._next = 0
        self.observed = 0  #: total observations ever (not just windowed)
        self.total_seconds = 0.0

    def observe(self, seconds: float) -> None:
        self.observed += 1
        self.total_seconds += seconds
        if len(self._values) < self.size:
            self._values.append(seconds)
        else:
            self._values[self._next] = seconds
        self._next = (self._next + 1) % self.size

    def snapshot(self) -> dict:
        ordered = sorted(self._values)
        return {
            "window": len(ordered),
            "observed": self.observed,
            "mean_seconds": (
                self.total_seconds / self.observed if self.observed else 0.0
            ),
            "p50_seconds": quantile(ordered, 0.50),
            "p95_seconds": quantile(ordered, 0.95),
            "p99_seconds": quantile(ordered, 0.99),
            "max_seconds": ordered[-1] if ordered else 0.0,
        }


#: ScanStats fields folded into the metrics plane for flat jobs.
_SCAN_COUNTERS = (
    "boxes_in",
    "stops",
    "devices_created",
    "heap_pushes",
    "heap_pops",
    "lazy_discards",
    "expired",
)

#: HextStats fields folded in for hierarchical jobs.
_HEXT_COUNTERS = (
    "flat_calls",
    "compose_calls",
    "memo_hits",
    "windows_seen",
    "unique_windows",
    "cache_hits",
    "cache_misses",
)


class Metrics:
    """Thread-safe aggregate state behind ``GET /metrics``."""

    def __init__(self, ring_size: int = 512) -> None:
        self._lock = threading.Lock()
        self.started_wall = time.time()
        self.started_monotonic = time.monotonic()
        self.counters: Counter = Counter()
        self.latency = LatencyRing(ring_size)  #: submit -> finish
        self.run_latency = LatencyRing(ring_size)  #: claim -> finish
        self.stage_seconds: "dict[str, float]" = {}
        self.scan: Counter = Counter()
        self.hext: Counter = Counter()
        self.peak_active = 0
        #: live band progress of in-flight streaming jobs, by job ident
        self._stream_active: "dict[str, tuple[int, int]]" = {}

    def count(self, event: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[event] += amount

    def stream_progress(self, ident: str, band: int, bands: int) -> None:
        """Record a streaming job finishing one band of its sweep."""
        with self._lock:
            self._stream_active[ident] = (band, bands)
            self.counters["stream_bands"] += 1

    def stream_finished(self, ident: str) -> None:
        """Drop a streaming job from the live-progress gauge."""
        with self._lock:
            self._stream_active.pop(ident, None)

    def observe_completion(
        self, latency_seconds: float, run_seconds: float
    ) -> None:
        with self._lock:
            self.latency.observe(latency_seconds)
            self.run_latency.observe(run_seconds)

    def fold_scan_stats(self, scan: object) -> None:
        """Accumulate a flat run's ScanStats event counters."""
        with self._lock:
            for name in _SCAN_COUNTERS:
                self.scan[name] += int(getattr(scan, name, 0) or 0)
            self.peak_active = max(
                self.peak_active, int(getattr(scan, "peak_active", 0) or 0)
            )

    def fold_hext_stats(self, stats: object) -> None:
        """Accumulate a hierarchical run's HextStats counters."""
        with self._lock:
            for name in _HEXT_COUNTERS:
                self.hext[name] += int(getattr(stats, name, 0) or 0)

    def fold_trace(self, trace: "Trace", prefix: str) -> None:
        """Fold one job's timing record into the stage table.

        Stages keep their names; the ``extract`` stage's phases land as
        ``<prefix>_<phase>`` rows (``scan`` or ``hext``).
        """
        rows = [
            *trace.stages.items(),
            *(
                (f"{prefix}_{phase}", seconds)
                for phase, seconds in trace.phases.get("extract", {}).items()
            ),
        ]
        with self._lock:
            for key, seconds in rows:
                self.stage_seconds[key] = (
                    self.stage_seconds.get(key, 0.0) + seconds
                )

    def mean_latency(self) -> float:
        with self._lock:
            ring = self.latency
            return (
                ring.total_seconds / ring.observed if ring.observed else 0.0
            )

    def snapshot(self, **gauges: object) -> dict:
        """One JSON-ready view of everything; ``gauges`` are spliced in."""
        with self._lock:
            counters = dict(self.counters)
            hits = counters.get("cache_hits", 0)
            misses = counters.get("cache_misses", 0)
            looked_up = hits + misses
            return {
                "uptime_seconds": round(
                    time.monotonic() - self.started_monotonic, 3
                ),
                "started_at": self.started_wall,
                "jobs": {
                    key: counters.get(key, 0)
                    for key in (
                        "submitted",
                        "completed",
                        "failed",
                        "cancelled",
                        "timed_out",
                        "rejected_full",
                        "rejected_draining",
                        "coalesced",
                    )
                },
                "cache": {
                    "hits": hits,
                    "misses": misses,
                    "stores": counters.get("cache_stores", 0),
                    "hit_rate": (hits / looked_up) if looked_up else 0.0,
                },
                "latency": self.latency.snapshot(),
                "run_latency": self.run_latency.snapshot(),
                "stages": {
                    stage: round(seconds, 6)
                    for stage, seconds in sorted(self.stage_seconds.items())
                },
                "scanline": dict(self.scan) | {
                    "peak_active": self.peak_active
                },
                "hext": dict(self.hext),
                "streaming": {
                    "jobs": counters.get("stream_jobs", 0),
                    "bands": counters.get("stream_bands", 0),
                    "active": {
                        ident: {"band": band, "bands": bands}
                        for ident, (band, bands) in sorted(
                            self._stream_active.items()
                        )
                    },
                },
                **gauges,
            }
