"""The extraction engine: what a worker thread actually runs.

The engine owns everything worth keeping warm between requests — the
state a one-shot CLI pays to rebuild on every invocation:

* one :class:`~repro.hext.incremental.IncrementalExtractor` per
  technology, so the cross-run window memo recognizes windows any
  earlier request already extracted (two different chips sharing a
  standard cell pay for it once);
* the :class:`~repro.service.cache.ResultCache`, keyed by (payload
  digest, option facet), which short-circuits repeat submissions
  entirely.

A job body is one :func:`repro.pipeline.run`; the engine supplies only
what is the daemon's own -- cancellation, the warm hext step, band
progress -- and folds the run's timing record into ``/metrics`` once.

Cancellation is cooperative at two granularities.  Between stages
(parse / extract / wirelist / lint) every job checks its cancel event
and deadline.  Inside flat extraction a :class:`CancellationProbe`
rides the scanline as a strip consumer, so even a single huge chip
notices cancellation mid-sweep; hierarchical extraction is only
interruptible between stages (the window memo must never absorb a
half-extracted fragment).
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from ..core.scanline import StripConsumer
from ..diagnostics.writers import diagnostic_to_json
from ..hext.incremental import IncrementalExtractor
from ..pipeline import run
from ..tech import DEFAULT_LAMBDA, Technology, technology_by_name
from .cache import ResultCache
from .jobs import Job
from .metrics import Metrics

if TYPE_CHECKING:
    from ..cif import Layout
    from ..hext import HextResult


class JobCancelled(Exception):
    """The job's cancel event was observed."""


class JobTimeout(Exception):
    """The job's deadline passed before it finished."""


#: How many strips the probe lets pass between checks; strip processing
#: is microseconds, so this keeps overhead invisible while bounding the
#: reaction latency to well under a second on any real layout.
PROBE_STRIDE = 64


class CancellationProbe(StripConsumer):
    """A strip consumer that aborts the sweep for a cancelled/late job."""

    def __init__(self, job: Job) -> None:
        self.job = job
        self._countdown = PROBE_STRIDE

    def observe_strip(
        self,
        y_lo: int,
        y_hi: int,
        spans: "dict[str, list[tuple[int, int]]]",
        channels: "list[tuple[int, int, int]]",
    ) -> None:
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = PROBE_STRIDE
        _raise_if_aborted(self.job)

    def finish(self) -> None:
        pass


def _raise_if_aborted(job: Job) -> None:
    if job.cancel_event.is_set():
        raise JobCancelled(f"job {job.ident} cancelled")
    if job.deadline is not None and time.monotonic() > job.deadline:
        raise JobTimeout(f"job {job.ident} exceeded its deadline")


class ExtractionEngine:
    """Turns jobs into result payloads, keeping hot state warm."""

    def __init__(
        self,
        *,
        result_cache_dir: "str | None" = None,
        memory_cache_entries: int = 256,
        cache_max_entries: "int | None" = None,
        cache_max_bytes: "int | None" = None,
        cache_ttl: "float | None" = None,
        prime_cache: int = 0,
        default_timeout: "float | None" = None,
        resolution: int = 50,
        metrics: "Metrics | None" = None,
        engine: str = "auto",
    ) -> None:
        self.metrics = metrics if metrics is not None else Metrics()
        self.results = ResultCache(
            result_cache_dir,
            memory_entries=memory_cache_entries,
            max_entries=cache_max_entries,
            max_bytes=cache_max_bytes,
            ttl_seconds=cache_ttl,
        )
        if prime_cache:
            # Warm-start: a daemon joining a fleet that shares a result
            # store serves the fleet's working set from memory at once.
            self.metrics.count(
                "cache_primed", self.results.prime(prime_cache)
            )
        self.default_timeout = default_timeout
        self.resolution = resolution
        # Strip-batch engine for every extraction this daemon runs —
        # results are byte-identical across engines, so the engine name
        # stays out of the result-cache facet on purpose.
        self.engine = engine
        self._state_lock = threading.Lock()
        self._incremental: "dict[tuple[str, int], IncrementalExtractor]" = {}
        self._memo_locks: "dict[tuple[str, int], threading.Lock]" = {}

    # -- warm state ------------------------------------------------------

    @staticmethod
    def _tech_key(tech: Technology) -> "tuple[str, int]":
        """Warm-state key: decks with equal lambda must never share."""
        deck = tech.deck
        return (deck.name if deck is not None else "nmos", tech.lambda_)

    def _incremental_for(
        self, tech: Technology
    ) -> "tuple[IncrementalExtractor, threading.Lock]":
        with self._state_lock:
            key = self._tech_key(tech)
            extractor = self._incremental.get(key)
            if extractor is None:
                extractor = IncrementalExtractor(
                    tech, resolution=self.resolution, engine=self.engine
                )
                self._incremental[key] = extractor
                self._memo_locks[key] = threading.Lock()
            return extractor, self._memo_locks[key]

    def memo_snapshot(self) -> dict:
        """Warm-state gauges for the metrics plane."""
        with self._state_lock:
            return {
                "window_memos": {
                    f"{deck}:{lambda_}": len(extractor)
                    for (deck, lambda_), extractor in self._incremental.items()
                },
            }

    def prune_memos(self) -> int:
        """Drop memo entries unused by each technology's latest run."""
        with self._state_lock:
            extractors = list(self._incremental.items())
            locks = dict(self._memo_locks)
        removed = 0
        for key, extractor in extractors:
            with locks[key]:
                removed += extractor.prune()
        return removed

    # -- the job body ----------------------------------------------------

    def lookup(self, cache_key: str) -> "dict | None":
        """Result-cache probe; feeds the hit/miss counters."""
        cached = self.results.get(cache_key)
        if cached is not None:
            self.metrics.count("cache_hits")
        else:
            self.metrics.count("cache_misses")
        return cached

    def run_job(self, job: Job) -> dict:
        """Execute ``job`` to a result payload and cache it.

        Raises :class:`JobCancelled` / :class:`JobTimeout` when the job
        aborts cooperatively; any other exception is an extraction
        failure the worker records verbatim.  A streamed job reports
        band progress two ways: the job's ``stage`` while running, and
        the live ``streaming`` gauge in ``GET /metrics``.
        """
        options = job.options
        tech = technology_by_name(
            options.deck, options.lambda_ or DEFAULT_LAMBDA
        )

        def hext(layout: "Layout") -> "HextResult":
            extractor, memo_lock = self._incremental_for(tech)
            with memo_lock:
                return extractor.extract(layout)

        def observe_band(band: int, bands: int, stats: object) -> None:
            job.stage = f"extract band {band}/{bands}"
            self.metrics.stream_progress(job.ident, band, bands)

        if options.stream:
            self.metrics.count("stream_jobs")
        try:
            result = run(
                job.cif,
                tech,
                options,
                engine=self.engine,
                resolution=self.resolution,
                consumers=(CancellationProbe(job),),
                on_stage=lambda stage: self._enter_stage(job, stage),
                hext=hext,
                progress=observe_band,
            )
        finally:
            self.metrics.stream_finished(job.ident)
        if options.hext:
            self.metrics.fold_hext_stats(result.stats)
        else:
            self.metrics.fold_scan_stats(result.stats)
        self.metrics.fold_trace(result.trace, "hext" if options.hext else "scan")

        _raise_if_aborted(job)
        lint = result.lint
        payload = {
            "name": options.name,
            "digest": job.digest,
            "wirelist": result.text,
            "diagnostics": (
                [diagnostic_to_json(d) for d in lint.diagnostics]
                if lint is not None
                else []
            ),
            "lint_errors": len(lint.errors) if lint is not None else 0,
            "warnings": result.warnings,
            "devices": result.devices,
            "nets": result.nets,
        }
        self.results.put(job.cache_key, payload)
        self.metrics.count("cache_stores")
        job.trace = result.trace
        return payload

    def _enter_stage(self, job: Job, stage: str) -> None:
        job.stage = stage
        _raise_if_aborted(job)
