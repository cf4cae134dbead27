"""The extraction engine: what a worker thread actually runs.

The engine owns everything worth keeping warm between requests — the
state a one-shot CLI pays to rebuild on every invocation:

* one :class:`~repro.hext.incremental.IncrementalExtractor` per
  technology, so the cross-run window memo recognizes windows any
  earlier request already extracted (two different chips sharing a
  standard cell pay for it once);
* one :class:`~repro.parallel.pool.PersistentPool` per (technology,
  worker count), so parallel hierarchical jobs reuse live worker
  processes instead of forking a pool per request;
* the :class:`~repro.service.cache.ResultCache`, keyed by (payload
  digest, option facet), which short-circuits repeat submissions
  entirely.

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

from ..cif import parse
from ..core import extract_report
from ..core.scanline import StripConsumer
from ..diagnostics import SourceIndex
from ..diagnostics.writers import diagnostic_to_json
from ..hext.incremental import IncrementalExtractor
from ..hext.wirelist import to_hierarchical_wirelist
from ..parallel import PersistentPool, resolve_jobs
from ..tech import NMOS, Technology, compile_deck, deck_by_name
from ..wirelist import to_wirelist, write_wirelist
from .cache import ResultCache
from .jobs import Job
from .metrics import Metrics

if TYPE_CHECKING:
    from ..cif import Layout
    from ..drc import DrcChecker


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
        profile: bool = True,
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
        # Arm the scanline host's per-phase profiler on flat jobs so
        # /metrics can decompose the extract stage (scan_* rows); a
        # handful of clock reads per stop, invisible next to the sweep.
        self.profile = profile
        self._state_lock = threading.Lock()
        self._incremental: "dict[tuple[str, int], IncrementalExtractor]" = {}
        self._memo_locks: "dict[tuple[str, int], threading.Lock]" = {}
        self._pools: "dict[tuple[str, int, int], PersistentPool]" = {}

    # -- warm state ------------------------------------------------------

    def _tech_for(
        self, lambda_: "int | None", deck: str = "nmos"
    ) -> Technology:
        if deck == "nmos":
            return NMOS(lambda_) if lambda_ is not None else NMOS()
        return compile_deck(
            deck_by_name(deck, lambda_) if lambda_ else deck_by_name(deck)
        )

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

    def _pool_for(
        self, tech: Technology, jobs: "int | None"
    ) -> "PersistentPool | None":
        workers = resolve_jobs(jobs)
        if workers <= 1:
            return None
        with self._state_lock:
            key = (*self._tech_key(tech), workers)
            pool = self._pools.get(key)
            if pool is None:
                pool = PersistentPool(
                    tech, self.resolution, workers, self.engine
                )
                self._pools[key] = pool
            return pool

    def memo_snapshot(self) -> dict:
        """Warm-state gauges for the metrics plane."""
        with self._state_lock:
            return {
                "window_memos": {
                    f"{deck}:{lambda_}": len(extractor)
                    for (deck, lambda_), extractor in self._incremental.items()
                },
                "worker_pools": [
                    {"deck": deck, "lambda": lam, "workers": workers}
                    for (deck, lam, workers) in self._pools
                ],
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

    def close(self) -> None:
        with self._state_lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.close()

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
        failure the worker records verbatim.
        """
        options = job.options
        tech = self._tech_for(options.lambda_, options.deck)
        probe = CancellationProbe(job)

        self._enter_stage(job, "parse")
        started = time.perf_counter()
        layout = parse(job.cif)
        self.metrics.observe_stage("parse", time.perf_counter() - started)

        if options.stream:
            return self._run_streaming(job, tech, layout, probe)

        self._enter_stage(job, "extract")
        started = time.perf_counter()
        if options.hext:
            extractor, memo_lock = self._incremental_for(tech)
            pool = self._pool_for(tech, options.jobs)
            with memo_lock:
                hext_result = extractor.extract(layout, pool=pool)
                circuit = hext_result.circuit
            self.metrics.fold_hext_stats(hext_result.stats)
        else:
            drc_inline = self._drc_checker(tech) if options.lint else None
            consumers: "tuple[StripConsumer, ...]" = (
                (probe, drc_inline) if drc_inline is not None else (probe,)
            )
            report = extract_report(
                layout,
                tech,
                keep_geometry=options.keep_geometry,
                resolution=self.resolution,
                strip_consumers=consumers,
                engine=self.engine,
                profile=self.profile,
            )
            circuit = report.circuit
            self.metrics.fold_scan_stats(report.stats)
        self.metrics.observe_stage("extract", time.perf_counter() - started)

        self._enter_stage(job, "wirelist")
        started = time.perf_counter()
        if options.hext:
            wirelist = to_hierarchical_wirelist(hext_result, name=options.name)
        else:
            wirelist = to_wirelist(
                circuit,
                name=options.name,
                include_geometry=options.keep_geometry,
                tech=tech,
            )
        text = write_wirelist(wirelist)
        self.metrics.observe_stage("wirelist", time.perf_counter() - started)

        diagnostics: "list[dict]" = []
        lint_errors = 0
        if options.lint:
            self._enter_stage(job, "lint")
            started = time.perf_counter()
            if options.hext:
                # The hierarchical extractor works window by window; the
                # DRC needs the whole-chip strip feed, so one flat pass.
                drc = self._drc_checker(tech)
                extract_report(
                    layout,
                    tech,
                    resolution=self.resolution,
                    strip_consumers=(probe, drc),
                    engine=self.engine,
                )
            else:
                drc = drc_inline
            lint_report = drc.report(artifact=options.name)
            if lint_report.diagnostics:
                lint_report = SourceIndex(layout).attribute(lint_report)
            diagnostics = [
                diagnostic_to_json(d) for d in lint_report.diagnostics
            ]
            lint_errors = len(lint_report.errors)
            self.metrics.observe_stage("lint", time.perf_counter() - started)

        _raise_if_aborted(job)
        result = {
            "name": options.name,
            "digest": job.digest,
            "wirelist": text,
            "diagnostics": diagnostics,
            "lint_errors": lint_errors,
            "warnings": list(circuit.warnings),
            "devices": circuit.device_count(),
            "nets": circuit.net_count(),
        }
        self.results.put(job.cache_key, result)
        self.metrics.count("cache_stores")
        return result

    def _run_streaming(
        self,
        job: Job,
        tech: Technology,
        layout: "Layout",
        probe: CancellationProbe,
    ) -> dict:
        """The streaming job body: banded sweep, incremental emission.

        The streamed wirelist is byte-identical to the in-memory one, so
        the result payload has the same shape and the same cache key as
        a flat job's — a streamed submission can be served from (and
        populate) the same cache entry.  Band progress is surfaced two
        ways: the job's ``stage`` while running, and the live
        ``streaming`` gauge in ``GET /metrics``.
        """
        from ..streaming import stream_extract

        options = job.options
        self._enter_stage(job, "extract")
        self.metrics.count("stream_jobs")
        started = time.perf_counter()
        drc_inline = self._drc_checker(tech) if options.lint else None
        consumers: "tuple[StripConsumer, ...]" = (
            (probe, drc_inline) if drc_inline is not None else (probe,)
        )

        def observe_band(band: int, bands: int, stats: object) -> None:
            job.stage = f"extract band {band}/{bands}"
            self.metrics.stream_progress(job.ident, band, bands)

        try:
            report = stream_extract(
                layout,
                tech,
                name=options.name,
                keep_geometry=options.keep_geometry,
                resolution=self.resolution,
                engine=self.engine,
                band_height=options.band_height,
                strip_consumers=consumers,
                progress=observe_band,
                profile=self.profile,
            )
        finally:
            self.metrics.stream_finished(job.ident)
        self.metrics.fold_scan_stats(report.stats)
        # Streaming emits the wirelist during the sweep, so extract and
        # wirelist are one stage here.
        self.metrics.observe_stage("extract", time.perf_counter() - started)

        diagnostics: "list[dict]" = []
        lint_errors = 0
        if options.lint:
            self._enter_stage(job, "lint")
            started = time.perf_counter()
            lint_report = drc_inline.report(artifact=options.name)
            if lint_report.diagnostics:
                lint_report = SourceIndex(layout).attribute(lint_report)
            diagnostics = [
                diagnostic_to_json(d) for d in lint_report.diagnostics
            ]
            lint_errors = len(lint_report.errors)
            self.metrics.observe_stage("lint", time.perf_counter() - started)

        _raise_if_aborted(job)
        result = {
            "name": options.name,
            "digest": job.digest,
            "wirelist": report.text,
            "diagnostics": diagnostics,
            "lint_errors": lint_errors,
            "warnings": list(report.warnings),
            "devices": report.devices,
            "nets": report.nets,
        }
        self.results.put(job.cache_key, result)
        self.metrics.count("cache_stores")
        return result

    def _drc_checker(self, tech: Technology) -> "DrcChecker":
        from ..drc import DrcChecker

        return DrcChecker(tech)

    def _enter_stage(self, job: Job, stage: str) -> None:
        job.stage = stage
        _raise_if_aborted(job)
