"""Orchestration of HEXT's execute phase: cache, pool, serial fallback.

The plan walk (:func:`repro.hext.extractor.plan_windows`) has already
reduced the chip to its unique primitive windows; this module decides
*where* each one's fragment comes from:

1. the persistent :class:`~repro.parallel.cache.FragmentCache`, when a
   ``cache`` directory is given and holds a valid entry;
2. a process pool, when ``jobs`` asks for more than one worker and more
   than one window remains;
3. the in-process modified flat extractor otherwise — also the fallback
   when the pool cannot run, so a restricted environment degrades to the
   serial result rather than an error.

Every fragment a worker or the cache produces passes through the
versioned payload round-trip, so all three sources are interchangeable;
newly extracted fragments are written back to the cache for the next
run.  Composition order is fixed by the plan, which is why the source of
a fragment can never change the extracted circuit.
"""

from __future__ import annotations

import os
import time
from typing import Callable

from ..hext.extractor import (
    HextStats,
    WindowPlan,
    extract_primitive,
    load_engine,
)
from ..tech import Technology
from .cache import FragmentCache
from .pool import PersistentPool, PoolUnavailable, extract_contents_parallel
from .serialize import (
    content_payload,
    fragment_from_payload,
    window_cache_key,
)


def resolve_jobs(jobs: "int | None") -> int:
    """Normalize a jobs request: None/1 -> serial, 0 -> one per CPU."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def execute_plan_parallel(
    plan: WindowPlan,
    tech: Technology,
    stats: HextStats,
    *,
    resolution: int = 50,
    jobs: "int | None" = None,
    cache: "str | None" = None,
    memo: "dict | None" = None,
    pool: "PersistentPool | None" = None,
    engine: str = "auto",
    progress: "Callable[[int, int], None] | None" = None,
) -> dict:
    """Fill ``memo`` with a fragment per unique primitive window.

    With ``pool`` set, pending extractions go to that long-lived
    :class:`~repro.parallel.pool.PersistentPool` instead of a one-shot
    pool sized by ``jobs``; the pool's own worker count wins.

    ``progress(done, total)`` is called over the plan's unique
    primitives; memo/cache hits land in one batched call, and a batch
    served by the process pool completes all at once.
    """
    memo = {} if memo is None else memo
    workers = pool.workers if pool is not None else resolve_jobs(jobs)
    phase_start = time.perf_counter()
    store = FragmentCache(cache) if cache is not None else None
    total = len(plan.primitives)

    # Windows still needing extraction after cache lookup, in plan order.
    pending: list[tuple[object, dict, "str | None"]] = []
    for key, content in plan.primitives.items():
        if key in memo:
            continue
        payload = content_payload(content)
        cache_key = None
        if store is not None:
            cache_key = window_cache_key(content, tech, resolution)
            cached = store.get(cache_key)
            if cached is not None:
                memo[key] = cached
                continue
        pending.append((key, payload, cache_key))

    done = total - len(pending)
    if progress is not None and done:
        progress(done, total)

    if workers > 1 and len(pending) > 1:
        try:
            batch = [payload for _, payload, _ in pending]
            if pool is not None:
                produced = pool.extract(batch)
            else:
                produced = extract_contents_parallel(
                    batch, tech, resolution, workers, engine
                )
        except PoolUnavailable:
            workers = 1
        else:
            for (key, _, cache_key), (fragment_pl, seconds) in zip(
                pending, produced
            ):
                fragment = fragment_from_payload(fragment_pl)
                memo[key] = fragment
                stats.flat_calls += 1
                stats.worker_seconds += seconds
                if store is not None:
                    store.put(cache_key, fragment, payload=fragment_pl)
                done += 1
                if progress is not None:
                    progress(done, total)
            pending = []

    setup = load_engine(engine, stats) if pending else 0.0
    for key, payload, cache_key in pending:
        content = plan.primitives[key]
        start = time.perf_counter()
        fragment = extract_primitive(content, tech, resolution, engine)
        stats.worker_seconds += time.perf_counter() - start
        memo[key] = fragment
        stats.flat_calls += 1
        if store is not None:
            store.put(cache_key, fragment)
        done += 1
        if progress is not None:
            progress(done, total)

    stats.flat_seconds += time.perf_counter() - phase_start - setup
    stats.jobs = max(stats.jobs, workers)
    if store is not None:
        stats.cache_hits += store.stats.hits
        stats.cache_misses += store.stats.misses + store.stats.invalid
        stats.cache_invalid += store.stats.invalid
    return memo
