"""Timing helpers shared by the benchmark modules."""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any


@dataclass
class Timed:
    """Result of timing one callable."""

    result: Any
    seconds: float
    #: tracemalloc peak (bytes) over the call, when tracking was on.
    #: Allocator peak, not RSS: deterministic, per-call, and comparable
    #: across modes within one process -- RSS is monotone per process,
    #: so it cannot distinguish a streamed sweep from the in-memory one
    #: that ran before it.
    peak_alloc: "int | None" = None


def timed(fn, *args, track_alloc: bool = False, **kwargs) -> Timed:
    """Run ``fn`` once under a wall-clock timer.

    The cyclic collector is paused for the timed region (the same policy
    as :mod:`timeit`): extraction allocates hundreds of thousands of
    objects, and letting generational collections land in some runs but
    not others swamps the effect being measured.

    With ``track_alloc`` the call also records the tracemalloc peak.
    Tracing slows allocation several-fold, so wall clock and allocator
    peak should come from *separate* runs when both matter: time with
    tracking off, then measure one tracked run and discard its seconds.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    peak: "int | None" = None
    started_tracing = False
    try:
        if track_alloc:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                started_tracing = True
            tracemalloc.reset_peak()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        if track_alloc:
            _, peak = tracemalloc.get_traced_memory()
    finally:
        if started_tracing:
            tracemalloc.stop()
        if was_enabled:
            gc.enable()
    return Timed(result=result, seconds=seconds, peak_alloc=peak)


def best_of(n: int, fn, *args, **kwargs) -> Timed:
    """Best (minimum) wall-clock of ``n`` runs; result from the last."""
    best = float("inf")
    result = None
    for _ in range(max(1, n)):
        run = timed(fn, *args, **kwargs)
        result = run.result
        best = min(best, run.seconds)
    return Timed(result=result, seconds=best)


def measured(fn, *args, repeats: int = 1, **kwargs) -> Timed:
    """Best-of wall clock plus allocator peak from one extra tracked run.

    The timing repeats run untracked (comparable to any untracked
    capture); a final run under tracemalloc contributes only
    ``peak_alloc``.  The result comes from the tracked run.
    """
    run = best_of(repeats, fn, *args, **kwargs)
    tracked = timed(fn, *args, track_alloc=True, **kwargs)
    return Timed(
        result=tracked.result,
        seconds=run.seconds,
        peak_alloc=tracked.peak_alloc,
    )
