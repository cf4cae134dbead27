"""Incremental extraction: re-extract only what changed.

The ACE paper closes with: "The edge-based algorithms are well suited
for hierarchical and incremental extractors.  A modified version of ACE
is used as a part of an experimental hierarchical extractor being
developed at CMU."  HEXT is that extractor; this module adds the
*incremental* half: the window memo table persists across extraction
runs, so re-extracting an edited chip only pays for windows whose
content actually changed -- everything else is recognized as redundant
against the previous session's table.

Because fragments are immutable and keyed purely by window content, the
persistent table needs no invalidation: an edit changes a window's key,
misses the cache, and is re-extracted; stale entries are simply never
looked up again (``prune()`` drops entries unused in the latest run).

Implementation-wise this is plan-then-execute with a persistent memo:
the plan walk treats every previously memoized key as redundant (it
stops there without descending), the execute phase skips primitives the
memo already holds, and composition pulls reused composites straight
from the memo.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cif import Layout
from ..tech import NMOS, Technology
from .extractor import HextResult, _extract_with_plan


@dataclass
class IncrementalStats:
    """Cross-run reuse accounting for the latest extraction."""

    windows_seen: int
    reused_from_previous: int  #: memo hits on entries from earlier runs
    reused_within_run: int  #: ordinary same-run redundancy
    freshly_extracted: int  #: unique windows built this run

    @property
    def reuse_fraction(self) -> float:
        if not self.windows_seen:
            return 0.0
        return (
            self.reused_from_previous + self.reused_within_run
        ) / self.windows_seen


class IncrementalExtractor:
    """A HEXT front door whose memo table survives between calls."""

    def __init__(self, tech: Technology | None = None) -> None:
        self.tech = tech or NMOS()
        self._memo: dict[object, object] = {}
        self._last_used: set[object] = set()
        self.last_stats: IncrementalStats | None = None

    def __len__(self) -> int:
        return len(self._memo)

    def extract(
        self,
        source: "str | Layout",
        *,
        cache: "str | None" = None,
    ) -> HextResult:
        """Extract, reusing any window seen in previous calls.

        ``cache`` passes straight through to the execute phase (see
        :func:`repro.hext.extractor.execute_plan`): windows the
        persistent memo does not already hold can be served from the
        on-disk fragment cache.
        """
        previous_keys = frozenset(self._memo)
        result, plan = _extract_with_plan(
            source, self.tech, cache=cache, memo=self._memo
        )
        self._last_used = plan.used_keys()

        stats = result.stats
        previous = sum(
            count for key, count in plan.hits.items() if key in previous_keys
        )
        self.last_stats = IncrementalStats(
            windows_seen=stats.windows_seen,
            reused_from_previous=previous,
            reused_within_run=stats.memo_hits - previous,
            freshly_extracted=stats.unique_windows,
        )
        return result

    def prune(self) -> int:
        """Drop cache entries not used by the latest extraction.

        Returns the number of entries removed.  Useful for long editing
        sessions where abandoned cell revisions would otherwise pile up.
        """
        stale = [key for key in self._memo if key not in self._last_used]
        for key in stale:
            del self._memo[key]
        return len(stale)

    def clear(self) -> None:
        self._memo.clear()
        self._last_used.clear()
